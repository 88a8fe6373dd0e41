// Package phys models physical memory: frames with real backing bytes,
// page descriptors, and a per-node allocator over the platform's
// heterogeneous memory nodes (the pseudo-NUMA abstraction of Section 1).
//
// Frames carry actual data so that replication and migration can be
// verified byte-for-byte. Two things are lazy, and only these two. Backing
// bytes exist per allocated frame, not per node, so a simulated 8 GB DDR3
// node costs the host what is allocated on it (and nothing at all in
// dataless mode). And a recycled frame is cleared on its first use
// (Frame.Bytes), not at Alloc, so the destination frame of a migration,
// which the copy overwrites whole, is never cleared. Everything else is
// eager: a first-time frame's bytes are made (zeroed) in Alloc, and a
// frame that is partially written is cleared in full before the write.
package phys

import (
	"errors"
	"fmt"

	"memif/internal/hw"
)

// ErrNoMemory is returned when a node cannot satisfy an allocation. The
// fast node on KeyStone II holds only 6 MB, so callers must expect this.
var ErrNoMemory = errors.New("phys: out of memory on node")

// FrameID identifies a frame within one Memory instance. IDs are dense
// and never reused, so a stale reference is detectable.
type FrameID uint32

// NoFrame is the zero FrameID, never assigned to a real frame.
const NoFrame FrameID = 0

// Frame is a physical page frame plus its page descriptor state.
type Frame struct {
	ID   FrameID
	Node hw.NodeID
	Addr int64 // physical address, used for DMA descriptors
	Size int64 // bytes

	data  []byte // backing bytes; nil in dataless mode
	stale bool   // recycled and not yet cleared: data holds the previous owner's bytes

	// Page-descriptor state.
	RefCount    int  // mappings referencing the frame
	FileBacked  bool // owned by a file's page cache (vm.File)
	pins        int  // in-flight DMA transfers reading or writing the frame
	freeOnUnpin bool // Release found the frame pinned: the last Unpin frees it
	freed       bool
	mem         *Memory
}

// Bytes returns the frame's backing bytes, nil in dataless mode. It is
// where a recycled frame is cleared, on its first use (see the package
// comment).
func (f *Frame) Bytes() []byte {
	if f.stale {
		f.stale = false
		clear(f.data)
	}
	return f.data
}

// Pin marks the frame as source or target of one more in-flight DMA
// transfer. Transfers of one device overlap and may share frames (a
// replication reading a region that is being migrated), so the pin is a
// count: the frame stays pinned until every transfer has let go.
func (f *Frame) Pin() {
	if f.freed {
		panic(fmt.Sprintf("phys: pinning freed %v", f))
	}
	f.pins++
}

// Unpin drops one pin. The last one performs the free that Release
// deferred while the frame was pinned.
func (f *Frame) Unpin() {
	if f.pins <= 0 {
		panic(fmt.Sprintf("phys: unpinning unpinned %v", f))
	}
	f.pins--
	if f.pins == 0 && f.freeOnUnpin {
		f.freeOnUnpin = false
		f.mem.Free(f)
	}
}

// Pinned reports whether any in-flight DMA transfer holds the frame.
func (f *Frame) Pinned() bool { return f.pins > 0 }

func (f *Frame) String() string {
	return fmt.Sprintf("frame%d@node%d[%#x,+%d]", f.ID, f.Node, f.Addr, f.Size)
}

// nodeState tracks one memory node's allocation state. Addresses are
// assigned bump-pointer style and recycled through per-size free lists
// (frames of one request share a size, so recycling is exact).
type nodeState struct {
	desc     hw.MemNode
	nextAddr int64
	used     int64
	free     map[int64][]*Frame
}

// Stats are allocation counters for one node.
type Stats struct {
	Allocs, Frees, Failures int64
	Used, Capacity          int64
}

// Memory is the machine's physical memory: all nodes plus the frame
// registry.
type Memory struct {
	nodes    map[hw.NodeID]*nodeState
	frames   []*Frame // indexed by FrameID; IDs are dense and never reused
	stats    map[hw.NodeID]*Stats
	dataless bool
}

// DisableData switches the memory into dataless mode: frames carry no
// backing bytes and Copy becomes a no-op. Timing-only experiments over
// very large regions (e.g. the million-page mbind of Section 2.2) use
// this to avoid materializing gigabytes on the host. Accessing frame
// data through vm in this mode is a caller bug.
func (m *Memory) DisableData() { m.dataless = true }

// New builds the physical memory of a platform. Node physical address
// bases mimic KeyStone II, where the SRAM sits below the DDR banks (the
// boot-allocator hazard discussed in Section 6.1).
func New(plat *hw.Platform) *Memory {
	m := &Memory{
		nodes:  make(map[hw.NodeID]*nodeState),
		frames: []*Frame{NoFrame: nil},
		stats:  make(map[hw.NodeID]*Stats),
	}
	base := int64(0x0C00_0000) // SRAM-like low base
	for _, n := range plat.Nodes {
		st := &nodeState{desc: n, nextAddr: base, free: make(map[int64][]*Frame)}
		m.nodes[n.ID] = st
		m.stats[n.ID] = &Stats{Capacity: n.Capacity}
		base += n.Capacity
		if rem := base % (1 << 30); rem != 0 { // align next node's base
			base += (1 << 30) - rem
		}
		base += 1 << 30 // guard gap between nodes
	}
	return m
}

// Node returns the descriptor of node id.
func (m *Memory) Node(id hw.NodeID) hw.MemNode {
	st, ok := m.nodes[id]
	if !ok {
		panic(fmt.Sprintf("phys: unknown node %d", id))
	}
	return st.desc
}

// NodeStats returns a snapshot of node id's allocation counters.
func (m *Memory) NodeStats(id hw.NodeID) Stats {
	s := *m.stats[id]
	s.Used = m.nodes[id].used
	return s
}

// Alloc allocates one frame of size bytes on the given node. The frame
// reads as zero (as anonymous pages do); a recycled one is cleared on
// first use, see Frame.Bytes.
func (m *Memory) Alloc(node hw.NodeID, size int64) (*Frame, error) {
	if size <= 0 {
		return nil, fmt.Errorf("phys: invalid frame size %d", size)
	}
	st, ok := m.nodes[node]
	if !ok {
		return nil, fmt.Errorf("phys: unknown node %d", node)
	}
	stats := m.stats[node]
	if fl := st.free[size]; len(fl) > 0 {
		f := fl[len(fl)-1]
		st.free[size] = fl[:len(fl)-1]
		f.freed = false
		f.RefCount = 0
		f.FileBacked = false
		f.stale = true
		st.used += size
		stats.Allocs++
		return f, nil
	}
	if st.used+size > st.desc.Capacity {
		stats.Failures++
		return nil, fmt.Errorf("%w %d (%s): need %d, used %d of %d",
			ErrNoMemory, node, st.desc.Name, size, st.used, st.desc.Capacity)
	}
	f := &Frame{
		ID:   FrameID(len(m.frames)),
		Node: node,
		Addr: st.nextAddr,
		Size: size,
		mem:  m,
	}
	if !m.dataless {
		f.data = make([]byte, size)
	}
	st.nextAddr += size
	st.used += size
	m.frames = append(m.frames, f)
	stats.Allocs++
	return f, nil
}

// Free returns a frame to its node. Freeing a mapped, pinned, or already
// freed frame is a bug in the caller and panics, the way the kernel would
// BUG_ON it.
func (m *Memory) Free(f *Frame) {
	if f.freed {
		panic(fmt.Sprintf("phys: double free of %v", f))
	}
	if f.RefCount != 0 {
		panic(fmt.Sprintf("phys: freeing mapped %v (refcount %d)", f, f.RefCount))
	}
	if f.pins > 0 {
		panic(fmt.Sprintf("phys: freeing pinned %v (%d pins)", f, f.pins))
	}
	if f.FileBacked {
		panic(fmt.Sprintf("phys: freeing page-cache-owned %v", f))
	}
	st := m.nodes[f.Node]
	f.freed = true
	st.used -= f.Size
	st.free[f.Size] = append(st.free[f.Size], f)
	m.stats[f.Node].Frees++
}

// Release gives up the owner's claim on an unmapped frame: it is freed
// now or, while DMA transfers still pin it, by the last Unpin. Skipping
// the free of a pinned frame instead would leak it — nobody else holds a
// reference once the owner has moved on.
func (m *Memory) Release(f *Frame) {
	if f.pins > 0 {
		f.freeOnUnpin = true
		return
	}
	m.Free(f)
}

// Lookup resolves a FrameID, validating it the way the memif driver
// validates request indices before use (Section 4.2).
func (m *Memory) Lookup(id FrameID) (*Frame, bool) {
	if id == NoFrame || int(id) >= len(m.frames) || m.frames[id].freed {
		return nil, false
	}
	return m.frames[id], true
}

// Copy moves n bytes of real data between frames (the simulator's stand-in
// for what the CPU memcpy or the DMA engine does physically). Virtual-time
// cost is charged by the caller. In dataless mode it is a no-op. A stale
// destination is cleared first unless the copy overwrites it whole; the
// source bytes are taken before that, so a stale frame copied onto itself
// still reads as zero.
func Copy(dst, src *Frame, n int64) {
	if n > src.Size || n > dst.Size {
		panic(fmt.Sprintf("phys: copy %d bytes exceeds frames %v -> %v", n, src, dst))
	}
	if dst.data == nil || src.data == nil {
		return
	}
	from := src.Bytes()[:n]
	if n == dst.Size {
		dst.stale = false
	}
	copy(dst.Bytes()[:n], from)
}

// Used reports bytes currently allocated on node id.
func (m *Memory) Used(id hw.NodeID) int64 { return m.nodes[id].used }

// Avail reports bytes currently free on node id.
func (m *Memory) Avail(id hw.NodeID) int64 {
	st := m.nodes[id]
	return st.desc.Capacity - st.used
}
