// Package phys models physical memory: frames with real backing bytes,
// page descriptors, and a per-node allocator over the platform's
// heterogeneous memory nodes (the pseudo-NUMA abstraction of Section 1).
//
// Frames carry actual data so that replication and migration can be
// verified byte-for-byte. The host moves as few of those bytes as it can,
// because moving them is what the simulated DMA engine is for:
//
//   - Frames share bytes until written. A frame's bytes live in a buffer
//     that several frames can hold. A Copy of one whole frame onto another
//     makes the destination hold the source's buffer instead of copying
//     it. Copy runs at one instant, so that is the same snapshot an eager
//     copy takes. The first write to a shared frame goes through
//     Frame.MutableBytes, which gives the writer a private copy; the other
//     holders keep the bytes they had. Frame.Bytes is the read accessor
//     and never unshares.
//   - A frame without a buffer reads as zero. Frames are created without
//     one, and Free drops the frame's buffer, so a recycled frame never
//     holds its previous owner's bytes, nor anyone else's. A frame gets
//     its buffer, cleared, on first use; one that a whole-frame Copy
//     overwrites is never cleared. The kernel zeroes an anonymous page
//     when it hands it out; we zero it when someone can first see it.
//   - Buffers are pooled and carved from slabs. A buffer that no frame
//     holds goes to a per-size free list of its Memory, and a frame that
//     needs a buffer takes one from there first, else from its size's
//     current slab: one allocation for many small frames, the way struct
//     page sits in one mem_map. Slabs double from one frame up to
//     slabBytes (2 MiB); a frame above smallFrame (32 KiB) gets a slab of
//     one. Buffers never outnumber the frames ever allocated, and a slab's
//     uncarved rest never outnumbers the buffers carved before it: the
//     host holds at most twice the bytes an eager copy would.
//
// In dataless mode (DisableData) there are no buffers at all. None of this
// carries a virtual cost: bytes are invisible to virtual time.
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

	buf *buffer // backing bytes, possibly shared; nil: reads as zero

	// Page-descriptor state.
	RefCount    int  // mappings referencing the frame
	FileBacked  bool // owned by a file's page cache (vm.File)
	pins        int  // in-flight DMA transfers reading or writing the frame
	freeOnUnpin bool // Release found the frame pinned: the last Unpin frees it
	freed       bool
	mem         *Memory
}

// buffer is the backing bytes of one or more frames.
type buffer struct {
	b      []byte
	shares int // frames holding the buffer; 0 while it is pooled
}

// Bytes returns the frame's bytes for reading, nil in dataless mode. Other
// frames may share them: write through MutableBytes, never through this
// slice. A frame without bytes yet gets a cleared buffer here.
func (f *Frame) Bytes() []byte {
	if f.mem.dataless {
		return nil
	}
	if f.buf == nil {
		f.buf = f.mem.zeroed(f.Size)
	}
	return f.buf.b
}

// MutableBytes returns the frame's bytes for writing, nil in dataless
// mode. A shared frame is unshared first: it gets a private copy, and the
// frames it shared with keep the bytes they had.
func (f *Frame) MutableBytes() []byte {
	switch {
	case f.mem.dataless:
		return nil
	case f.buf == nil:
		f.buf = f.mem.zeroed(f.Size)
	case f.buf.shares > 1:
		shared := f.buf
		shared.shares--
		f.buf, _ = f.mem.take(f.Size)
		copy(f.buf.b, shared.b)
	}
	return f.buf.b
}

// drop lets go of the frame's buffer; the last holder pools it.
func (f *Frame) drop() {
	b := f.buf
	if b == nil {
		return
	}
	f.buf = nil
	b.shares--
	if b.shares == 0 {
		f.mem.bufs[f.Size].pool = append(f.mem.bufs[f.Size].pool, b)
	}
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
	stats    Stats
}

// Stats are allocation counters for one node.
type Stats struct {
	Allocs, Frees, Failures int64
	Used, Capacity          int64
}

// Memory is the machine's physical memory: all nodes plus the frame
// registry.
type Memory struct {
	nodes    []*nodeState // indexed by hw.NodeID; nil where the platform has none
	frames   []*Frame     // indexed by FrameID; IDs are dense and never reused
	bufs     map[int64]*bufSize
	dataless bool
}

// slabBytes caps the slabs frame buffers are carved from. Only frames of
// at most smallFrame, Go's largest small object, share one: a larger
// buffer gets a span of its own anyway, and a shared slab adds a reserve.
const slabBytes, smallFrame = 2 << 20, 32 << 10

// bufSize is the buffers of one frame size: those no frame holds, and
// those of the current slab not yet handed out.
type bufSize struct {
	pool   []*buffer // held by no frame; they keep their last owner's bytes
	spare  []buffer  // the current slab's buffers never handed out: zero
	carved int64     // buffers ever handed out of a slab
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
		frames: []*Frame{NoFrame: nil},
		bufs:   make(map[int64]*bufSize),
	}
	base := int64(0x0C00_0000) // SRAM-like low base
	for _, n := range plat.Nodes {
		for int(n.ID) >= len(m.nodes) {
			m.nodes = append(m.nodes, nil)
		}
		m.nodes[n.ID] = &nodeState{
			desc: n, nextAddr: base, free: make(map[int64][]*Frame),
			stats: Stats{Capacity: n.Capacity},
		}
		base += n.Capacity
		if rem := base % (1 << 30); rem != 0 { // align next node's base
			base += (1 << 30) - rem
		}
		base += 1 << 30 // guard gap between nodes
	}
	return m
}

// node returns node id's state, nil if the platform has no such node.
func (m *Memory) node(id hw.NodeID) *nodeState {
	if id < 0 || int(id) >= len(m.nodes) {
		return nil
	}
	return m.nodes[id]
}

// Node returns the descriptor of node id.
func (m *Memory) Node(id hw.NodeID) hw.MemNode {
	st := m.node(id)
	if st == nil {
		panic(fmt.Sprintf("phys: unknown node %d", id))
	}
	return st.desc
}

// Alloc allocates one frame of size bytes on the given node. The frame
// has no bytes yet and reads as zero (as anonymous pages do); it gets a
// cleared buffer on first use, see Frame.Bytes.
func (m *Memory) Alloc(node hw.NodeID, size int64) (*Frame, error) {
	if size <= 0 {
		return nil, fmt.Errorf("phys: invalid frame size %d", size)
	}
	st := m.node(node)
	if st == nil {
		return nil, fmt.Errorf("phys: unknown node %d", node)
	}
	if fl := st.free[size]; len(fl) > 0 {
		f := fl[len(fl)-1]
		st.free[size] = fl[:len(fl)-1]
		f.freed = false
		f.RefCount = 0
		f.FileBacked = false
		st.used += size
		st.stats.Allocs++
		return f, nil
	}
	if st.used+size > st.desc.Capacity {
		st.stats.Failures++
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
	st.nextAddr += size
	st.used += size
	m.frames = append(m.frames, f)
	st.stats.Allocs++
	return f, nil
}

// take hands out a buffer of size bytes with one share: a pooled one,
// holding whatever its last owner left in it, or, with the pool empty, one
// carved from the current slab, which is zeroed (fresh). A used-up slab is
// followed by one of as many as were carved so far, within slabBytes, or
// of one for a frame above smallFrame.
func (m *Memory) take(size int64) (b *buffer, fresh bool) {
	bs := m.bufs[size]
	if bs == nil {
		bs = &bufSize{}
		m.bufs[size] = bs
	}
	if l := bs.pool; len(l) > 0 {
		b = l[len(l)-1]
		bs.pool = l[:len(l)-1]
		b.shares = 1
		return b, false
	}
	if len(bs.spare) == 0 {
		n := int64(1)
		if size <= smallFrame {
			n = min(max(1, bs.carved), slabBytes/size)
		}
		slab := make([]byte, n*size)
		bs.spare = make([]buffer, n)
		for i := range bs.spare {
			bs.spare[i].b, slab = slab[:size:size], slab[size:]
		}
	}
	b = &bs.spare[0]
	bs.spare = bs.spare[1:]
	bs.carved++
	b.shares = 1
	return b, true
}

// zeroed hands out a cleared buffer of size bytes with one share.
func (m *Memory) zeroed(size int64) *buffer {
	b, fresh := m.take(size)
	if !fresh {
		clear(b.b)
	}
	return b
}

// Free returns a frame to its node and drops its bytes: a buffer it
// shared stays with the other holders, a private one is pooled. Freeing a
// mapped, pinned, or already freed frame is a bug in the caller and
// panics, the way the kernel would BUG_ON it.
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
	f.drop()
	st.used -= f.Size
	st.free[f.Size] = append(st.free[f.Size], f)
	st.stats.Frees++
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
// cost is charged by the caller. In dataless mode it is a no-op.
//
// A copy of one whole frame onto another of its size shares the bytes
// instead: the destination drops its own and holds the source's buffer,
// and the first write to either unshares that one (see the package
// comment). A partial copy moves the bytes, taking them from the source
// before the destination is made writable, so a frame without bytes
// copied onto itself still reads as zero.
func Copy(dst, src *Frame, n int64) {
	if n > src.Size || n > dst.Size {
		panic(fmt.Sprintf("phys: copy %d bytes exceeds frames %v -> %v", n, src, dst))
	}
	if src.mem.dataless {
		return
	}
	if n == src.Size && n == dst.Size {
		if dst.buf != src.buf {
			dst.drop()
			dst.buf = src.buf
			if dst.buf != nil {
				dst.buf.shares++
			}
		}
		return
	}
	from := src.Bytes()[:n]
	copy(dst.MutableBytes()[:n], from)
}

// Used reports bytes currently allocated on node id.
func (m *Memory) Used(id hw.NodeID) int64 { return m.nodes[id].used }
