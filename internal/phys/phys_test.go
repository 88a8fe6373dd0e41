package phys

import (
	"bytes"
	"errors"
	"testing"
	"testing/quick"

	"memif/internal/hw"
)

func newMem() *Memory { return New(hw.KeyStoneII()) }

func TestAllocBasics(t *testing.T) {
	m := newMem()
	f, err := m.Alloc(hw.NodeFast, 4096)
	if err != nil {
		t.Fatalf("Alloc: %v", err)
	}
	if f.Node != hw.NodeFast || f.Size != 4096 || len(f.Bytes()) != 4096 {
		t.Errorf("frame = %+v", f)
	}
	if m.Used(hw.NodeFast) != 4096 {
		t.Errorf("Used = %d, want 4096", m.Used(hw.NodeFast))
	}
	m.Free(f)
	if m.Used(hw.NodeFast) != 0 {
		t.Errorf("Used after free = %d, want 0", m.Used(hw.NodeFast))
	}
}

func TestAllocZeroesRecycledFrame(t *testing.T) {
	m := newMem()
	f, _ := m.Alloc(hw.NodeFast, 4096)
	f.MutableBytes()[100] = 0xAB
	m.Free(f)
	g, _ := m.Alloc(hw.NodeFast, 4096)
	if g != f {
		t.Fatalf("expected frame recycling, got new frame %v", g)
	}
	if g.Bytes()[100] != 0 {
		t.Error("recycled frame not zeroed")
	}

	// The clear is deferred to first use (Frame.Bytes, MutableBytes) and
	// skipped only by a Copy that overwrites the whole frame. Every way of
	// reaching a recycled frame's bytes must still see zeros where nothing
	// was written since Alloc.
	recycled := func() *Frame {
		t.Helper()
		f, _ := m.Alloc(hw.NodeFast, 4096)
		for i := range f.MutableBytes() {
			f.MutableBytes()[i] = 0xAB
		}
		m.Free(f)
		g, _ := m.Alloc(hw.NodeFast, 4096)
		if g != f {
			t.Fatalf("expected frame recycling, got new frame %v", g)
		}
		return g
	}
	src, _ := m.Alloc(hw.NodeSlow, 4096)
	for i := range src.MutableBytes() {
		src.MutableBytes()[i] = byte(i*7 + 1)
	}

	whole := recycled()
	Copy(whole, src, 4096)
	if !bytes.Equal(whole.Bytes(), src.Bytes()) {
		t.Error("recycled frame after whole-frame Copy differs from the source")
	}
	m.Free(whole)

	part := recycled()
	Copy(part, src, 1000)
	if !bytes.Equal(part.Bytes()[:1000], src.Bytes()[:1000]) {
		t.Error("recycled frame after partial Copy differs from the source below n")
	}
	if !bytes.Equal(part.Bytes()[1000:], make([]byte, 4096-1000)) {
		t.Error("recycled frame after partial Copy does not read zero past n")
	}
	m.Free(part)

	from := recycled()
	dst, _ := m.Alloc(hw.NodeSlow, 4096)
	dst.MutableBytes()[7] = 0xCD
	Copy(dst, from, 4096)
	if !bytes.Equal(dst.Bytes(), make([]byte, 4096)) {
		t.Error("Copy from a recycled frame did not write zeros")
	}
	m.Free(from)

	self := recycled()
	Copy(self, self, 4096)
	if !bytes.Equal(self.Bytes(), make([]byte, 4096)) {
		t.Error("self-copy of a recycled frame does not read zero")
	}
}

func TestAllocExhaustsFastNode(t *testing.T) {
	m := newMem()
	// Fast node is 6 MB; 2 MB frames fit 3 times.
	var frames []*Frame
	for i := 0; i < 3; i++ {
		f, err := m.Alloc(hw.NodeFast, hw.Page2M)
		if err != nil {
			t.Fatalf("Alloc %d: %v", i, err)
		}
		frames = append(frames, f)
	}
	if _, err := m.Alloc(hw.NodeFast, hw.Page2M); !errors.Is(err, ErrNoMemory) {
		t.Errorf("4th 2MB alloc: err = %v, want ErrNoMemory", err)
	}
	st := m.NodeStats(hw.NodeFast)
	if st.Failures != 1 || st.Allocs != 3 {
		t.Errorf("stats = %+v", st)
	}
	for _, f := range frames {
		m.Free(f)
	}
	if _, err := m.Alloc(hw.NodeFast, hw.Page2M); err != nil {
		t.Errorf("alloc after frees: %v", err)
	}
}

func TestNodeAddressRangesDisjoint(t *testing.T) {
	m := newMem()
	a, _ := m.Alloc(hw.NodeSlow, 4096)
	b, _ := m.Alloc(hw.NodeFast, 4096)
	if a.Addr == b.Addr {
		t.Error("frames on different nodes share a physical address")
	}
	// SRAM-style low base: slow node (declared first) gets the low base.
	if a.Addr >= b.Addr {
		t.Errorf("expected node0 base (%#x) below node1 base (%#x)", a.Addr, b.Addr)
	}
}

func TestDoubleFreePanics(t *testing.T) {
	m := newMem()
	f, _ := m.Alloc(hw.NodeFast, 4096)
	m.Free(f)
	defer func() {
		if recover() == nil {
			t.Error("double free did not panic")
		}
	}()
	m.Free(f)
}

func TestFreeMappedPanics(t *testing.T) {
	m := newMem()
	f, _ := m.Alloc(hw.NodeFast, 4096)
	f.RefCount = 1
	defer func() {
		if recover() == nil {
			t.Error("freeing mapped frame did not panic")
		}
	}()
	m.Free(f)
}

func TestFreePinnedPanics(t *testing.T) {
	m := newMem()
	f, _ := m.Alloc(hw.NodeFast, 4096)
	f.Pin()
	defer func() {
		if recover() == nil {
			t.Error("freeing pinned frame did not panic")
		}
	}()
	m.Free(f)
}

// The pin is a count: transfers that share a frame each hold it, and a
// Release that finds the frame pinned is performed by the last Unpin —
// not skipped (a leak), not performed under a transfer still using it.
func TestPinCountDefersRelease(t *testing.T) {
	m := newMem()
	f, _ := m.Alloc(hw.NodeFast, 4096)
	f.Pin()
	f.Pin()
	m.Release(f)
	f.Unpin()
	if !f.Pinned() || m.Used(hw.NodeFast) != 4096 {
		t.Fatalf("freed under the second pin: pinned=%v used=%d", f.Pinned(), m.Used(hw.NodeFast))
	}
	if _, ok := m.Lookup(f.ID); !ok {
		t.Error("frame under a pin is no longer live")
	}
	f.Unpin()
	if f.Pinned() || m.Used(hw.NodeFast) != 0 {
		t.Errorf("last unpin did not free: pinned=%v used=%d", f.Pinned(), m.Used(hw.NodeFast))
	}
	// Unpinned frames are released on the spot, and a pin without a
	// Release frees nothing.
	g, _ := m.Alloc(hw.NodeFast, 4096)
	g.Pin()
	g.Unpin()
	if m.Used(hw.NodeFast) != 4096 {
		t.Error("unpin freed a frame nobody released")
	}
	m.Release(g)
	if m.Used(hw.NodeFast) != 0 {
		t.Error("Release of an unpinned frame did not free it")
	}
}

func TestPinMisusePanics(t *testing.T) {
	m := newMem()
	f, _ := m.Alloc(hw.NodeFast, 4096)
	mustPanic := func(what string, fn func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s did not panic", what)
			}
		}()
		fn()
	}
	mustPanic("unpinning an unpinned frame", f.Unpin)
	m.Free(f)
	mustPanic("pinning a freed frame", f.Pin)
}

func TestLookupValidation(t *testing.T) {
	m := newMem()
	f, _ := m.Alloc(hw.NodeFast, 4096)
	if got, ok := m.Lookup(f.ID); !ok || got != f {
		t.Error("Lookup of live frame failed")
	}
	m.Free(f)
	if _, ok := m.Lookup(f.ID); ok {
		t.Error("Lookup of freed frame succeeded")
	}
	if _, ok := m.Lookup(FrameID(9999)); ok {
		t.Error("Lookup of bogus ID succeeded")
	}
	if _, ok := m.Lookup(f.ID + 1); ok {
		t.Error("Lookup of the first ID past the end of the registry succeeded")
	}
	if _, ok := m.Lookup(NoFrame); ok {
		t.Error("Lookup of NoFrame succeeded")
	}
}

func TestCopyMovesBytes(t *testing.T) {
	m := newMem()
	src, _ := m.Alloc(hw.NodeSlow, 4096)
	dst, _ := m.Alloc(hw.NodeFast, 4096)
	for i := range src.MutableBytes() {
		src.MutableBytes()[i] = byte(i * 7)
	}
	Copy(dst, src, 4096)
	for i := range dst.Bytes() {
		if dst.Bytes()[i] != byte(i*7) {
			t.Fatalf("byte %d = %d, want %d", i, dst.Bytes()[i], byte(i*7))
		}
	}
}

func TestCopyOverrunPanics(t *testing.T) {
	m := newMem()
	src, _ := m.Alloc(hw.NodeSlow, 4096)
	dst, _ := m.Alloc(hw.NodeFast, 2048)
	defer func() {
		if recover() == nil {
			t.Error("oversized copy did not panic")
		}
	}()
	Copy(dst, src, 4096)
}

func TestInvalidAllocs(t *testing.T) {
	m := newMem()
	if _, err := m.Alloc(hw.NodeFast, 0); err == nil {
		t.Error("zero-size alloc succeeded")
	}
	if _, err := m.Alloc(hw.NodeFast, -4096); err == nil {
		t.Error("negative-size alloc succeeded")
	}
	if _, err := m.Alloc(hw.NodeID(42), 4096); err == nil {
		t.Error("alloc on unknown node succeeded")
	}
}

// Property: used bytes always equals the sum of live frame sizes, and
// addresses of live frames never overlap.
func TestAllocFreeAccounting(t *testing.T) {
	prop := func(ops []uint8) bool {
		m := newMem()
		var live []*Frame
		var want int64
		for _, op := range ops {
			if op%3 != 0 && len(live) > 0 { // free
				i := int(op) % len(live)
				f := live[i]
				live = append(live[:i], live[i+1:]...)
				want -= f.Size
				m.Free(f)
				continue
			}
			size := int64(4096) * (1 + int64(op%4))
			f, err := m.Alloc(hw.NodeFast, size)
			if err != nil {
				continue // node full: fine
			}
			live = append(live, f)
			want += size
		}
		if m.Used(hw.NodeFast) != want {
			return false
		}
		// Overlap check.
		for i, a := range live {
			for _, b := range live[i+1:] {
				if a.Addr < b.Addr+b.Size && b.Addr < a.Addr+a.Size {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}
