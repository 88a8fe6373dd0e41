package phys

import (
	"bytes"
	"math/rand"
	"runtime"
	"testing"

	"memif/internal/hw"
)

// Frames share until written (the package comment): named cases first,
// then a seeded property test against a model that copies eagerly. Every
// test ends on the buffer-ledger audit of export_test.go.

// pattern is size bytes derived from seed.
func pattern(size int64, seed byte) []byte {
	b := make([]byte, size)
	for i := range b {
		b[i] = seed + byte(i*13)
	}
	return b
}

// written allocates a frame of size bytes on node holding pattern(size, seed).
func written(t *testing.T, m *Memory, node hw.NodeID, size int64, seed byte) *Frame {
	t.Helper()
	f, err := m.Alloc(node, size)
	if err != nil {
		t.Fatal(err)
	}
	copy(f.MutableBytes(), pattern(size, seed))
	return f
}

func mustAudit(t *testing.T, m *Memory) {
	t.Helper()
	if err := m.audit(); err != nil {
		t.Fatal(err)
	}
}

func TestCopyWholeFrameShares(t *testing.T) {
	m := newMem()
	src := written(t, m, hw.NodeSlow, 4096, 1)
	dst, _ := m.Alloc(hw.NodeFast, 4096)
	Copy(dst, src, 4096)
	if dst.buf != src.buf || src.buf.shares != 2 {
		t.Fatalf("whole-frame copy did not share: dst %p src %p", dst.buf, src.buf)
	}
	// Reading either side leaves the share in place.
	if !bytes.Equal(dst.Bytes(), pattern(4096, 1)) || !bytes.Equal(src.Bytes(), pattern(4096, 1)) {
		t.Error("shared frames do not read the source's bytes")
	}
	if dst.buf != src.buf {
		t.Error("a read unshared the frames")
	}
	// Copying again between the same pair changes nothing.
	Copy(dst, src, 4096)
	Copy(src, dst, 4096)
	if dst.buf != src.buf || src.buf.shares != 2 {
		t.Errorf("recopy moved the share: count %d", src.buf.shares)
	}
	mustAudit(t, m)
}

func TestWriteUnsharesOnlyTheWriter(t *testing.T) {
	for _, side := range []string{"destination", "source"} {
		t.Run(side, func(t *testing.T) {
			m := newMem()
			src := written(t, m, hw.NodeSlow, 4096, 2)
			dst, _ := m.Alloc(hw.NodeFast, 4096)
			Copy(dst, src, 4096)
			shared := src.buf
			w, other := dst, src
			if side == "source" {
				w, other = src, dst
			}
			w.MutableBytes()[5] ^= 0xFF
			if w.buf == shared || other.buf != shared || shared.shares != 1 {
				t.Fatalf("after the write: writer %p, other %p, shared %p with count %d",
					w.buf, other.buf, shared, shared.shares)
			}
			want := pattern(4096, 2)
			if !bytes.Equal(other.Bytes(), want) {
				t.Error("the write reached the frame that did not write")
			}
			want[5] ^= 0xFF
			if !bytes.Equal(w.Bytes(), want) {
				t.Error("the writer lost its write or the bytes it shared")
			}
			// A private buffer is written in place.
			own := w.buf
			w.MutableBytes()[6] = 0
			if w.buf != own {
				t.Error("a write to a private frame replaced its buffer")
			}
			mustAudit(t, m)
		})
	}
}

func TestPartialCopyIsEager(t *testing.T) {
	for _, c := range []struct {
		name             string
		srcSize, dstSize int64
		n                int64
	}{
		{"prefix", 4096, 4096, 1000},
		{"into a larger frame", 4096, 8192, 4096},
		{"from a larger frame", 8192, 4096, 4096},
	} {
		t.Run(c.name, func(t *testing.T) {
			m := newMem()
			src := written(t, m, hw.NodeSlow, c.srcSize, 3)
			dst, _ := m.Alloc(hw.NodeFast, c.dstSize)
			Copy(dst, src, c.n)
			if dst.buf == src.buf || src.buf.shares != 1 || dst.buf.shares != 1 {
				t.Fatal("a partial copy shared the buffer")
			}
			want := make([]byte, c.dstSize)
			copy(want, pattern(c.srcSize, 3)[:c.n])
			src.MutableBytes()[0] ^= 0xFF
			if !bytes.Equal(dst.Bytes(), want) {
				t.Error("destination is not the copied prefix over zeros, or saw a later write")
			}
			mustAudit(t, m)
		})
	}
}

// A frame that comes back from the free list has no bytes; copied onto
// itself, whole or in part, it still reads as zero.
func TestStaleSelfCopyReadsZero(t *testing.T) {
	m := newMem()
	for _, n := range []int64{4096, 1000} {
		f := written(t, m, hw.NodeFast, 4096, 4)
		m.Free(f)
		g, _ := m.Alloc(hw.NodeFast, 4096)
		if g != f {
			t.Fatalf("expected frame recycling, got new frame %v", g)
		}
		Copy(g, g, n)
		if !bytes.Equal(g.Bytes(), make([]byte, 4096)) {
			t.Errorf("self-copy of %d bytes of a recycled frame does not read zero", n)
		}
		m.Free(g)
	}
	mustAudit(t, m)
}

// The one way to corrupt a migrated page. A migration shares the source's
// buffer with the destination and then frees the source. Were the freed
// frame to keep the buffer, its next owner would read the migrated bytes
// and its first write would land in them, unless that write unshared:
// Free drops the share, so the recycled frame reads zero and writes alone.
func TestFreeSharedFrameKeepsTheOtherSide(t *testing.T) {
	for _, how := range []string{"free", "release", "release pinned"} {
		t.Run(how, func(t *testing.T) {
			m := newMem()
			src := written(t, m, hw.NodeSlow, 4096, 5)
			dst, _ := m.Alloc(hw.NodeFast, 4096)
			Copy(dst, src, 4096)
			switch how {
			case "free":
				m.Free(src)
			case "release":
				m.Release(src)
			case "release pinned":
				src.Pin()
				m.Release(src)
				if src.buf != dst.buf {
					t.Fatal("a pinned frame lost its bytes at Release")
				}
				src.Unpin()
			}
			if src.buf != nil || dst.buf.shares != 1 {
				t.Fatalf("freed frame still holds %p; destination's count %d", src.buf, dst.buf.shares)
			}
			again, _ := m.Alloc(hw.NodeSlow, 4096)
			if again != src {
				t.Fatalf("expected frame recycling, got new frame %v", again)
			}
			if !bytes.Equal(again.Bytes(), make([]byte, 4096)) {
				t.Error("the recycled source reads the migrated bytes")
			}
			copy(again.MutableBytes(), pattern(4096, 6))
			Copy(again, dst, 100)
			if !bytes.Equal(dst.Bytes(), pattern(4096, 5)) {
				t.Error("writes to the recycled source reached the migrated page")
			}
			mustAudit(t, m)
		})
	}
}

func TestPoolReusesBuffers(t *testing.T) {
	m := newMem()
	// A private buffer is pooled when its frame is freed, and the next
	// frame that needs bytes takes it, cleared.
	a := written(t, m, hw.NodeSlow, 4096, 7)
	ab := a.buf
	m.Free(a)
	if m.pooled(4096) != 1 {
		t.Fatalf("pool holds %d buffers after a free, want 1", m.pooled(4096))
	}
	b, _ := m.Alloc(hw.NodeFast, 4096)
	if !bytes.Equal(b.Bytes(), make([]byte, 4096)) || b.buf != ab || m.pooled(4096) != 0 {
		t.Fatal("the pooled buffer was not reused, or not cleared")
	}
	// A destination gives its buffer up to share the source's, and the
	// next unshare takes that buffer back.
	src := written(t, m, hw.NodeSlow, 4096, 8)
	Copy(b, src, 4096)
	if m.pooled(4096) != 1 {
		t.Fatal("the destination's own buffer was not pooled")
	}
	src.MutableBytes()[0] = 0xAA
	if src.buf != ab || m.pooled(4096) != 0 {
		t.Fatal("unsharing did not take the pooled buffer")
	}
	// A replicate followed by a write to its source: no buffer is made.
	if n := testing.AllocsPerRun(100, func() {
		Copy(b, src, 4096)
		src.MutableBytes()[0]++
	}); n != 0 {
		t.Errorf("replicate + write allocates %.1f times per round", n)
	}
	// Sizes do not mix.
	m.Free(b)
	big, _ := m.Alloc(hw.NodeSlow, 8192)
	big.MutableBytes()
	if m.pooled(4096) != 1 || len(big.buf.b) != 8192 {
		t.Error("an 8 KiB frame took a 4 KiB buffer")
	}
	mustAudit(t, m)
}

// TestFirstUseAllocGate holds frame-buffer first use to what it
// allocates, counted in allocations (Mallocs), not time. Buffers are
// carved from slabs that double from one frame up to 2 MiB, each slab one
// allocation for the bytes and one for the headers: 4,096 fresh 4 KiB
// frames take 17 slabs, 34 allocations. A buffer allocated per frame
// again costs 4,096 or more and fails here.
func TestFirstUseAllocGate(t *testing.T) {
	const frames, budget = 4096, 40
	m := newMem()
	fs := make([]*Frame, frames)
	for i := range fs {
		f, err := m.Alloc(hw.NodeSlow, hw.Page4K)
		if err != nil {
			t.Fatal(err)
		}
		fs[i] = f
	}
	// A collection first: the first one in a process starts its mark
	// workers, and each is an allocation that would count here.
	runtime.GC()
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i, f := range fs {
		b := f.MutableBytes()
		b[0], b[len(b)-1] = byte(i), byte(i>>8)
	}
	runtime.ReadMemStats(&after)
	allocs := after.Mallocs - before.Mallocs
	t.Logf("%d allocations for %d fresh %d-byte frames", allocs, frames, hw.Page4K)
	if allocs > budget {
		t.Errorf("%d allocations for %d fresh frames, budget %d", allocs, frames, budget)
	}
	for i, f := range fs {
		if b := f.Bytes(); b[0] != byte(i) || b[len(b)-1] != byte(i>>8) {
			t.Fatalf("%v lost its write: a neighbour's bytes overlap it", f)
		}
	}
	mustAudit(t, m)
}

// A frame above smallFrame gets a slab of one, so a size that only ever
// needs a few more buffers is never given a reserve it does not use.
func TestLargeFramesKeepNoReserve(t *testing.T) {
	m := newMem()
	for i := 0; i < 4; i++ {
		written(t, m, hw.NodeSlow, hw.Page64K, byte(i))
		if n := len(m.bufs[hw.Page64K].spare); n != 0 {
			t.Fatalf("after %d fresh 64 KiB frames the slab keeps %d in reserve", i+1, n)
		}
	}
	mustAudit(t, m)
}

func TestDatalessIsNoop(t *testing.T) {
	m := newMem()
	m.DisableData()
	a, _ := m.Alloc(hw.NodeSlow, 4096)
	b, _ := m.Alloc(hw.NodeFast, 4096)
	if a.Bytes() != nil || a.MutableBytes() != nil {
		t.Error("a dataless frame has bytes")
	}
	Copy(b, a, 4096)
	Copy(b, a, 100)
	m.Free(a)
	if a.buf != nil || b.buf != nil || len(m.bufs) != 0 {
		t.Error("dataless mode made a buffer")
	}
	mustAudit(t, m)
}

// TestCopyOnWriteMatchesEagerModel runs seeded random Alloc, Free,
// Release (of pinned frames too), whole, partial and self Copy, and
// writes, against a model in which every frame owns its bytes and Copy
// moves them. Every read must equal the model byte for byte, and the
// buffer ledger must audit clean after every step. A failure names its
// seed and step.
func TestCopyOnWriteMatchesEagerModel(t *testing.T) {
	seeds, steps := 300, 400
	if testing.Short() {
		seeds = 50
	}
	sizes := []int64{4096, 8192}
	for seed := int64(1); seed <= int64(seeds); seed++ {
		rng := rand.New(rand.NewSource(seed))
		m := newMem()
		model := make(map[*Frame][]byte) // every frame not yet freed: its eager contents
		var live []*Frame                // frames an owner holds
		var released []*Frame            // released while pinned: freed by the unpin
		take := func(l *[]*Frame) *Frame {
			i := rng.Intn(len(*l))
			f := (*l)[i]
			(*l)[i] = (*l)[len(*l)-1]
			*l = (*l)[:len(*l)-1]
			return f
		}
		for step := 0; step < steps; step++ {
			fail := func(format string, args ...any) {
				t.Helper()
				t.Fatalf("seed %d step %d: "+format, append([]any{seed, step}, args...)...)
			}
			switch op := rng.Intn(12); {
			case op == 0 || len(live) < 2:
				size := sizes[rng.Intn(len(sizes))]
				f, err := m.Alloc(hw.NodeID(rng.Intn(2)), size)
				if err != nil {
					fail("alloc: %v", err)
				}
				live = append(live, f)
				model[f] = make([]byte, size)
			case op == 1:
				f := take(&live)
				m.Free(f)
				delete(model, f)
			case op == 2:
				f := take(&live)
				m.Release(f)
				delete(model, f)
			case op == 3:
				f := take(&live)
				f.Pin()
				m.Release(f)
				released = append(released, f)
			case op == 4 && len(released) > 0:
				f := take(&released)
				f.Unpin()
				delete(model, f)
			case op <= 7:
				dst, src := live[rng.Intn(len(live))], live[rng.Intn(len(live))]
				if rng.Intn(4) == 0 {
					src = dst
				}
				n := min(dst.Size, src.Size)
				if rng.Intn(3) == 0 {
					n = 1 + rng.Int63n(n)
				}
				Copy(dst, src, n)
				copy(model[dst][:n], model[src][:n])
			case op <= 9:
				f := live[rng.Intn(len(live))]
				off := rng.Int63n(f.Size)
				n := 1 + rng.Int63n(min(64, f.Size-off))
				data := f.MutableBytes()
				for i := off; i < off+n; i++ {
					v := byte(rng.Intn(256))
					data[i], model[f][i] = v, v
				}
			default:
				f := live[rng.Intn(len(live))]
				if len(released) > 0 && rng.Intn(2) == 0 {
					f = released[rng.Intn(len(released))]
				}
				if !bytes.Equal(f.Bytes(), model[f]) {
					fail("%v reads differently from the eager model", f)
				}
			}
			if err := m.audit(); err != nil {
				fail("%v", err)
			}
		}
		for f, want := range model {
			if !bytes.Equal(f.Bytes(), want) {
				t.Fatalf("seed %d, end: %v reads differently from the eager model", seed, f)
			}
		}
	}
}
