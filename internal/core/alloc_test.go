package core

import (
	"encoding/binary"
	"runtime"
	"testing"

	"memif/internal/hw"
	"memif/internal/machine"
	"memif/internal/sim"
	"memif/internal/uapi"
)

// moveLoop is a closed loop shaped like one phase of the sim_move
// benchmark: one Foreground request in flight per region, each a migration that
// flips its region between the nodes or a replication onto the region's
// twin, and the source stamped before every request.
type moveLoop struct {
	d     *Device
	op    uapi.Op
	n     int64
	src   []int64
	dst   []int64     // replication targets
	loc   []hw.NodeID // where each source lives
	stamp uint64
}

// newMoveLoop opens a device on a machine whose fast node holds every
// region, as the benchmark's platform does, for regions requests of pages
// pages of pageBytes each.
func newMoveLoop(op uapi.Op, regions, pages int, pageBytes int64) (*machine.Machine, *moveLoop) {
	plat := hw.KeyStoneII()
	plat.Nodes[hw.NodeFast].Capacity = 2 << 30
	m := machine.New(plat)
	l := &moveLoop{
		d:  Open(m, m.NewAddressSpace(pageBytes), DefaultOptions()),
		op: op, n: int64(pages) * pageBytes,
		loc: make([]hw.NodeID, regions),
	}
	return m, l
}

// mmap maps and fills the sources, and the replication targets.
func (l *moveLoop) mmap(tb testing.TB, p *sim.Proc) {
	tb.Helper()
	fill := make([]byte, l.n)
	for i := range fill {
		fill[i] = byte(i)
	}
	for range l.loc {
		src, err := l.d.AS.Mmap(p, l.n, hw.NodeSlow, "src")
		if err != nil {
			tb.Fatal(err)
		}
		if err := l.d.AS.Write(p, src, fill); err != nil {
			tb.Fatal(err)
		}
		l.src = append(l.src, src)
		if l.op == uapi.OpReplicate {
			dst, err := l.d.AS.Mmap(p, l.n, hw.NodeFast, "dst")
			if err != nil {
				tb.Fatal(err)
			}
			l.dst = append(l.dst, dst)
		}
	}
}

// submit stamps region i's source and submits its next request.
func (l *moveLoop) submit(tb testing.TB, p *sim.Proc, i int) {
	tb.Helper()
	l.stamp++
	var word [8]byte
	binary.LittleEndian.PutUint64(word[:], l.stamp)
	if err := l.d.AS.Write(p, l.src[i], word[:]); err != nil {
		tb.Fatal(err)
	}
	r := l.d.AllocRequest(p)
	r.Op, r.SrcBase, r.Length, r.Class, r.Cookie = l.op, l.src[i], l.n, uapi.ClassForeground, uint64(i)
	if l.op == uapi.OpReplicate {
		r.DstBase, r.DstNode = l.dst[i], hw.NodeFast
	} else {
		r.DstNode = hw.NodeFast
		if l.loc[i] == hw.NodeFast {
			r.DstNode = hw.NodeSlow
		}
		l.loc[i] = r.DstNode
	}
	if err := l.d.Submit(p, r); err != nil {
		tb.Fatal(err)
	}
}

// run completes reqs requests.
func (l *moveLoop) run(tb testing.TB, p *sim.Proc, reqs int) {
	tb.Helper()
	issued := 0
	for i := range l.src {
		if issued < reqs {
			l.submit(tb, p, i)
			issued++
		}
	}
	for done := 0; done < reqs; {
		if !l.d.Poll(p, 0) {
			tb.Fatal("poll gave up")
		}
		for r := l.d.RetrieveCompleted(p); r != nil; r = l.d.RetrieveCompleted(p) {
			if r.Status != uapi.StatusDone {
				tb.Fatalf("request failed: %v", r)
			}
			i := int(r.Cookie)
			l.d.FreeRequest(p, r)
			done++
			if issued < reqs {
				l.submit(tb, p, i)
				issued++
			}
		}
	}
}

// TestDataPathAllocGate holds the simulated data path to what it
// allocates in steady state, counted in bytes (TotalAlloc), not time. A
// whole-frame copy shares its bytes and a write unshares them (package
// phys), so a migration ping-pong and a replicate-then-stamp loop move
// megabytes per request without making a backing buffer: the buffers a
// frame gives away are pooled, and unsharing takes them back. Either
// loop making buffers instead costs at least one page — 64 KiB — per
// request and fails here.
func TestDataPathAllocGate(t *testing.T) {
	const budget = 64 << 10 // bytes per request
	for _, c := range []struct {
		name      string
		op        uapi.Op
		pages     int
		pageBytes int64
	}{
		{"migrate 2m1", uapi.OpMigrate, 1, hw.Page2M},
		{"replicate 64k4", uapi.OpReplicate, 4, hw.Page64K},
	} {
		t.Run(c.name, func(t *testing.T) {
			m, l := newMoveLoop(c.op, 4, c.pages, c.pageBytes)
			const warm, reqs = 32, 256
			var perReq uint64
			m.Eng.Spawn("app", func(p *sim.Proc) {
				defer l.d.Close()
				l.mmap(t, p)
				l.run(t, p, warm)
				var before, after runtime.MemStats
				runtime.ReadMemStats(&before)
				l.run(t, p, reqs)
				runtime.ReadMemStats(&after)
				perReq = (after.TotalAlloc - before.TotalAlloc) / reqs
			})
			m.Eng.Run()
			t.Logf("%d bytes allocated per request", perReq)
			if perReq >= budget {
				t.Errorf("%d bytes allocated per request, budget %d", perReq, budget)
			}
		})
	}
}

// TestMigrateAllocGate holds the migrate path to what it allocates per
// request in steady state, counted in allocations: the sim_move
// benchmark's 4k16 phase, a 16-page 4 KiB migration ping-pong with four in
// flight. Per page the driver moves a reverse mapping, builds the page's
// mapping list, checks the migration claim and charges phases, and none of
// that allocates; per request it reuses a recycled inflight record with
// its page, segment, sub-transfer and slot lists, recycled transfers and,
// for an interrupt, a pooled handler coroutine. Anything that allocates per
// request again fails here.
func TestMigrateAllocGate(t *testing.T) {
	const budget = 0 // allocations per request
	m, l := newMoveLoop(uapi.OpMigrate, 4, 16, hw.Page4K)
	const warm, reqs = 64, 1024
	var perReq uint64
	m.Eng.Spawn("app", func(p *sim.Proc) {
		defer l.d.Close()
		l.mmap(t, p)
		l.run(t, p, warm)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		l.run(t, p, reqs)
		runtime.ReadMemStats(&after)
		perReq = (after.Mallocs - before.Mallocs) / reqs
	})
	m.Eng.Run()
	t.Logf("%d allocations per request", perReq)
	if perReq > budget {
		t.Errorf("%d allocations per request, budget %d", perReq, budget)
	}
}

// backgroundFill submits one 512 KiB Background replicate of src onto dst
// and waits for it: the streaming runtime's fill, a train of eight
// channel quanta whose last completes by interrupt.
func backgroundFill(tb testing.TB, d *Device, p *sim.Proc, src, dst int64) {
	r := d.AllocRequest(p)
	r.Op, r.SrcBase, r.DstBase, r.Length, r.Class = uapi.OpReplicate, src, dst, fillBytes, uapi.ClassBackground
	if err := d.Submit(p, r); err != nil {
		tb.Fatal(err)
	}
	for d.RetrieveCompleted(p) == nil {
		d.Poll(p, 0)
	}
	if r.Status != uapi.StatusDone {
		tb.Fatalf("fill: %v", r)
	}
	d.FreeRequest(p, r)
}

const fillBytes = 512 << 10

// TestBackgroundFillAllocGate holds the interrupt-completed Background
// fill (backgroundFill, BenchmarkBackgroundFill's shape) to what it
// allocates per request in steady state, counted in allocations: its
// record, its eight transfers and its interrupt handler's coroutine are
// all reused, so the budget is 0. It checks that every fill raised its
// interrupt, so the handler path is the one measured.
func TestBackgroundFillAllocGate(t *testing.T) {
	const budget = 0 // allocations per request
	m := machine.New(hw.KeyStoneII())
	d := Open(m, m.NewAddressSpace(4096), DefaultOptions())
	const warm, reqs = 16, 512
	var perReq, irqs uint64
	m.Eng.Spawn("app", func(p *sim.Proc) {
		defer d.Close()
		src, _ := d.AS.Mmap(p, fillBytes, hw.NodeSlow, "src")
		dst, _ := d.AS.Mmap(p, fillBytes, hw.NodeFast, "dst")
		for i := 0; i < warm; i++ {
			backgroundFill(t, d, p, src, dst)
		}
		irq0 := d.M.DMA.Stats().IRQs
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < reqs; i++ {
			backgroundFill(t, d, p, src, dst)
		}
		runtime.ReadMemStats(&after)
		perReq = (after.Mallocs - before.Mallocs) / reqs
		irqs = uint64(d.M.DMA.Stats().IRQs - irq0)
	})
	m.Eng.Run()
	t.Logf("%d allocations per request", perReq)
	if irqs != reqs {
		t.Errorf("%d interrupts over %d fills: not the interrupt path", irqs, reqs)
	}
	if perReq > budget {
		t.Errorf("%d allocations per request, budget %d", perReq, budget)
	}
}
