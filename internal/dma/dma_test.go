package dma

import (
	"errors"
	"testing"

	"memif/internal/hw"
	"memif/internal/phys"
	"memif/internal/qos"
	"memif/internal/sim"
)

type rig struct {
	eng  *sim.Engine
	plat *hw.Platform
	mem  *phys.Memory
	dma  *Engine
}

func newRig() *rig {
	eng := sim.NewEngine()
	plat := hw.KeyStoneII()
	return &rig{eng: eng, plat: plat, mem: phys.New(plat), dma: New(eng, plat)}
}

func (r *rig) segs(t *testing.T, n int, bytes int64) []Segment {
	t.Helper()
	dstNode := hw.NodeFast
	if int64(n)*bytes > 2<<20 {
		dstNode = hw.NodeSlow // keep large test transfers within capacity
	}
	out := make([]Segment, n)
	for i := range out {
		src, err := r.mem.Alloc(hw.NodeSlow, bytes)
		if err != nil {
			t.Fatal(err)
		}
		dst, err := r.mem.Alloc(r.mem.Node(dstNode).ID, bytes)
		if err != nil {
			t.Fatal(err)
		}
		data := src.MutableBytes()
		for j := range data {
			data[j] = byte(i + j)
		}
		out[i] = Segment{Src: src, Dst: dst, Bytes: bytes}
	}
	return out
}

func TestTransferMovesBytes(t *testing.T) {
	r := newRig()
	r.eng.Spawn("drv", func(p *sim.Proc) {
		segs := r.segs(t, 4, 4096)
		tr, err := r.dma.Program(p, true, segs)
		if err != nil {
			t.Fatal(err)
		}
		r.dma.Start(tr, false, nil)
		p.WaitEvent(tr.Done)
		if tr.State() != StateDone {
			t.Fatalf("state = %v", tr.State())
		}
		for i, s := range segs {
			for j := range s.Dst.Bytes() {
				if s.Dst.Bytes()[j] != byte(i+j) {
					t.Fatalf("segment %d byte %d not copied", i, j)
				}
			}
		}
	})
	r.eng.Run()
	if st := r.dma.Stats(); st.Transfers != 1 || st.BytesMoved != 4*4096 {
		t.Errorf("stats = %+v", r.dma.Stats())
	}
}

func TestTransferTimeMatchesBandwidth(t *testing.T) {
	r := newRig()
	r.eng.Spawn("drv", func(p *sim.Proc) {
		segs := r.segs(t, 1, hw.Page2M)
		tr, _ := r.dma.Program(p, true, segs)
		cfgDone := p.Now()
		r.dma.Start(tr, false, nil)
		p.WaitEvent(tr.Done)
		got := int64(p.Now() - cfgDone)
		want := r.plat.DMATransferNS(hw.Page2M, hw.NodeSlow, hw.NodeFast)
		if got != want {
			t.Errorf("transfer time = %d ns, want %d ns", got, want)
		}
	})
	r.eng.Run()
}

func TestChainReuseCutsConfigCost(t *testing.T) {
	r := newRig()
	r.eng.Spawn("drv", func(p *sim.Proc) {
		cost := &r.plat.Cost
		segsA := r.segs(t, 16, 4096)
		t0 := p.Now()
		trA, _ := r.dma.Program(p, true, segsA)
		firstCost := int64(p.Now() - t0)
		wantFirst := cost.SGListInit + 16*(cost.DescParamCalc+cost.DescWriteFull)
		if firstCost != wantFirst {
			t.Errorf("first config cost = %d, want %d", firstCost, wantFirst)
		}
		r.dma.Start(trA, false, nil)
		p.WaitEvent(trA.Done)

		segsB := r.segs(t, 16, 4096)
		t1 := p.Now()
		trB, _ := r.dma.Program(p, true, segsB)
		reuseCost := int64(p.Now() - t1)
		wantReuse := cost.SGListInit + 16*cost.DescWriteReused
		if reuseCost != wantReuse {
			t.Errorf("reuse config cost = %d, want %d", reuseCost, wantReuse)
		}
		if trB.FirstSlot() != trA.FirstSlot() {
			t.Errorf("reuse picked slot %d, want %d", trB.FirstSlot(), trA.FirstSlot())
		}
		r.dma.Start(trB, false, nil)
		p.WaitEvent(trB.Done)
	})
	r.eng.Run()
	st := r.dma.Stats()
	if st.DescWritesFull != 16 || st.DescWritesReused != 16 {
		t.Errorf("desc writes = %+v", st)
	}
}

// heldSlots splits the claimed PaRAM slots into those of idle remembered
// chains and those a transfer still holds: busy chains plus the owned runs
// of trs. Together with FreeSlots they must cover the array at all times.
func (r *rig) heldSlots(trs ...*Transfer) (idle, busy int) {
	for _, c := range r.dma.chains {
		if c.busy {
			busy += c.length
		} else {
			idle += c.length
		}
	}
	for _, tr := range trs {
		if tr.ownsRun {
			busy += tr.nDesc
		}
	}
	return idle, busy
}

func (r *rig) checkSlotLedger(t *testing.T, when string, trs ...*Transfer) {
	t.Helper()
	idle, busy := r.heldSlots(trs...)
	if free := r.dma.FreeSlots(); free+idle+busy != r.plat.DMA.ParamSlots {
		t.Fatalf("%s: %d free + %d remembered + %d busy != %d slots",
			when, free, idle, busy, r.plat.DMA.ParamSlots)
	}
}

// The engine reads a chain's descriptors while it copies, so a chain
// belongs to one transfer from Program until it completes: a second
// transfer of the same shape programmed meanwhile gets a run of its own,
// and either chain is reusable (at the reduced write cost) afterwards.
func TestChainNotReusedWhileInFlight(t *testing.T) {
	r := newRig()
	r.eng.Spawn("drv", func(p *sim.Proc) {
		cost := &r.plat.Cost
		// Two 2 MiB pages copy for far longer than two descriptors take
		// to write.
		trA, _ := r.dma.Program(p, true, r.segs(t, 2, hw.Page2M))
		r.dma.Start(trA, false, nil)
		trB, err := r.dma.Program(p, true, r.segs(t, 2, hw.Page2M))
		if err != nil {
			t.Fatal(err)
		}
		if trA.State() != StateActive {
			t.Fatalf("first transfer is %v while the second is programmed", trA.State())
		}
		if trB.FirstSlot() == trA.FirstSlot() {
			t.Errorf("second transfer rewrote slot %d under the transfer running on it", trA.FirstSlot())
		}
		r.checkSlotLedger(t, "both in flight")
		if _, busy := r.heldSlots(); busy != 4 {
			t.Errorf("busy slots = %d, want both chains (4)", busy)
		}
		r.dma.Start(trB, false, nil)
		p.WaitEvent(trA.Done)
		p.WaitEvent(trB.Done)
		if idle, busy := r.heldSlots(); idle != 4 || busy != 0 {
			t.Errorf("after completion: %d remembered, %d busy; want 4, 0", idle, busy)
		}

		t0 := p.Now()
		trC, _ := r.dma.Program(p, true, r.segs(t, 2, hw.Page2M))
		if got, want := int64(p.Now()-t0), cost.SGListInit+2*cost.DescWriteReused; got != want {
			t.Errorf("third config cost = %d, want the reuse cost %d", got, want)
		}
		if s := trC.FirstSlot(); s != trA.FirstSlot() && s != trB.FirstSlot() {
			t.Errorf("third transfer on slot %d, want one of the two chains", s)
		}
		r.dma.Abort(trC) // never started: Abort is what hands the chain back
		if _, busy := r.heldSlots(); busy != 0 {
			t.Errorf("%d slots busy after aborting the unstarted transfer", busy)
		}
	})
	r.eng.Run()
	if r.dma.Chains() != 2 {
		t.Errorf("chains = %d, want 2", r.dma.Chains())
	}
}

// Slots held by transfers in flight are backpressure, not failure: Program
// reports ErrSlotsBusy having claimed nothing, and succeeds once WaitSlots
// has seen a transfer let go. Idle chains in the way are still evicted.
func TestSlotsBusyIsBackpressure(t *testing.T) {
	for _, reuse := range []bool{true, false} {
		r := newRig()
		r.eng.Spawn("drv", func(p *sim.Proc) {
			idle, _ := r.dma.Program(p, reuse, r.segs(t, 256, 2048))
			r.dma.Start(idle, false, nil)
			p.WaitEvent(idle.Done) // remembered (reuse) or recycled: not in the way
			a, _ := r.dma.Program(p, reuse, r.segs(t, 256, 4096))
			b, err := r.dma.Program(p, reuse, r.segs(t, 256, 4096))
			if err != nil {
				t.Fatalf("reuse=%v: second run: %v", reuse, err)
			}
			r.dma.Start(a, false, nil)
			r.dma.Start(b, false, nil)
			r.checkSlotLedger(t, "array full", a, b)
			segs := r.segs(t, 8, 4096)
			t0 := p.Now()
			if _, err := r.dma.Program(p, reuse, segs); !errors.Is(err, ErrSlotsBusy) {
				t.Fatalf("reuse=%v: Program on a full array = %v, want ErrSlotsBusy", reuse, err)
			}
			if p.Now() != t0 || segs[0].Src.Pinned() {
				t.Errorf("reuse=%v: refused Program charged time or pinned frames", reuse)
			}
			r.dma.WaitSlots(p)
			if a.State() != StateDone {
				t.Errorf("reuse=%v: woke with the oldest transfer %v", reuse, a.State())
			}
			c, err := r.dma.Program(p, reuse, segs)
			if err != nil {
				t.Fatalf("reuse=%v: Program after the wait: %v", reuse, err)
			}
			r.dma.Start(c, false, nil)
			p.WaitEvent(b.Done)
			p.WaitEvent(c.Done)
			r.checkSlotLedger(t, "drained")
		})
		r.eng.Run()
	}
}

func TestPartialChainReuse(t *testing.T) {
	r := newRig()
	r.eng.Spawn("drv", func(p *sim.Proc) {
		// Configure a 32-descriptor chain, then a 16-descriptor transfer
		// of the same page size: it must reuse a prefix of the chain.
		trA, _ := r.dma.Program(p, true, r.segs(t, 32, 4096))
		r.dma.Start(trA, false, nil)
		p.WaitEvent(trA.Done)
		trB, _ := r.dma.Program(p, true, r.segs(t, 16, 4096))
		if trB.FirstSlot() != trA.FirstSlot() {
			t.Errorf("partial reuse start = %d, want %d", trB.FirstSlot(), trA.FirstSlot())
		}
		r.dma.Start(trB, false, nil)
		p.WaitEvent(trB.Done)
	})
	r.eng.Run()
	if got := r.dma.Stats().DescWritesReused; got != 16 {
		t.Errorf("reused writes = %d, want 16", got)
	}
}

func TestNoReuseAcrossPageSizes(t *testing.T) {
	r := newRig()
	r.eng.Spawn("drv", func(p *sim.Proc) {
		trA, _ := r.dma.Program(p, true, r.segs(t, 4, 4096))
		r.dma.Start(trA, false, nil)
		p.WaitEvent(trA.Done)
		trB, _ := r.dma.Program(p, true, r.segs(t, 4, 65536))
		r.dma.Start(trB, false, nil)
		p.WaitEvent(trB.Done)
	})
	r.eng.Run()
	st := r.dma.Stats()
	if st.DescWritesReused != 0 || st.DescWritesFull != 8 {
		t.Errorf("desc writes = %+v, want 8 full / 0 reused", st)
	}
}

func TestReuseFalseNeverReuses(t *testing.T) {
	r := newRig()
	r.eng.Spawn("drv", func(p *sim.Proc) {
		for i := 0; i < 3; i++ {
			tr, _ := r.dma.Program(p, false, r.segs(t, 8, 4096))
			r.dma.Start(tr, false, nil)
			p.WaitEvent(tr.Done)
		}
		if r.dma.Chains() != 0 {
			t.Errorf("baseline driver remembered %d chains", r.dma.Chains())
		}
		if r.dma.FreeSlots() != r.plat.DMA.ParamSlots {
			t.Errorf("slots leaked: %d free", r.dma.FreeSlots())
		}
	})
	r.eng.Run()
	if got := r.dma.Stats().DescWritesFull; got != 24 {
		t.Errorf("full writes = %d, want 24", got)
	}
}

func TestChainEvictionWhenSlotsExhausted(t *testing.T) {
	r := newRig()
	r.eng.Spawn("drv", func(p *sim.Proc) {
		// Fill the PaRAM array with remembered chains of distinct sizes.
		sizes := []int64{4096, 8192, 16384, 32768}
		for _, s := range sizes {
			tr, err := r.dma.Program(p, true, r.segs(t, 128, s))
			if err != nil {
				t.Fatalf("size %d: %v", s, err)
			}
			r.dma.Start(tr, false, nil)
			p.WaitEvent(tr.Done)
		}
		if r.dma.FreeSlots() != 0 {
			t.Fatalf("expected full PaRAM, %d free", r.dma.FreeSlots())
		}
		// A new shape must evict the LRU chain (the 4096 one).
		tr, err := r.dma.Program(p, true, r.segs(t, 64, 2048))
		if err != nil {
			t.Fatalf("eviction path: %v", err)
		}
		r.dma.Start(tr, false, nil)
		p.WaitEvent(tr.Done)
		if r.dma.Chains() != 4 {
			t.Errorf("chains = %d, want 4", r.dma.Chains())
		}
	})
	r.eng.Run()
}

func TestOversizedTransferRejected(t *testing.T) {
	r := newRig()
	r.eng.Spawn("drv", func(p *sim.Proc) {
		segs := make([]Segment, r.plat.DMA.ParamSlots+1)
		src, _ := r.mem.Alloc(hw.NodeSlow, 64)
		dst, _ := r.mem.Alloc(hw.NodeFast, 64)
		for i := range segs {
			segs[i] = Segment{Src: src, Dst: dst, Bytes: 64}
		}
		if _, err := r.dma.Program(p, true, segs); err == nil {
			t.Error("oversized transfer accepted")
		}
	})
	r.eng.Run()
}

func TestChannelSerializesTransfers(t *testing.T) {
	r := newRig()
	var doneA, doneB sim.Time
	r.eng.Spawn("drv", func(p *sim.Proc) {
		trA, _ := r.dma.Program(p, true, r.segs(t, 1, hw.Page2M))
		trB, _ := r.dma.Program(p, true, r.segs(t, 1, hw.Page2M))
		r.dma.Start(trA, false, nil)
		r.dma.Start(trB, false, nil)
		p.WaitEvent(trA.Done)
		doneA = p.Now()
		p.WaitEvent(trB.Done)
		doneB = p.Now()
	})
	r.eng.Run()
	dur := sim.Time(r.plat.DMATransferNS(hw.Page2M, hw.NodeSlow, hw.NodeFast))
	if doneB-doneA < dur {
		t.Errorf("transfers overlapped: A done %v, B done %v, each needs %v", doneA, doneB, dur)
	}
}

func TestIRQDelivery(t *testing.T) {
	r := newRig()
	var irqAt, doneAt sim.Time
	r.eng.Spawn("drv", func(p *sim.Proc) {
		tr, _ := r.dma.Program(p, true, r.segs(t, 2, 4096))
		r.dma.Start(tr, true, func() { irqAt = r.eng.Now() })
		p.WaitEvent(tr.Done)
		doneAt = p.Now()
		p.SleepNS(100000) // let the IRQ land
	})
	r.eng.Run()
	want := doneAt + sim.Time(r.plat.DMA.IRQNS)
	if irqAt != want {
		t.Errorf("IRQ at %v, want %v", irqAt, want)
	}
	if r.dma.Stats().IRQs != 1 {
		t.Errorf("IRQs = %d, want 1", r.dma.Stats().IRQs)
	}
}

func TestAbortActiveSkipsCopy(t *testing.T) {
	r := newRig()
	r.eng.Spawn("drv", func(p *sim.Proc) {
		segs := r.segs(t, 1, hw.Page2M)
		tr, _ := r.dma.Program(p, true, segs)
		irqRan := false
		r.dma.Start(tr, true, func() { irqRan = true })
		p.SleepNS(1000) // mid-flight
		r.dma.Abort(tr)
		p.WaitEvent(tr.Done)
		if tr.State() != StateAborted {
			t.Errorf("state = %v, want aborted", tr.State())
		}
		for _, b := range segs[0].Dst.Bytes() {
			if b != 0 {
				t.Fatal("aborted transfer copied bytes")
			}
		}
		p.SleepNS(100000)
		if irqRan {
			t.Error("aborted transfer delivered IRQ")
		}
	})
	r.eng.Run()
	if r.dma.Stats().Aborts != 1 {
		t.Errorf("Aborts = %d", r.dma.Stats().Aborts)
	}
}

func TestAbortQueuedRemoves(t *testing.T) {
	r := newRig()
	r.eng.Spawn("drv", func(p *sim.Proc) {
		trA, _ := r.dma.Program(p, true, r.segs(t, 1, hw.Page2M))
		segsB := r.segs(t, 1, hw.Page2M)
		trB, _ := r.dma.Program(p, true, segsB)
		r.dma.Start(trA, false, nil)
		r.dma.Start(trB, false, nil)
		r.dma.Abort(trB)
		if trB.State() != StateAborted {
			t.Errorf("queued abort state = %v", trB.State())
		}
		p.WaitEvent(trA.Done)
		p.WaitEvent(trB.Done) // already fired
		for _, b := range segsB[0].Dst.Bytes() {
			if b != 0 {
				t.Fatal("aborted queued transfer copied bytes")
			}
		}
	})
	r.eng.Run()
	if r.dma.Stats().Transfers != 1 {
		t.Errorf("Transfers = %d, want 1", r.dma.Stats().Transfers)
	}
}

func TestPinningDuringTransfer(t *testing.T) {
	r := newRig()
	r.eng.Spawn("drv", func(p *sim.Proc) {
		segs := r.segs(t, 1, 4096)
		tr, _ := r.dma.Program(p, true, segs)
		if !segs[0].Src.Pinned() || !segs[0].Dst.Pinned() {
			t.Error("frames not pinned after Program")
		}
		r.dma.Start(tr, false, nil)
		p.WaitEvent(tr.Done)
		if segs[0].Src.Pinned() || segs[0].Dst.Pinned() {
			t.Error("frames still pinned after completion")
		}
	})
	r.eng.Run()
}

// Two transfers that share a frame (a region replicated while it is being
// migrated): the frame stays pinned until the second one lets go, whatever
// the first one does — complete or be dropped from the queue.
func TestSharedFramePinnedUntilLastTransfer(t *testing.T) {
	for _, abortSecond := range []bool{false, true} {
		r := newRig()
		r.eng.Spawn("drv", func(p *sim.Proc) {
			a, b := r.segs(t, 1, 4096), r.segs(t, 1, 4096)
			shared := a[0].Src
			b[0].Src = shared
			t1, _ := r.dma.Program(p, true, a)
			t2, _ := r.dma.Program(p, true, b)
			r.dma.Start(t1, false, nil)
			r.dma.Start(t2, false, nil)
			if abortSecond {
				r.dma.Abort(t2)
			} else {
				p.WaitEvent(t1.Done)
			}
			if !shared.Pinned() {
				t.Errorf("abortSecond=%v: shared frame unpinned with a transfer still holding it", abortSecond)
			}
			p.WaitEvent(t1.Done)
			p.WaitEvent(t2.Done)
			if shared.Pinned() || a[0].Dst.Pinned() || b[0].Dst.Pinned() {
				t.Errorf("abortSecond=%v: frames still pinned after both transfers", abortSecond)
			}
		})
		r.eng.Run()
	}
}

func TestProgramValidation(t *testing.T) {
	r := newRig()
	r.eng.Spawn("drv", func(p *sim.Proc) {
		if _, err := r.dma.Program(p, true, nil); err == nil {
			t.Error("empty transfer accepted")
		}
		src, _ := r.mem.Alloc(hw.NodeSlow, 4096)
		dst, _ := r.mem.Alloc(hw.NodeFast, 4096)
		mixed := []Segment{{src, dst, 4096}, {src, dst, 2048}}
		if _, err := r.dma.Program(p, true, mixed); err == nil {
			t.Error("mixed-size transfer accepted")
		}
		over := []Segment{{src, dst, 8192}}
		if _, err := r.dma.Program(p, true, over); err == nil {
			t.Error("overrun segment accepted")
		}
	})
	r.eng.Run()
}

func TestDescriptorChainLinks(t *testing.T) {
	r := newRig()
	r.eng.Spawn("drv", func(p *sim.Proc) {
		tr, _ := r.dma.Program(p, true, r.segs(t, 3, 4096))
		s := tr.FirstSlot()
		d0, d1, d2 := r.dma.Slot(s), r.dma.Slot(s+1), r.dma.Slot(s+2)
		if d0.Link != s+1 || d1.Link != s+2 || d2.Link != -1 {
			t.Errorf("links = %d,%d,%d", d0.Link, d1.Link, d2.Link)
		}
		r.dma.Start(tr, false, nil)
		p.WaitEvent(tr.Done)
	})
	r.eng.Run()
}

// A higher-class (lower value) transfer submitted while the channel is
// busy jumps ahead of queued lower-class work but never preempts the
// active transfer.
func TestClassPriorityOrdering(t *testing.T) {
	r := newRig()
	var order []qos.Class
	r.eng.Spawn("drv", func(p *sim.Proc) {
		mk := func(class qos.Class) *Transfer {
			tr, err := r.dma.Program(p, true, r.segs(t, 1, 4096))
			if err != nil {
				t.Fatal(err)
			}
			tr.Class = class
			return tr
		}
		active := mk(2)
		scav1, scav2 := mk(2), mk(2)
		fg := mk(0)
		bg := mk(1)
		done := func(tr *Transfer) {
			r.dma.Start(tr, false, nil)
		}
		done(active) // becomes active immediately
		done(scav1)
		done(scav2)
		done(fg) // should bypass both scavengers
		done(bg) // should slot between fg and the scavengers
		for _, tr := range []*Transfer{active, scav1, scav2, fg, bg} {
			tr := tr
			r.eng.Spawn("wait", func(wp *sim.Proc) {
				wp.WaitEvent(tr.Done)
				order = append(order, tr.Class)
			})
		}
	})
	r.eng.Run()
	want := []qos.Class{2, 0, 1, 2, 2}
	if len(order) != len(want) {
		t.Fatalf("completions = %v", order)
	}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("completion order = %v, want %v", order, want)
		}
	}
	if r.dma.Stats().PriorityBypasses == 0 {
		t.Error("PriorityBypasses not counted")
	}
}
