package dma

import (
	"fmt"
	"strings"
	"testing"

	"memif/internal/sim"
)

// A recycled transfer is the next one Program hands out: same record, new
// generation, unfired Done, queued state, nothing of its last use kept.
// Recycling one that has not finished is refused.
func TestRecycleReusesTransfer(t *testing.T) {
	r := newRig()
	r.eng.Spawn("drv", func(p *sim.Proc) {
		segs := r.segs(t, 2, 4096)
		first, err := r.dma.Program(p, true, segs)
		if err != nil {
			t.Fatal(err)
		}
		func() {
			defer func() {
				if msg := fmt.Sprint(recover()); !strings.Contains(msg, "queued") {
					t.Errorf("recycling a queued transfer: recovered %q", msg)
				}
			}()
			r.dma.Recycle(first)
		}()
		r.dma.Start(first, false, nil)
		p.WaitEvent(first.Done)
		gen := first.gen
		r.dma.Recycle(first)
		again, err := r.dma.Program(p, true, segs)
		if err != nil {
			t.Fatal(err)
		}
		if again != first || again.gen != gen+1 {
			t.Fatalf("Program after Recycle: same record %v, generation %d after %d", again == first, again.gen, gen)
		}
		if again.Done.Fired() || again.State() != StateQueued || again.Class != 0 || again.onIRQ != nil {
			t.Fatalf("recycled transfer kept its last use: fired %v, %v, class %d", again.Done.Fired(), again.State(), again.Class)
		}
		r.dma.Start(again, false, nil)
		p.WaitEvent(again.Done)
		if again.State() != StateDone {
			t.Errorf("second use ended %v", again.State())
		}
	})
	r.eng.Run()
	if st := r.dma.Stats(); st.Transfers != 2 {
		t.Errorf("%d transfers completed, want 2", st.Transfers)
	}
}

// A transfer recycled while its copy is still on the calendar: the
// completion callback finds a newer generation and panics instead of
// completing whatever the record has become.
func TestStaleCompletionPanics(t *testing.T) {
	r := newRig()
	r.eng.Spawn("drv", func(p *sim.Proc) {
		tr, err := r.dma.Program(p, true, r.segs(t, 1, 4096))
		if err != nil {
			t.Fatal(err)
		}
		r.dma.Start(tr, false, nil)
		r.dma.RecycleEarly(tr)
	})
	msg := func() (msg string) {
		defer func() { msg = fmt.Sprint(recover()) }()
		r.eng.Run()
		return "Run returned normally"
	}()
	if want := "completion of generation 1 reached a transfer recycled to generation 2"; !strings.Contains(msg, want) {
		t.Errorf("recovered %q, want it to say %q", msg, want)
	}
}

// Taking a transfer off the queue, by Abort or by the channel beginning
// the next, clears the slot it vacated: a recycled transfer must not stay
// reachable from the queue's backing array.
func TestQueueClearsVacatedSlots(t *testing.T) {
	r := newRig()
	r.eng.Spawn("drv", func(p *sim.Proc) {
		var trs [3]*Transfer
		for i := range trs {
			trs[i], _ = r.dma.Program(p, true, r.segs(t, 1, 4096))
		}
		for _, tr := range trs {
			r.dma.Start(tr, false, nil)
		}
		r.dma.Abort(trs[1]) // queue [1 2] → [2]
		if q := r.dma.queue; len(q) != 1 || q[:2][1] != nil {
			t.Errorf("after Abort: %d queued, vacated slot holds %p", len(q), q[:2][1])
		}
		p.WaitEvent(trs[2].Done)
		for i, tr := range r.dma.queue[:cap(r.dma.queue)] {
			if tr != nil {
				t.Errorf("drained queue's slot %d still holds a transfer", i)
			}
		}
	})
	r.eng.Run()
}
