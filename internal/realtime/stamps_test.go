package realtime

import (
	"bytes"
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"memif/internal/obs/lifecycle"
	"memif/internal/rbq"
)

// checkClosedVector asserts what every sampled lifecycle owes its
// reader, whatever path the request took: the stamped stages are in
// order, the gaps between consecutive stamped stages are the whole of
// retrieved − submitted, and the vector is the request's own record —
// its ends are the very stamps Request.Latency reports from.
func checkClosedVector(t *testing.T, lc lifecycle.Lifecycle, r *Request) {
	t.Helper()
	checkMonotone(t, lc)
	var sum int64
	last := lc.TS[lifecycle.StageSubmit]
	for st := 1; st < lifecycle.NumStages; st++ {
		if ts := lc.TS[st]; ts != 0 {
			sum += ts - last
			last = ts
		}
	}
	if total := lc.TS[lifecycle.StageRetrieved] - lc.TS[lifecycle.StageSubmit]; sum != total {
		t.Errorf("slot %d: stage gaps sum to %d, retrieved-submitted is %d: %v", lc.Slot, sum, total, lc.TS)
	}
	lat, ok := r.Latency()
	if got := lc.TS[lifecycle.StageCompleted] - lc.TS[lifecycle.StageSubmit]; !ok || got != int64(lat) {
		t.Errorf("slot %d: vector says submit→completed took %d, Latency() says %d (ok=%v)", lc.Slot, got, lat, ok)
	}
	if (lc.TS[lifecycle.StageCopyStart] == 0) != (lc.TS[lifecycle.StageCopyEnd] == 0) {
		t.Errorf("slot %d: copy window half open: %v", lc.Slot, lc.TS)
	}
}

// checkFullVector asserts a request that went the whole way through the
// pipeline has all seven stages stamped.
func checkFullVector(t *testing.T, lc lifecycle.Lifecycle) {
	t.Helper()
	for st, ts := range lc.TS {
		if ts == 0 {
			t.Errorf("slot %d: stage %v not stamped: %v", lc.Slot, lifecycle.Stage(st), lc.TS)
		}
	}
}

// TestStampVectorClosesOnEveryPath runs fully sampled requests down the
// four routes a request can take — copied inline by the worker, popped
// off the chunk ring past a stalled controller, canceled under a
// stalled engine, and failed at the flush with ErrNoSlots — and checks
// each captured vector
// with checkClosedVector plus the stages and flags particular to its
// route. Each slot is used once, so a lifecycle's Slot names its
// request.
func TestStampVectorClosesOnEveryPath(t *testing.T) {
	const n = 8
	submitAll := func(t *testing.T, d *Device, size int) []*Request {
		t.Helper()
		reqs := make([]*Request, n)
		for i := range reqs {
			r := d.AllocRequest()
			r.Src, r.Dst = bytes.Repeat([]byte{byte(i + 1)}, size), make([]byte, size)
			if err := d.Submit(r); err != nil {
				t.Fatal(err)
			}
			reqs[i] = r
		}
		return reqs
	}
	captured := func(t *testing.T, d *Device) []lifecycle.Lifecycle {
		t.Helper()
		s := d.Stats().Lifecycle
		if s.Begun != n || s.Ended != n || len(s.Captured) != n {
			t.Fatalf("begun/ended/captured = %d/%d/%d, want %d each", s.Begun, s.Ended, len(s.Captured), n)
		}
		return s.Captured
	}

	t.Run("inline", func(t *testing.T) {
		d := Open(Options{NumReqs: n, Controllers: 2, TraceFullCapture: true})
		defer d.Close()
		submitAll(t, d, 1<<10)
		// The batch retrieve shares one clock read across the drain; a
		// sampled request must still close on a stamp of its own.
		for _, r := range drainAllReqs(t, d, n) {
			if r.Err != nil {
				t.Errorf("slot %d: %v", r.idx, r.Err)
			}
		}
		for _, lc := range captured(t, d) {
			checkClosedVector(t, lc, d.reqs[lc.Slot])
			checkFullVector(t, lc)
			if lc.Flags != lifecycle.FlagInline {
				t.Errorf("slot %d: flags %#x, want inline only", lc.Slot, lc.Flags)
			}
			if lc.TS[lifecycle.StageCopyStart] != lc.TS[lifecycle.StageDispatched] {
				t.Errorf("slot %d: inline copy did not start at dispatch: %v", lc.Slot, lc.TS)
			}
		}
		if st := d.Stats(); st.InlineCompleted != n {
			t.Errorf("InlineCompleted = %d, want %d", st.InlineCompleted, n)
		}
	})

	t.Run("stalled-controller", func(t *testing.T) {
		stall := make(chan struct{})
		var once sync.Once
		defer once.Do(func() { close(stall) })
		var stalled atomic.Bool
		d := Open(Options{
			NumReqs: n, Controllers: 2, ChunkBytes: -1, TraceFullCapture: true,
			Chaos: &ChaosHooks{
				BeforeChunkCopy: func(idx uint32, off, end int) {
					// Freeze the first controller to take a chunk: the
					// rest must leave the ring through the other one.
					if stalled.CompareAndSwap(false, true) {
						<-stall
					}
				},
			},
		})
		d.inline.Store(0)
		defer d.Close()
		submitAll(t, d, 4<<10)
		deadline := time.Now().Add(5 * time.Second)
		for d.Completed() < n-1 {
			if time.Now().After(deadline) {
				t.Fatalf("%d of %d completed past a stalled controller", d.Completed(), n-1)
			}
			time.Sleep(time.Millisecond)
		}
		once.Do(func() { close(stall) })
		drainAll(t, d, n)
		for _, lc := range captured(t, d) {
			checkClosedVector(t, lc, d.reqs[lc.Slot])
			checkFullVector(t, lc)
			// FlagInline is the only flag there is, and inline
			// completion is off.
			if lc.Flags != 0 {
				t.Errorf("slot %d: flags %#x with inline completion off, want none", lc.Slot, lc.Flags)
			}
		}
		if st := d.Stats(); st.Steals != 0 {
			t.Errorf("Steals = %d, want 0: the controllers share one ring", st.Steals)
		}
	})

	t.Run("cancel-chaos", func(t *testing.T) {
		stall := make(chan struct{})
		var once sync.Once
		defer once.Do(func() { close(stall) })
		d := Open(Options{
			NumReqs: n, Controllers: 2, ChunkBytes: 1 << 10, TraceFullCapture: true,
			Chaos: &ChaosHooks{
				BeforeChunkCopy: func(idx uint32, off, end int) { <-stall },
			},
		})
		d.inline.Store(0)
		defer d.Close()
		reqs := submitAll(t, d, 4<<10)
		for i, r := range reqs {
			if i%2 == 0 && !d.Cancel(r) {
				t.Errorf("cancel of stalled request %d lost", i)
			}
		}
		once.Do(func() { close(stall) })
		drainAll(t, d, n)
		for _, lc := range captured(t, d) {
			r := d.reqs[lc.Slot]
			checkClosedVector(t, lc, r)
			if want := lcOutcome(r.Err); lc.Outcome != want {
				t.Errorf("slot %d: outcome %v, request says %v", lc.Slot, lc.Outcome, want)
			}
			if lc.TS[lifecycle.StageFlushed] == 0 || lc.TS[lifecycle.StageDispatched] == 0 {
				t.Errorf("slot %d: flushed/dispatched missing: %v", lc.Slot, lc.TS)
			}
		}
	})

	t.Run("errnoslots", func(t *testing.T) {
		d := Open(Options{
			NumReqs: n, Controllers: 1, TraceFullCapture: true,
			Chaos: &ChaosHooks{FlushEnqueue: func(uint32) bool { return true }},
		})
		defer d.Close()
		for i := 0; i < n; i++ {
			r := d.AllocRequest()
			r.Src, r.Dst = make([]byte, 1<<10), make([]byte, 1<<10)
			submitParked(t, d, r) // so the flush, not the worker, moves it
		}
		for _, r := range drainAll(t, d, n) {
			if !errors.Is(r.Err, ErrNoSlots) {
				t.Errorf("slot %d: err = %v, want ErrNoSlots", r.idx, r.Err)
			}
		}
		for _, lc := range captured(t, d) {
			checkClosedVector(t, lc, d.reqs[lc.Slot])
			for _, st := range []lifecycle.Stage{
				lifecycle.StageFlushed, lifecycle.StageDispatched,
				lifecycle.StageCopyStart, lifecycle.StageCopyEnd,
			} {
				if lc.TS[st] != 0 {
					t.Errorf("slot %d: stage %v stamped on a request that failed at the flush: %v", lc.Slot, st, lc.TS)
				}
			}
			if lc.Outcome != lifecycle.OutcomeFailed || lc.Flags != 0 {
				t.Errorf("slot %d: outcome %v flags %#x, want failed and none", lc.Slot, lc.Outcome, lc.Flags)
			}
		}
	})
}

// TestStampsDoNotLeakAcrossSlotReuse pins the no-clearing rule: stamp
// fields and the sampled bit are never reset when a slot changes hands,
// so everything a previous occupant left must read as "not reached" for
// the next one. First a sampled request copied inline leaves a full
// vector — inline flag included — in the device's only slot and an
// unsampled one that fails at the flush follows it; then slots whose
// last occupants were sampled are shed by admission before staging,
// where not even the sampled bit is rewritten.
func TestStampsDoNotLeakAcrossSlotReuse(t *testing.T) {
	t.Run("unsampled-after-sampled", func(t *testing.T) {
		var failFlush atomic.Bool
		d := Open(Options{
			NumReqs: 1, Controllers: 1,
			TraceSampleShift: 1, // each slot samples its 1st, 3rd, ... request
			Chaos: &ChaosHooks{
				FlushEnqueue: func(uint32) bool { return failFlush.Load() },
			},
		})
		defer d.Close()
		run := func() *Request {
			r := d.AllocRequest()
			r.Src, r.Dst = make([]byte, 1<<10), make([]byte, 1<<10)
			if err := d.Submit(r); err != nil {
				t.Fatal(err)
			}
			return r
		}

		first := run()
		if got := drainOne(t, d); got != first || got.Err != nil {
			t.Fatalf("first request: %v err=%v", got, got.Err)
		}
		if !first.sampled {
			t.Fatal("a slot's first request must be sampled at shift 1")
		}
		ts, flags := first.stamps(nanotime())
		for st, v := range ts {
			if v == 0 {
				t.Fatalf("first occupant left stage %v unstamped: %v", lifecycle.Stage(st), ts)
			}
		}
		if flags != lifecycle.FlagInline {
			t.Fatalf("first occupant's flags = %#x, want inline", flags)
		}
		d.FreeRequest(first)

		failFlush.Store(true)
		awaitCond(t, "worker parked", func() bool { return d.staging.Color() == rbq.Blue })
		second := run() // to a parked worker: its own flush fails it
		if got := drainOne(t, d); got != second || !errors.Is(got.Err, ErrNoSlots) {
			t.Fatalf("second request: %v err=%v, want ErrNoSlots", got, got.Err)
		}
		if second != first {
			t.Fatal("the device's only slot was not reused")
		}
		if second.sampled {
			t.Error("sampled bit leaked into the slot's second request")
		}
		ts, flags = second.stamps(nanotime())
		for _, st := range []lifecycle.Stage{
			lifecycle.StageFlushed, lifecycle.StageDispatched,
			lifecycle.StageCopyStart, lifecycle.StageCopyEnd,
		} {
			if ts[st] != 0 {
				t.Errorf("stage %v leaked from the previous occupant: %v", st, ts)
			}
		}
		if flags != 0 {
			t.Errorf("flags %#x leaked from the previous occupant", flags)
		}
		d.FreeRequest(second)
		if s := d.Stats().Lifecycle; s.Begun != 1 || s.Ended != 1 || len(s.Captured) != 1 {
			t.Errorf("begun/ended/captured = %d/%d/%d, want 1 each (only the first request)",
				s.Begun, s.Ended, len(s.Captured))
		}
	})

	t.Run("shed-after-sampled", func(t *testing.T) {
		const n = 8
		var hold atomic.Bool
		release := make(chan struct{})
		d := Open(Options{
			NumReqs: n, Controllers: 1, TraceFullCapture: true,
			Chaos: &ChaosHooks{
				BeforeChunkCopy: func(idx uint32, off, end int) {
					if hold.Load() {
						<-release
					}
				},
			},
		})
		defer d.Close()
		src := make([]byte, 1<<10)
		submit := func(class Class) {
			reqs := make([]*Request, n)
			for i := range reqs {
				reqs[i] = d.AllocRequest()
				reqs[i].Src, reqs[i].Dst, reqs[i].Class = src, make([]byte, len(src)), class
			}
			if err := d.SubmitBatch(reqs); err != nil {
				t.Fatal(err)
			}
		}
		submit(ClassForeground)
		for _, r := range drainAll(t, d, n) {
			if r.Err != nil || !r.sampled {
				t.Fatalf("slot %d: err=%v sampled=%v, want a clean sampled request", r.idx, r.Err, r.sampled)
			}
			d.FreeRequest(r)
		}
		// A slab-sized scavenger batch overruns the class's share (half
		// the slots, and nothing completes while the copies are held):
		// the surplus is shed before staging and never re-decides
		// sampling.
		hold.Store(true)
		submit(ClassScavenger)
		hold.Store(false)
		close(release)
		staged := int64(0)
		for _, r := range drainAll(t, d, n) {
			switch {
			case r.Err == nil:
				staged++
			case !errors.Is(r.Err, ErrOverload):
				t.Errorf("slot %d: %v", r.idx, r.Err)
			}
			d.FreeRequest(r)
		}
		if staged != n/2 {
			t.Fatalf("%d scavengers staged, want %d (the rest shed)", staged, n/2)
		}
		if s := d.Stats().Lifecycle; s.Begun != n+staged || s.Ended != n+staged {
			t.Errorf("begun/ended = %d/%d, want %d: a shed request closed a previous occupant's lifecycle",
				s.Begun, s.Ended, n+staged)
		}
	})
}
