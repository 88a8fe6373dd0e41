package realtime

// Busy-poll worker mode and per-core completion-ring coverage: the
// submit fast path with a spinning worker (no kicks, no wakes), the
// spin→park fallback once the idle budget is exhausted, the
// Poll/PollContext spin-before-sleep micro-wait, and round-robin
// completion routing across rings. (DRR fairness with the spinning
// worker is a case of TestTenantWeightedDispatchOrder.)

import (
	"bytes"
	"testing"
	"time"
)

// TestBusyPollNoWorkerWakesOrKicks is the tentpole regression: with the
// worker spinning, the staging shards stay red, so steady-state
// submitters never flush and never kick, and the worker never parks or
// wakes. The kick/wake counters must be flat across hundreds of
// submit→retrieve cycles.
func TestBusyPollNoWorkerWakesOrKicks(t *testing.T) {
	d := Open(Options{
		NumReqs:       16,
		StagingShards: 1,
		BusyPoll:      true,
		BusyPollIdle:  time.Hour, // never exhaust the budget in-test
	})
	defer d.Close()

	src := bytes.Repeat([]byte{3}, 4<<10)
	dst := make([]byte, len(src))
	cycle := func() {
		r := d.AllocRequest()
		if r == nil {
			t.Fatal("alloc failed")
		}
		r.Src, r.Dst = src, dst
		if err := d.Submit(r); err != nil {
			t.Fatal(err)
		}
		if !d.Poll(time.Second) {
			t.Fatal("Poll timed out")
		}
		got := d.RetrieveCompleted()
		if got == nil {
			t.Fatal("no completion after Poll")
		}
		d.FreeRequest(got)
	}

	// Warm-up: the first submit may still observe the shard blue from
	// Open and pay one flush+kick before the spinning worker takes over.
	cycle()

	before := d.Stats()
	const n = 200
	for i := 0; i < n; i++ {
		cycle()
	}
	after := d.Stats()

	if dk := after.Kicks - before.Kicks; dk != 0 {
		t.Errorf("kicks delta = %d over %d busy-poll cycles, want 0", dk, n)
	}
	if dw := after.WorkerWakes - before.WorkerWakes; dw != 0 {
		t.Errorf("worker wakes delta = %d over %d busy-poll cycles, want 0", dw, n)
	}
	if after.BusyPollSpins == 0 {
		t.Error("BusyPollSpins = 0 with BusyPoll enabled")
	}
	if after.BusyPollParks != 0 {
		t.Errorf("BusyPollParks = %d with an hour-long idle budget, want 0", after.BusyPollParks)
	}
	if after.Completed != before.Completed+n {
		t.Errorf("completed delta = %d, want %d", after.Completed-before.Completed, n)
	}
}

// TestBusyPollIdleFallbackParks drives the spin budget to exhaustion:
// an idle busy-polling worker must recolor, park (BusyPollParks > 0)
// and remain wakeable — the next submit kicks it exactly as in
// park/wake mode, with no lost token and no lost request.
func TestBusyPollIdleFallbackParks(t *testing.T) {
	d := Open(Options{
		NumReqs:       16,
		StagingShards: 1,
		BusyPoll:      true,
		BusyPollIdle:  100 * time.Microsecond,
	})
	defer d.Close()

	src := bytes.Repeat([]byte{5}, 1<<10)
	deadline := time.Now().Add(5 * time.Second)
	for d.Stats().BusyPollParks == 0 {
		if time.Now().After(deadline) {
			t.Fatalf("worker never exhausted a 100µs idle budget; stats=%+v", d.Stats())
		}
		time.Sleep(time.Millisecond)
	}

	// The worker is parked (or about to be): the submit path must still
	// deliver — blue shard, flush, kick, wake — and complete.
	wakesBefore := d.Stats().WorkerWakes
	r := d.AllocRequest()
	r.Src, r.Dst = src, make([]byte, len(src))
	if err := d.Submit(r); err != nil {
		t.Fatal(err)
	}
	if !d.Poll(time.Second) {
		t.Fatal("Poll timed out after busy-poll park")
	}
	got := d.RetrieveCompleted()
	if got != r || got.Err != nil {
		t.Fatalf("retrieve after park: got %v err %v", got, got.Err)
	}
	if !bytes.Equal(r.Src, r.Dst) {
		t.Error("payload corrupt across park/wake fallback")
	}
	d.FreeRequest(got)
	// The wake may have been consumed by a pre-park refill check rather
	// than an actual park/wake cycle, so only sanity-bound it.
	if dw := d.Stats().WorkerWakes - wakesBefore; dw > 2 {
		t.Errorf("worker wakes delta = %d for one submit, want <= 2", dw)
	}
}

// TestPollMicroWaitSpins pins the Poll spin-before-sleep micro-wait:
// with a busy-polling worker and a few-microsecond copy delay, a
// high-rate poller must resolve at least some waits inside the spin
// budget (PollerSpins > 0) without a single worker sleep/wake cycle
// (WorkerWakes delta == 0).
func TestPollMicroWaitSpins(t *testing.T) {
	d := Open(Options{
		NumReqs:       16,
		StagingShards: 1,
		Controllers:   1,
		BusyPoll:      true,
		BusyPollIdle:  time.Hour,
		QoS:           QoSOptions{InlineThreshold: -1}, // force the controller path
		Chaos: &ChaosHooks{
			BeforeChunkCopy: func(idx uint32, off, end int) { time.Sleep(5 * time.Microsecond) },
		},
	})
	defer d.Close()

	src := bytes.Repeat([]byte{9}, 1<<10)
	dst := make([]byte, len(src))
	warm := d.AllocRequest()
	warm.Src, warm.Dst = src, dst
	if err := d.Submit(warm); err != nil {
		t.Fatal(err)
	}
	if !d.Poll(time.Second) {
		t.Fatal("warm-up Poll timed out")
	}
	d.FreeRequest(d.RetrieveCompleted())

	before := d.Stats()
	const n = 300
	for i := 0; i < n; i++ {
		r := d.AllocRequest()
		r.Src, r.Dst = src, dst
		if err := d.Submit(r); err != nil {
			t.Fatal(err)
		}
		if !d.Poll(time.Second) {
			t.Fatal("Poll timed out")
		}
		got := d.RetrieveCompleted()
		if got == nil {
			t.Fatal("no completion after Poll")
		}
		d.FreeRequest(got)
	}
	after := d.Stats()

	if ds := after.PollerSpins - before.PollerSpins; ds == 0 {
		t.Errorf("PollerSpins delta = 0 over %d submit+Poll cycles, want > 0 (micro-wait regressed)", n)
	}
	if dw := after.WorkerWakes - before.WorkerWakes; dw != 0 {
		t.Errorf("worker wakes delta = %d, want 0", dw)
	}
}

// TestPollTimeoutParks: with nothing in flight, a bounded Poll must
// take the sleeping slow path (PollerParks) after the spin budget
// misses, and still return false.
func TestPollTimeoutParks(t *testing.T) {
	d := Open(Options{NumReqs: 8})
	defer d.Close()
	before := d.Stats().PollerParks
	if d.Poll(5 * time.Millisecond) {
		t.Error("Poll reported a completion on an idle device")
	}
	if dp := d.Stats().PollerParks - before; dp == 0 {
		t.Error("PollerParks delta = 0 for a timed-out Poll, want >= 1")
	}
}

// TestCompletionRingsRoundRobin checks the idx%N completion routing:
// with 4 rings and every one of 32 slots completed-but-unretrieved,
// each ring must hold exactly its 8 residue-class slots, the summed
// depth must match, and a batched drain must recover every index with
// a clean audit.
func TestCompletionRingsRoundRobin(t *testing.T) {
	const nReqs = 32
	d := Open(Options{
		NumReqs:         nReqs,
		Controllers:     2,
		CompletionRings: 4,
	})
	defer d.Close()

	src := bytes.Repeat([]byte{11}, 1<<10)
	for i := 0; i < nReqs; i++ {
		r := d.AllocRequest()
		if r == nil {
			t.Fatalf("alloc %d failed", i)
		}
		r.Src, r.Dst = src, make([]byte, len(src))
		if err := d.Submit(r); err != nil {
			t.Fatal(err)
		}
	}
	deadline := time.Now().Add(5 * time.Second)
	for d.Stats().Completed < nReqs {
		if time.Now().After(deadline) {
			t.Fatalf("only %d/%d completed before timeout", d.Stats().Completed, nReqs)
		}
		time.Sleep(time.Millisecond)
	}

	st := d.Stats()
	if len(st.CompletionDepths) != 4 {
		t.Fatalf("len(CompletionDepths) = %d, want 4", len(st.CompletionDepths))
	}
	var sum int64
	for i, depth := range st.CompletionDepths {
		sum += depth
		if depth != nReqs/4 {
			t.Errorf("ring %d depth = %d, want %d (idx%%4 routing)", i, depth, nReqs/4)
		}
	}
	if sum != st.CompletionDepth || sum != nReqs {
		t.Errorf("depth sum = %d, CompletionDepth = %d, want both %d", sum, st.CompletionDepth, nReqs)
	}

	buf := make([]*Request, nReqs)
	n := d.RetrieveCompletedBatch(buf)
	if n != nReqs {
		t.Fatalf("RetrieveCompletedBatch = %d, want %d", n, nReqs)
	}
	held := make([]uint32, 0, n)
	seen := map[uint32]bool{}
	for _, r := range buf[:n] {
		if seen[r.idx] {
			t.Errorf("slot %d retrieved twice", r.idx)
		}
		seen[r.idx] = true
		held = append(held, r.idx)
	}
	if err := d.AuditSlots(held); err != nil {
		t.Error(err)
	}
	if st := d.Stats(); st.DoubleCompletes != 0 {
		t.Errorf("DoubleCompletes = %d, want 0", st.DoubleCompletes)
	}
}
