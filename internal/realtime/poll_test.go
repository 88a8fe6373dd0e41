package realtime

// Poll-side and per-core completion-ring coverage: the Poll/PollContext
// spin-before-sleep micro-wait, its sleeping slow path, and round-robin
// completion routing across rings.

import (
	"bytes"
	"runtime"
	"testing"
	"time"
)

// TestPollMicroWaitSpins pins the Poll spin-before-sleep micro-wait:
// with a few-microsecond copy delay, a high-rate poller must resolve at
// least some waits inside the spin budget (PollerSpins > 0).
func TestPollMicroWaitSpins(t *testing.T) {
	if runtime.GOMAXPROCS(0) < 2 {
		t.Skip("the micro-wait is off on a single P: nothing can complete while the poller spins")
	}
	d := Open(Options{
		NumReqs:       16,
		StagingShards: 1,
		Controllers:   1,
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
