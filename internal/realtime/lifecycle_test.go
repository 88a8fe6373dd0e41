package realtime

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"os"
	"runtime/pprof"
	"sync"
	"testing"
	"time"

	"memif/internal/obs/lifecycle"
)

// checkMonotone asserts the stamped subset of a lifecycle's stages is
// non-decreasing in stage order — the core tracer invariant: whatever
// path a request takes (clean, canceled, failed, chunked, inline), time
// can only move forward through its stamps.
func checkMonotone(t *testing.T, lc lifecycle.Lifecycle) {
	t.Helper()
	last := int64(0)
	lastStage := lifecycle.Stage(0)
	for st := 0; st < lifecycle.NumStages; st++ {
		ts := lc.TS[st]
		if ts == 0 {
			continue
		}
		if ts < last {
			t.Errorf("lifecycle seq %d (slot %d, %v): stage %v at %d precedes %v at %d",
				lc.Seq, lc.Slot, lc.Outcome, lifecycle.Stage(st), ts, lastStage, last)
		}
		last, lastStage = ts, lifecycle.Stage(st)
	}
	if lc.TS[lifecycle.StageSubmit] == 0 {
		t.Errorf("lifecycle seq %d has no submit stamp", lc.Seq)
	}
	if lc.TS[lifecycle.StageRetrieved] == 0 {
		t.Errorf("lifecycle seq %d has no retrieved stamp", lc.Seq)
	}
}

// TestLifecycleCleanPipelineFullStamps checks that on an unchaotic
// chunked run every captured lifecycle carries all seven stamps in
// order and the span histograms cover every attribution bucket.
func TestLifecycleCleanPipelineFullStamps(t *testing.T) {
	d := Open(Options{
		NumReqs: 32, Controllers: 2, ChunkBytes: 8 << 10,
		TraceFullCapture: true,
	})
	defer d.Close()

	const n = 64
	src := bytes.Repeat([]byte{3}, 32<<10)
	for done := 0; done < n; {
		r := d.AllocRequest()
		if r == nil {
			t.Fatal("alloc failed")
		}
		r.Src, r.Dst = src, make([]byte, len(src))
		if err := d.Submit(r); err != nil {
			t.Fatal(err)
		}
		if !d.Poll(time.Second) {
			t.Fatal("Poll timed out")
		}
		for got := d.RetrieveCompleted(); got != nil; got = d.RetrieveCompleted() {
			d.FreeRequest(got)
			done++
		}
	}

	s := d.Stats().Lifecycle
	if !s.Enabled || s.SampleShift != 0 {
		t.Fatalf("full capture not enabled: %+v", s)
	}
	if s.Begun != n || s.Ended != n {
		t.Errorf("begun/ended = %d/%d, want %d/%d", s.Begun, s.Ended, n, n)
	}
	if len(s.Captured) != n {
		t.Fatalf("captured %d lifecycles, want %d", len(s.Captured), n)
	}
	for _, lc := range s.Captured {
		checkMonotone(t, lc)
		for st := 0; st < lifecycle.NumStages; st++ {
			if lc.TS[st] == 0 {
				t.Errorf("clean lifecycle seq %d missing stage %v", lc.Seq, lifecycle.Stage(st))
			}
		}
		if lc.Outcome != lifecycle.OutcomeOK {
			t.Errorf("clean lifecycle seq %d outcome %v", lc.Seq, lc.Outcome)
		}
		if lc.Bytes != int64(len(src)) {
			t.Errorf("lifecycle seq %d bytes %d, want %d", lc.Seq, lc.Bytes, len(src))
		}
	}
	for _, span := range []lifecycle.Span{
		lifecycle.SpanStagingWait, lifecycle.SpanDispatchWait, lifecycle.SpanRingWait,
		lifecycle.SpanCopy, lifecycle.SpanCompletionDwell, lifecycle.SpanTotal,
	} {
		if c := s.Spans.Spans[span].Count; c == 0 {
			t.Errorf("span %v has no samples on a fully sampled run", span)
		}
	}
}

// TestLifecycleMonotoneUnderCancelChaos freezes the controllers, lands
// a cancel storm mid-pipeline, releases, and requires every captured
// lifecycle — clean or canceled — to keep monotone stamps and a
// matching outcome.
func TestLifecycleMonotoneUnderCancelChaos(t *testing.T) {
	stall := make(chan struct{})
	var once sync.Once
	d := Open(Options{
		NumReqs: 32, Controllers: 2, ChunkBytes: 1 << 10,
		TraceFullCapture: true,
		Chaos: &ChaosHooks{
			BeforeChunkCopy: func(idx uint32, off, end int) { <-stall },
		},
	})
	defer d.Close()
	defer once.Do(func() { close(stall) })

	const n = 8
	reqs := make([]*Request, 0, n)
	src := bytes.Repeat([]byte{7}, 4<<10)
	for i := 0; i < n; i++ {
		r := d.AllocRequest()
		r.Src, r.Dst = src, make([]byte, len(src))
		if err := d.Submit(r); err != nil {
			t.Fatal(err)
		}
		reqs = append(reqs, r)
	}
	for i, r := range reqs {
		if i%2 == 0 {
			d.Cancel(r)
		}
	}
	once.Do(func() { close(stall) })
	got := drainAll(t, d, n)

	s := d.Stats().Lifecycle
	if len(s.Captured) != n {
		t.Fatalf("captured %d lifecycles, want %d", len(s.Captured), n)
	}
	okCount, canceledCount := 0, 0
	for _, lc := range s.Captured {
		checkMonotone(t, lc)
		switch lc.Outcome {
		case lifecycle.OutcomeOK:
			okCount++
		case lifecycle.OutcomeCanceled:
			canceledCount++
		default:
			t.Errorf("unexpected outcome %v for seq %d", lc.Outcome, lc.Seq)
		}
	}
	if canceledCount == 0 {
		t.Error("cancel storm produced no canceled lifecycles")
	}
	wantCanceled := 0
	for _, r := range got {
		if errors.Is(r.Err, ErrCanceled) {
			wantCanceled++
		}
		d.FreeRequest(r)
	}
	if canceledCount != wantCanceled {
		t.Errorf("captured %d canceled lifecycles, device reports %d", canceledCount, wantCanceled)
	}
	_ = okCount
}

// TestLifecycleErrNoSlotsPath forces every staging enqueue to exhaust
// and submits a batch, whose contract surfaces each failure as a
// completion: every request completes with ErrNoSlots having never been
// dispatched, and their lifecycles must reflect that — failed outcome,
// no dispatch/copy stamps, still monotone.
func TestLifecycleErrNoSlotsPath(t *testing.T) {
	d := Open(Options{
		NumReqs: 8, Controllers: 1,
		TraceFullCapture: true,
		Chaos: &ChaosHooks{
			StagingEnqueue: func(idx uint32) bool { return true },
		},
	})
	defer d.Close()

	const n = 4
	src := make([]byte, 4096)
	batch := make([]*Request, n)
	for i := range batch {
		r := d.AllocRequest()
		r.Src, r.Dst = src, make([]byte, len(src))
		batch[i] = r
	}
	if err := d.SubmitBatch(batch); err != nil {
		t.Fatal(err)
	}
	got := drainAll(t, d, n)
	failed := 0
	for _, r := range got {
		if errors.Is(r.Err, ErrNoSlots) {
			failed++
		}
		d.FreeRequest(r)
	}
	if failed != n {
		t.Fatalf("forced exhaustion produced %d ErrNoSlots completions of %d", failed, n)
	}
	s := d.Stats().Lifecycle
	for _, lc := range s.Captured {
		checkMonotone(t, lc)
		if lc.Outcome != lifecycle.OutcomeFailed {
			continue
		}
		if lc.TS[lifecycle.StageDispatched] != 0 || lc.TS[lifecycle.StageCopyStart] != 0 {
			t.Errorf("undispatched lifecycle seq %d has dispatch/copy stamps: %v", lc.Seq, lc.TS)
		}
	}
	// The failed path must not leak span samples for stages never reached.
	if c := s.Spans.Spans[lifecycle.SpanCopy].Count; c != 0 {
		t.Errorf("copy span has %d samples with every dispatch exhausted", c)
	}
}

// TestLifecycleSamplingRateOnDevice submits sequentially at shift 3 and
// requires exactly 1 in 8 requests sampled — the deterministic counter
// decision, observable end to end through Stats.
func TestLifecycleSamplingRateOnDevice(t *testing.T) {
	d := Open(Options{NumReqs: 8, Controllers: 1, TraceSampleShift: 3})
	defer d.Close()

	const n = 64
	src := make([]byte, 4096)
	for i := 0; i < n; i++ {
		r := d.AllocRequest()
		r.Src, r.Dst = src, make([]byte, len(src))
		if err := d.Submit(r); err != nil {
			t.Fatal(err)
		}
		if !d.Poll(time.Second) {
			t.Fatal("Poll timed out")
		}
		for got := d.RetrieveCompleted(); got != nil; got = d.RetrieveCompleted() {
			d.FreeRequest(got)
		}
	}
	s := d.Stats().Lifecycle
	if s.SampleShift != 3 {
		t.Fatalf("sample shift = %d, want 3", s.SampleShift)
	}
	if want := int64(n / 8); s.Begun != want || s.Ended != want {
		t.Errorf("begun/ended = %d/%d, want %d/%d at shift 3", s.Begun, s.Ended, want, want)
	}
	if c := s.Spans.Spans[lifecycle.SpanTotal].Count; c != int64(n/8) {
		t.Errorf("total span samples = %d, want %d", c, n/8)
	}
}

// TestLifecycleDisabled checks a negative shift turns the tracer off
// entirely.
func TestLifecycleDisabled(t *testing.T) {
	d := Open(Options{NumReqs: 8, Controllers: 1, TraceSampleShift: -1})
	defer d.Close()
	src := make([]byte, 4096)
	r := d.AllocRequest()
	r.Src, r.Dst = src, make([]byte, len(src))
	if err := d.Submit(r); err != nil {
		t.Fatal(err)
	}
	if !d.Poll(time.Second) {
		t.Fatal("Poll timed out")
	}
	got := d.RetrieveCompleted()
	d.FreeRequest(got)
	s := d.Stats().Lifecycle
	if s.Enabled || s.SampleShift != -1 || s.Begun != 0 || len(s.Captured) != 0 {
		t.Errorf("disabled tracer recorded: %+v", s)
	}
}

// dumpIfStalled arms a timer that writes every goroutine's stack to
// stderr once if an overhead guard is still running after five minutes
// (a lone run takes 15–20 s), so a stalled guard leaves its stacks
// behind instead of waiting silently for the test timeout. The guard
// stops the timer when it returns.
func dumpIfStalled(name string) *time.Timer {
	const after = 5 * time.Minute
	return time.AfterFunc(after, func() {
		fmt.Fprintf(os.Stderr, "%s still running after %v; goroutine stacks:\n", name, after)
		pprof.Lookup("goroutine").WriteTo(os.Stderr, 2)
	})
}

// TestLifecycleTracingOverheadGuard is the CI benchmark guard for the
// always-on tracing cost: at the default sample shift, the acceptance
// benchmark configuration (8 submitters, 4 KB batched x16 — the
// batched16 case of BenchmarkSmallRequest8Submitters) must run
// within 3% of the tracing-disabled build. Gated behind
// MEMIF_BENCH_GUARD because it spends several benchmark windows.
func TestLifecycleTracingOverheadGuard(t *testing.T) {
	if os.Getenv("MEMIF_BENCH_GUARD") == "" {
		t.Skip("set MEMIF_BENCH_GUARD=1 to run the tracing-overhead guard")
	}
	defer dumpIfStalled(t.Name()).Stop()
	measure := func(shift int) float64 {
		r := testing.Benchmark(func(b *testing.B) {
			benchConcurrentSubmit(b, 8, 4<<10, 16, Options{
				NumReqs: 512, Controllers: 4,
				TraceSampleShift: shift,
				// Disarm the flight recorder on both sides so this guard
				// isolates the lifecycle-sampling cost; the recorder has
				// its own guard (TestFlightOverheadGuard).
				Flight: lifecycle.FlightOptions{Disable: true},
			})
		})
		return float64(r.NsPerOp())
	}
	// Interleave the two configurations and keep each one's minimum, so
	// machine-load drift hits both sides equally and the lower-bound
	// ns/op comparison stays stable.
	off, on := math.MaxFloat64, math.MaxFloat64
	for round := 0; round < 6; round++ {
		if v := measure(-1); v < off { // tracing disabled
			off = v
		}
		if v := measure(0); v < on { // 0 resolves to DefaultTraceSampleShift
			on = v
		}
	}
	ratio := on / off
	t.Logf("tracing-disabled %.0f ns/op, default sampling %.0f ns/op, ratio %.4f", off, on, ratio)
	if ratio > 1.03 {
		t.Errorf("default lifecycle sampling costs %.1f%% (> 3%% budget)", (ratio-1)*100)
	}
}

// TestFlightOverheadGuard is the CI benchmark guard for the always-on
// flight recorder: with capture armed at defaults (per-slot stage
// stamping, threshold comparison on every completion, SLO accounting,
// watchdog monitor running), the acceptance benchmark configuration
// must run within 2% of the recorder-disabled build. Gated behind
// MEMIF_BENCH_GUARD because it spends several benchmark windows.
func TestFlightOverheadGuard(t *testing.T) {
	if os.Getenv("MEMIF_BENCH_GUARD") == "" {
		t.Skip("set MEMIF_BENCH_GUARD=1 to run the flight-overhead guard")
	}
	defer dumpIfStalled(t.Name()).Stop()
	measure := func(disable bool) float64 {
		r := testing.Benchmark(func(b *testing.B) {
			benchConcurrentSubmit(b, 8, 4<<10, 16, Options{
				NumReqs: 512, Controllers: 4,
				Flight: lifecycle.FlightOptions{Disable: disable},
			})
		})
		return float64(r.NsPerOp())
	}
	// Interleaved min-of-6, as above: load drift hits both sides alike.
	off, on := math.MaxFloat64, math.MaxFloat64
	for round := 0; round < 6; round++ {
		if v := measure(true); v < off {
			off = v
		}
		if v := measure(false); v < on {
			on = v
		}
	}
	ratio := on / off
	t.Logf("flight-disabled %.0f ns/op, capture armed %.0f ns/op, ratio %.4f", off, on, ratio)
	if ratio > 1.02 {
		t.Errorf("armed flight recorder costs %.1f%% (> 2%% budget)", (ratio-1)*100)
	}
}
