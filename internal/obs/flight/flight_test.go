package flight

import (
	"encoding/json"
	"sync"
	"testing"
	"time"

	"memif/internal/obs/lifecycle"
)

func TestDisabledRecorderIsNil(t *testing.T) {
	if New(Options{Disable: true}, true) != nil {
		t.Fatal("Disable should yield a nil recorder")
	}
	var r *Recorder
	// Every method must be a no-op on nil.
	r.EnsureTenants(8)
	if thr, breach := r.Observe(0, 0, 1e9, true); thr != 0 || breach {
		t.Fatalf("nil Observe = (%d, %v), want (0, false)", thr, breach)
	}
	r.Capture(&lifecycle.Lifecycle{})
	r.CaptureStall(lifecycle.ReasonWorkerStall, 1, lifecycle.Ambient{})
	r.CaptureEvent(&lifecycle.Lifecycle{})
	r.Tick(1)
	if s := r.Snapshot(); s.Enabled {
		t.Fatal("nil Snapshot should report disabled")
	}
	var w *Watchdog
	if got := w.Tick(ProbeState{}); got != nil {
		t.Fatalf("nil watchdog Tick = %v, want nil", got)
	}
}

func TestThresholdAdaptation(t *testing.T) {
	r := New(Options{ThresholdFloorNs: 1, ThresholdMult: 4, Warmup: 4}, true)
	// Warmup: no breach regardless of latency.
	for i := 0; i < 4; i++ {
		if _, breach := r.Observe(0, 0, 1_000, true); breach {
			t.Fatalf("breach during warmup at observation %d", i)
		}
	}
	// Lane trained at ~1µs; threshold ≈ 4µs.
	thr, breach := r.Observe(0, 0, 1_000, true)
	if breach {
		t.Fatal("nominal latency flagged as breach")
	}
	if thr < 3_000 || thr > 5_000 {
		t.Fatalf("threshold = %d, want ≈4000", thr)
	}
	// A 100µs request breaches.
	if _, breach := r.Observe(0, 0, 100_000, true); !breach {
		t.Fatal("100x latency not flagged")
	}
	if got := r.Snapshot().Breaches; got != 1 {
		t.Fatalf("breaches = %d, want 1", got)
	}
	// The breach itself raised the EWMA; the threshold must follow.
	thr2, _ := r.Observe(0, 0, 1_000, true)
	if thr2 <= thr {
		t.Fatalf("threshold did not adapt upward: %d -> %d", thr, thr2)
	}
}

func TestThresholdFloor(t *testing.T) {
	r := New(Options{ThresholdFloorNs: 50_000, Warmup: 1}, true)
	r.Observe(0, 0, 100, true) // warm
	thr, breach := r.Observe(0, 0, 40_000, true)
	if thr != 50_000 {
		t.Fatalf("threshold = %d, want floor 50000", thr)
	}
	if breach {
		t.Fatal("latency under the floor flagged as breach")
	}
}

func TestNonOKOutcomesDoNotTrain(t *testing.T) {
	r := New(Options{ThresholdFloorNs: 1, Warmup: 1}, true)
	for i := 0; i < 100; i++ {
		r.Observe(0, 0, 1_000_000, false) // canceled storm must not inflate the lane
	}
	snap := r.Snapshot()
	if len(snap.Thresholds) != 0 {
		t.Fatalf("failed completions trained a lane: %+v", snap.Thresholds)
	}
	for _, cs := range snap.SLO.Classes {
		if cs.Total != 0 {
			t.Fatalf("failed completions counted toward SLO: %+v", cs)
		}
	}
}

func TestRingWrapKeepsNewest(t *testing.T) {
	r := New(Options{RingDepth: 4}, true)
	for i := 1; i <= 10; i++ {
		r.Capture(&lifecycle.Lifecycle{Kind: lifecycle.KindLatency, LatencyNs: int64(i)})
	}
	s := r.Snapshot()
	if s.Captured != 10 {
		t.Fatalf("captured = %d, want 10", s.Captured)
	}
	if len(s.Outliers) != 4 {
		t.Fatalf("ring holds %d, want 4", len(s.Outliers))
	}
	for i, o := range s.Outliers {
		wantSeq := uint64(7 + i)
		if o.Seq != wantSeq || o.LatencyNs != int64(7+i) {
			t.Fatalf("outlier %d = seq %d lat %d, want seq %d", i, o.Seq, o.LatencyNs, wantSeq)
		}
	}
}

func TestCaptureRoundTrip(t *testing.T) {
	r := New(Options{}, true)
	in := lifecycle.Lifecycle{
		Kind: lifecycle.KindLatency, Reason: lifecycle.ReasonNone, Nano: 123, Slot: 7, Class: 1,
		Tenant: 3, Bytes: 4096, Outcome: 2, Flags: 0x3,
		LatencyNs: 999_999, ThresholdNs: 200_000,
		TS:      [7]int64{1, 2, 3, 4, 5, 6, 7},
		Ambient: lifecycle.Ambient{StagingDepth: 1, SubmissionDepth: 2, CompletionDepth: 3, RingDepth: 4, ClassInFlight: [lifecycle.MaxClasses]int64{9, 8, 7, 6}},
	}
	r.Capture(&in)
	s := r.Snapshot()
	if len(s.Outliers) != 1 {
		t.Fatalf("got %d outliers, want 1", len(s.Outliers))
	}
	got := s.Outliers[0]
	in.Seq = got.Seq
	if got != in {
		t.Fatalf("round trip mismatch:\n got %+v\nwant %+v", got, in)
	}
}

func TestStallAndEventCounters(t *testing.T) {
	r := New(Options{}, true)
	r.CaptureStall(lifecycle.ReasonWorkerStall, 5, lifecycle.Ambient{CompletionDepth: 9})
	r.CaptureEvent(&lifecycle.Lifecycle{Reason: lifecycle.ReasonTxnAbort, Bytes: 4096})
	s := r.Snapshot()
	if s.Stalls != 1 || s.Events != 1 || s.Captured != 2 || s.Breaches != 0 {
		t.Fatalf("counters = %+v", s)
	}
	if s.Outliers[0].Kind != lifecycle.KindStall || s.Outliers[0].Reason != lifecycle.ReasonWorkerStall {
		t.Fatalf("stall record = %+v", s.Outliers[0])
	}
	if s.Outliers[1].Kind != lifecycle.KindEvent || s.Outliers[1].Reason != lifecycle.ReasonTxnAbort {
		t.Fatalf("event record = %+v", s.Outliers[1])
	}
}

func TestEnsureTenantsAndClamp(t *testing.T) {
	r := New(Options{ThresholdFloorNs: 1, Warmup: 1}, true)
	r.EnsureTenants(3)
	r.Observe(0, 2, 500, true)
	// Out-of-range tenant and class clamp to lane 0.
	r.Observe(99, 99, 700, true)
	s := r.Snapshot()
	var seen [2]bool
	for _, lt := range s.Thresholds {
		switch {
		case lt.Tenant == 2 && lt.Class == 0:
			seen[0] = true
		case lt.Tenant == 0 && lt.Class == 0:
			seen[1] = true
		default:
			t.Fatalf("unexpected lane %+v", lt)
		}
	}
	if !seen[0] || !seen[1] {
		t.Fatalf("lanes = %+v", s.Thresholds)
	}
	// Shrinking is a no-op.
	r.EnsureTenants(1)
	if got := len(*r.lanes.Load()); got != 3 {
		t.Fatalf("table shrank to %d", got)
	}
}

func TestSLOBurn(t *testing.T) {
	r := New(Options{Warmup: 1}, true)
	r.objectives = [lifecycle.MaxClasses]int64{1_000, 0, 0, 0}
	r.windows = []*wring{newWring(int64(time.Microsecond * windowEntries))}
	nano := int64(0)
	r.Tick(nano)
	// 50 good, 50 bad on class 0.
	for i := 0; i < 50; i++ {
		r.Observe(0, 0, 500, true)
		r.Observe(0, 0, 5_000, true)
	}
	nano += 1_000
	r.Tick(nano)
	s := r.Snapshot()
	if len(s.SLO.Classes) != 1 {
		t.Fatalf("classes = %+v", s.SLO.Classes)
	}
	cs := s.SLO.Classes[0]
	if cs.Good != 50 || cs.Total != 100 {
		t.Fatalf("good/total = %d/%d, want 50/100", cs.Good, cs.Total)
	}
	// Bad fraction 0.5 against budget 0.001 → burn 500.
	if len(cs.Burn) != 1 || cs.Burn[0].Burn < 499 || cs.Burn[0].Burn > 501 {
		t.Fatalf("burn = %+v, want ≈500", cs.Burn)
	}
	// Tenant 0 mirrors the class totals here.
	if len(s.SLO.Tenants) != 1 || s.SLO.Tenants[0].Total != 100 || !s.SLO.Tenants[0].Windowed {
		t.Fatalf("tenants = %+v", s.SLO.Tenants)
	}
}

func TestSLOWindowExpiry(t *testing.T) {
	// After the window passes with only good completions, windowed
	// burn must drop to 0 while cumulative totals keep the history.
	win := time.Microsecond * windowEntries // 64µs window, 1µs interval
	r := New(Options{Warmup: 1}, true)
	r.objectives = [lifecycle.MaxClasses]int64{1_000, 0, 0, 0}
	r.windows = []*wring{newWring(int64(win))}
	nano := int64(0)
	r.Tick(nano)
	for i := 0; i < 10; i++ {
		r.Observe(0, 0, 5_000, true) // all bad
	}
	// Tick the full window away with good-only traffic.
	for i := 0; i < 2*windowEntries; i++ {
		nano += 1_000
		r.Observe(0, 0, 100, true)
		r.Tick(nano)
	}
	cs := r.Snapshot().SLO.Classes[0]
	if cs.Burn[0].Burn != 0 {
		t.Fatalf("windowed burn = %v after bad burst aged out, want 0", cs.Burn[0].Burn)
	}
	if cs.Total != 10+2*windowEntries || cs.Good != 2*windowEntries {
		t.Fatalf("cumulative good/total = %d/%d", cs.Good, cs.Total)
	}
}

func TestWatchdogEpisodes(t *testing.T) {
	w := NewWatchdog()
	stalled := ProbeState{QueuedWork: true, DispatchProgress: 42}
	// Baseline tick: the watchdog learns the progress counters.
	w.Tick(ProbeState{DispatchProgress: 42})
	// Ticks 1..2: arming, nothing fires.
	for i := 0; i < 2; i++ {
		if got := w.Tick(stalled); len(got) != 0 {
			t.Fatalf("tick %d fired %v", i, got)
		}
	}
	// Tick 3: fires once.
	if got := w.Tick(stalled); len(got) != 1 || got[0] != lifecycle.ReasonWorkerStall {
		t.Fatalf("tick 3 = %v, want [worker_stall]", got)
	}
	// Still stalled: latched, no refire.
	if got := w.Tick(stalled); len(got) != 0 {
		t.Fatalf("latched tick fired %v", got)
	}
	// Progress resets the episode...
	if got := w.Tick(ProbeState{QueuedWork: true, DispatchProgress: 43}); len(got) != 0 {
		t.Fatalf("progress tick fired %v", got)
	}
	// ...and a new stall episode fires again after stallTicks.
	for i := 0; i < 2; i++ {
		w.Tick(ProbeState{QueuedWork: true, DispatchProgress: 43})
	}
	if got := w.Tick(ProbeState{QueuedWork: true, DispatchProgress: 43}); len(got) != 1 {
		t.Fatalf("second episode did not fire: %v", got)
	}
}

func TestWatchdogBacklogAndStarvation(t *testing.T) {
	w := NewWatchdog()
	w.needTicks = 2
	// Completion ring at high water AND nothing retrieving. Tick 1 is
	// the starvation baseline (it learns RetrieveProgress) but already
	// counts for the backlog, which fires on tick 2; starvation arms
	// on tick 2 and fires on tick 3. Latches are independent.
	p := ProbeState{CompletionDepth: 96, CompletionCap: 128, RetrieveProgress: 7, DispatchProgress: 1}
	w.Tick(p)
	p.DispatchProgress++ // keep the worker "alive"
	if got := w.Tick(p); len(got) != 1 || got[0] != lifecycle.ReasonCompletionBacklog {
		t.Fatalf("tick 2 = %v, want [completion_backlog]", got)
	}
	p.DispatchProgress++
	if got := w.Tick(p); len(got) != 1 || got[0] != lifecycle.ReasonPollerStarvation {
		t.Fatalf("tick 3 = %v, want [poller_starvation]", got)
	}
	// Draining below high water clears the backlog latch; retrieval
	// progress clears starvation.
	p = ProbeState{CompletionDepth: 10, CompletionCap: 128, RetrieveProgress: 8, DispatchProgress: 3}
	if got := w.Tick(p); len(got) != 0 {
		t.Fatalf("drained tick fired %v", got)
	}
}

// Four goroutines observe, breach and capture while the test goroutine
// snapshots; stall records share the ring with the breach records. The
// ring is deep enough for every capture of the run, so once the writers
// are done nothing may be missing: every breach and every stall is still
// retained (the no-holes conservation a deep ring owes its reader —
// retained breaches >= breaches - (captured - breaches) is the weaker
// form that holds whenever breaches alone fit the ring).
func TestConcurrentCaptureAndSnapshot(t *testing.T) {
	const workers, perWorker = 4, 2048
	r := New(Options{RingDepth: 2 * workers * perWorker, ThresholdFloorNs: 1, ThresholdMult: 1, Warmup: 1}, true)
	r.EnsureTenants(workers)
	var wg sync.WaitGroup
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				lat := int64(1_000 + i%7)
				if thr, breach := r.Observe(g%2, g, lat, true); breach {
					o := lifecycle.Lifecycle{Kind: lifecycle.KindLatency, Class: g % 2, Tenant: g, LatencyNs: lat, ThresholdNs: thr}
					r.Capture(&o)
				}
				if i%64 == 0 {
					r.CaptureStall(lifecycle.ReasonWorkerStall, int64(i), lifecycle.Ambient{})
				}
			}
		}(g)
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	for running := true; running; {
		select {
		case <-done:
			running = false
		default:
		}
		s := r.Snapshot()
		for i := 1; i < len(s.Outliers); i++ {
			if s.Outliers[i].Seq <= s.Outliers[i-1].Seq {
				t.Errorf("snapshot out of order at %d", i)
			}
		}
		r.Tick(time.Since(time.Time{}).Nanoseconds())
	}
	s := r.Snapshot()
	var latency, stalls int64
	for _, o := range s.Outliers {
		switch o.Kind {
		case lifecycle.KindLatency:
			latency++
		case lifecycle.KindStall:
			stalls++
		}
	}
	if s.Breaches == 0 || s.Captured != s.Breaches+s.Stalls {
		t.Fatalf("counters: breaches %d + stalls %d != captured %d", s.Breaches, s.Stalls, s.Captured)
	}
	if latency != s.Breaches || stalls != s.Stalls {
		t.Errorf("ring of %d retains %d of %d breaches and %d of %d stalls", s.RingDepth, latency, s.Breaches, stalls, s.Stalls)
	}
}

func TestKindReasonJSON(t *testing.T) {
	o := lifecycle.Lifecycle{Kind: lifecycle.KindStall, Reason: lifecycle.ReasonCompletionBacklog}
	b, err := json.Marshal(o)
	if err != nil {
		t.Fatal(err)
	}
	var back lifecycle.Lifecycle
	if err := json.Unmarshal(b, &back); err != nil {
		t.Fatal(err)
	}
	if back.Kind != lifecycle.KindStall || back.Reason != lifecycle.ReasonCompletionBacklog {
		t.Fatalf("round trip = %+v", back)
	}
	var k lifecycle.Kind
	if err := json.Unmarshal([]byte(`"latency"`), &k); err != nil || k != lifecycle.KindLatency {
		t.Fatalf("kind from name: %v %v", k, err)
	}
	if err := json.Unmarshal([]byte(`"bogus"`), &k); err == nil {
		t.Fatal("unknown kind accepted")
	}
}

func TestObserveAllocFree(t *testing.T) {
	r := New(Options{Warmup: 1}, true)
	r.Observe(0, 0, 100, true)
	allocs := testing.AllocsPerRun(1000, func() {
		r.Observe(0, 0, 1_000, true)
	})
	if allocs != 0 {
		t.Fatalf("Observe allocates %v/op", allocs)
	}
	o := lifecycle.Lifecycle{Kind: lifecycle.KindLatency}
	allocs = testing.AllocsPerRun(1000, func() {
		r.Capture(&o)
	})
	if allocs != 0 {
		t.Fatalf("Capture allocates %v/op", allocs)
	}
	nano := int64(0)
	allocs = testing.AllocsPerRun(1000, func() {
		nano += 10_000_000
		r.Tick(nano)
	})
	if allocs != 0 {
		t.Fatalf("Tick allocates %v/op", allocs)
	}
}

// The outlier ring's side of lifecycle's test of the same name: one
// writer captures records whose every field equals their ticket into a
// two-slot ring, and no concurrent Snapshot may return a mixed one.
func TestSnapshotNeverTears(t *testing.T) {
	r := New(Options{RingDepth: 2}, false)
	done := make(chan struct{})
	go func() {
		defer close(done)
		for v := int64(1); v <= 1_000_000; v++ {
			o := lifecycle.Lifecycle{Nano: v, Bytes: v, LatencyNs: v, ThresholdNs: v}
			for i := range o.TS {
				o.TS[i] = v
			}
			r.Capture(&o)
		}
	}()
	for running := true; running; {
		select {
		case <-done:
			running = false
		default:
		}
		for _, got := range r.Snapshot().Outliers {
			v := int64(got.Seq)
			want := lifecycle.Lifecycle{Seq: got.Seq, Nano: v, Bytes: v, LatencyNs: v, ThresholdNs: v}
			for i := range want.TS {
				want.TS[i] = v
			}
			if got != want {
				t.Fatalf("torn record: %+v", got)
			}
		}
	}
}
