package lifecycle

import (
	"encoding/json"
	"sync"
	"testing"
	"time"
)

// flight is a recorder with only its outlier half armed, on the wall
// clock (SLO windows) or not.
func flight(o FlightOptions, wallClock bool) *Recorder {
	return NewRecorder(Config{SampleShift: -1, Flight: o, WallClock: wallClock})
}

// observe hands r one unsampled finished request as a batch of one and
// returns the threshold in force and whether the request breached it.
func observe(r *Recorder, class, tenant int, lat int64, ok bool) (thresholdNs int64, breach bool) {
	lc := Lifecycle{Class: class, Tenant: tenant, LatencyNs: lat}
	if !ok {
		lc.Outcome = OutcomeFailed
	}
	before := r.breaches.Load()
	r.Finish(nil, &lc, false)
	return lc.ThresholdNs, r.breaches.Load() != before
}

// Flight.Disable disarms the outlier half only: the sampled half keeps
// recording stage spans.
func TestFlightDisableKeepsSpans(t *testing.T) {
	r := NewRecorder(Config{Flight: FlightOptions{Disable: true}})
	lc := Lifecycle{LatencyNs: 1e9, TS: Stamps(1, 2, 3, 4, 5, 6, 7)}
	r.Finish(nil, &lc, true)
	if lc.ThresholdNs != 0 {
		t.Errorf("disarmed recorder judged the request: threshold %d", lc.ThresholdNs)
	}
	if s := r.FlightSnapshot(); s.Enabled || s.Breaches != 0 || s.Captured != 0 {
		t.Errorf("disarmed flight snapshot = %+v", s)
	}
	if n := r.Spans().Spans[SpanTotal].Count; n != 1 {
		t.Errorf("disarmed recorder kept %d total spans, want 1", n)
	}
}

func TestThresholdAdaptation(t *testing.T) {
	r := flight(FlightOptions{ThresholdFloorNs: 1, ThresholdMult: 4, Warmup: 4}, true)
	// Warmup: no breach regardless of latency.
	for i := 0; i < 4; i++ {
		if _, breach := observe(r, 0, 0, 1_000, true); breach {
			t.Fatalf("breach during warmup at observation %d", i)
		}
	}
	// Lane trained at ~1µs; threshold ≈ 4µs.
	thr, breach := observe(r, 0, 0, 1_000, true)
	if breach {
		t.Fatal("nominal latency flagged as breach")
	}
	if thr < 3_000 || thr > 5_000 {
		t.Fatalf("threshold = %d, want ≈4000", thr)
	}
	// A 100µs request breaches.
	if _, breach := observe(r, 0, 0, 100_000, true); !breach {
		t.Fatal("100x latency not flagged")
	}
	if got := r.FlightSnapshot().Breaches; got != 1 {
		t.Fatalf("breaches = %d, want 1", got)
	}
	// The breach itself raised the EWMA; the threshold must follow.
	thr2, _ := observe(r, 0, 0, 1_000, true)
	if thr2 <= thr {
		t.Fatalf("threshold did not adapt upward: %d -> %d", thr, thr2)
	}
}

func TestThresholdFloor(t *testing.T) {
	r := flight(FlightOptions{ThresholdFloorNs: 50_000, Warmup: 1}, true)
	observe(r, 0, 0, 100, true) // warm
	thr, breach := observe(r, 0, 0, 40_000, true)
	if thr != 50_000 {
		t.Fatalf("threshold = %d, want floor 50000", thr)
	}
	if breach {
		t.Fatal("latency under the floor flagged as breach")
	}
}

func TestNonOKOutcomesDoNotTrain(t *testing.T) {
	r := flight(FlightOptions{ThresholdFloorNs: 1, Warmup: 1}, true)
	for i := 0; i < 100; i++ {
		observe(r, 0, 0, 1_000_000, false) // canceled storm must not inflate the lane
	}
	snap := r.FlightSnapshot()
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
	r := flight(FlightOptions{}, true)
	r.outliers = NewRing(4)
	for i := 1; i <= 10; i++ {
		r.capture(&Lifecycle{Kind: KindLatency, LatencyNs: int64(i)})
	}
	s := r.FlightSnapshot()
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
	r := flight(FlightOptions{}, true)
	in := Lifecycle{
		Kind: KindLatency, Reason: ReasonNone, Nano: 123, Slot: 7, Class: 1,
		Tenant: 3, Bytes: 4096, Outcome: 2, Flags: 0x3,
		LatencyNs: 999_999, ThresholdNs: 200_000,
		TS:      [7]int64{1, 2, 3, 4, 5, 6, 7},
		Ambient: Ambient{StagingDepth: 1, SubmissionDepth: 2, CompletionDepth: 3, RingDepth: 4, ClassInFlight: [MaxClasses]int64{9, 8, 7, 6}},
	}
	r.capture(&in)
	s := r.FlightSnapshot()
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
	r := NewRecorder(Config{SampleShift: -1, WallClock: true,
		Ambient: func() Ambient { return Ambient{CompletionDepth: 9} }})
	r.watch.needTicks = 1
	r.Tick(5, ProbeState{QueuedWork: true})
	r.CaptureEvent(&Lifecycle{Reason: ReasonTxnAbort, Bytes: 4096})
	s := r.FlightSnapshot()
	if s.Stalls != 1 || s.Events != 1 || s.Captured != 2 || s.Breaches != 0 {
		t.Fatalf("counters = %+v", s)
	}
	if s.Outliers[0].Kind != KindStall || s.Outliers[0].Reason != ReasonWorkerStall ||
		s.Outliers[0].Nano != 5 || s.Outliers[0].Ambient.CompletionDepth != 9 {
		t.Fatalf("stall record = %+v", s.Outliers[0])
	}
	if s.Outliers[1].Kind != KindEvent || s.Outliers[1].Reason != ReasonTxnAbort {
		t.Fatalf("event record = %+v", s.Outliers[1])
	}
}

func TestEnsureTenantsAndClamp(t *testing.T) {
	r := flight(FlightOptions{ThresholdFloorNs: 1, Warmup: 1}, true)
	r.EnsureTenants(3)
	observe(r, 0, 2, 500, true)
	// Out-of-range tenant and class clamp to lane 0.
	observe(r, 99, 99, 700, true)
	s := r.FlightSnapshot()
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
	r := flight(FlightOptions{Warmup: 1}, true)
	r.objectives = [MaxClasses]int64{1_000, 0, 0, 0}
	r.windows = []*wring{newWring(int64(time.Microsecond * windowEntries))}
	nano := int64(0)
	r.Tick(nano, ProbeState{})
	// 50 good, 50 bad on class 0.
	for i := 0; i < 50; i++ {
		observe(r, 0, 0, 500, true)
		observe(r, 0, 0, 5_000, true)
	}
	nano += 1_000
	r.Tick(nano, ProbeState{})
	s := r.FlightSnapshot()
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
	r := flight(FlightOptions{Warmup: 1}, true)
	r.objectives = [MaxClasses]int64{1_000, 0, 0, 0}
	r.windows = []*wring{newWring(int64(win))}
	nano := int64(0)
	r.Tick(nano, ProbeState{})
	for i := 0; i < 10; i++ {
		observe(r, 0, 0, 5_000, true) // all bad
	}
	// Tick the full window away with good-only traffic.
	for i := 0; i < 2*windowEntries; i++ {
		nano += 1_000
		observe(r, 0, 0, 100, true)
		r.Tick(nano, ProbeState{})
	}
	cs := r.FlightSnapshot().SLO.Classes[0]
	if cs.Burn[0].Burn != 0 {
		t.Fatalf("windowed burn = %v after bad burst aged out, want 0", cs.Burn[0].Burn)
	}
	if cs.Total != 10+2*windowEntries || cs.Good != 2*windowEntries {
		t.Fatalf("cumulative good/total = %d/%d", cs.Good, cs.Total)
	}
}

func TestWatchdogEpisodes(t *testing.T) {
	w := newWatchdog()
	stalled := ProbeState{QueuedWork: true, DispatchProgress: 42}
	// Baseline tick: the watchdog learns the progress counters.
	w.tick(ProbeState{DispatchProgress: 42})
	// Ticks 1..2: arming, nothing fires.
	for i := 0; i < 2; i++ {
		if got := w.tick(stalled); len(got) != 0 {
			t.Fatalf("tick %d fired %v", i, got)
		}
	}
	// Tick 3: fires once.
	if got := w.tick(stalled); len(got) != 1 || got[0] != ReasonWorkerStall {
		t.Fatalf("tick 3 = %v, want [worker_stall]", got)
	}
	// Still stalled: latched, no refire.
	if got := w.tick(stalled); len(got) != 0 {
		t.Fatalf("latched tick fired %v", got)
	}
	// Progress resets the episode...
	if got := w.tick(ProbeState{QueuedWork: true, DispatchProgress: 43}); len(got) != 0 {
		t.Fatalf("progress tick fired %v", got)
	}
	// ...and a new stall episode fires again after stallTicks.
	for i := 0; i < 2; i++ {
		w.tick(ProbeState{QueuedWork: true, DispatchProgress: 43})
	}
	if got := w.tick(ProbeState{QueuedWork: true, DispatchProgress: 43}); len(got) != 1 {
		t.Fatalf("second episode did not fire: %v", got)
	}
}

func TestWatchdogBacklogAndStarvation(t *testing.T) {
	w := newWatchdog()
	w.needTicks = 2
	// Completion ring at high water AND nothing retrieving. Tick 1 is
	// the starvation baseline (it learns RetrieveProgress) but already
	// counts for the backlog, which fires on tick 2; starvation arms
	// on tick 2 and fires on tick 3. Latches are independent.
	p := ProbeState{CompletionDepth: 96, CompletionCap: 128, RetrieveProgress: 7, DispatchProgress: 1}
	w.tick(p)
	p.DispatchProgress++ // keep the worker "alive"
	if got := w.tick(p); len(got) != 1 || got[0] != ReasonCompletionBacklog {
		t.Fatalf("tick 2 = %v, want [completion_backlog]", got)
	}
	p.DispatchProgress++
	if got := w.tick(p); len(got) != 1 || got[0] != ReasonPollerStarvation {
		t.Fatalf("tick 3 = %v, want [poller_starvation]", got)
	}
	// Draining below high water clears the backlog latch; retrieval
	// progress clears starvation.
	p = ProbeState{CompletionDepth: 10, CompletionCap: 128, RetrieveProgress: 8, DispatchProgress: 3}
	if got := w.tick(p); len(got) != 0 {
		t.Fatalf("drained tick fired %v", got)
	}
}

// Four goroutines finish requests, breach and capture events while the
// test goroutine snapshots and ticks; event records share the ring with
// the breach records. The
// ring is deep enough for every capture of the run, so once the writers
// are done nothing may be missing: every breach and every stall is still
// retained (the no-holes conservation a deep ring owes its reader —
// retained breaches >= breaches - (captured - breaches) is the weaker
// form that holds whenever breaches alone fit the ring).
func TestConcurrentCaptureAndSnapshot(t *testing.T) {
	const workers, perWorker = 4, 2048
	r := flight(FlightOptions{ThresholdFloorNs: 1, ThresholdMult: 1, Warmup: 1}, true)
	r.outliers = NewRing(2 * workers * perWorker)
	r.EnsureTenants(workers)
	var wg sync.WaitGroup
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				lat := int64(1_000 + i%7)
				r.Finish(nil, &Lifecycle{Class: g % 2, Tenant: g, LatencyNs: lat}, false)
				if i%64 == 0 {
					r.CaptureEvent(&Lifecycle{Reason: ReasonTxnAbort, Nano: int64(i)})
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
		s := r.FlightSnapshot()
		for i := 1; i < len(s.Outliers); i++ {
			if s.Outliers[i].Seq <= s.Outliers[i-1].Seq {
				t.Errorf("snapshot out of order at %d", i)
			}
		}
		r.Tick(time.Since(time.Time{}).Nanoseconds(), ProbeState{})
	}
	s := r.FlightSnapshot()
	var latency, events int64
	for _, o := range s.Outliers {
		switch o.Kind {
		case KindLatency:
			latency++
		case KindEvent:
			events++
		}
	}
	if s.Breaches == 0 || s.Captured != s.Breaches+s.Events {
		t.Fatalf("counters: breaches %d + events %d != captured %d", s.Breaches, s.Events, s.Captured)
	}
	if latency != s.Breaches || events != s.Events {
		t.Errorf("ring of %d retains %d of %d breaches and %d of %d events", s.RingDepth, latency, s.Breaches, events, s.Events)
	}
}

func TestKindReasonJSON(t *testing.T) {
	o := Lifecycle{Kind: KindStall, Reason: ReasonCompletionBacklog}
	b, err := json.Marshal(o)
	if err != nil {
		t.Fatal(err)
	}
	var back Lifecycle
	if err := json.Unmarshal(b, &back); err != nil {
		t.Fatal(err)
	}
	if back.Kind != KindStall || back.Reason != ReasonCompletionBacklog {
		t.Fatalf("round trip = %+v", back)
	}
	var k Kind
	if err := json.Unmarshal([]byte(`"latency"`), &k); err != nil || k != KindLatency {
		t.Fatalf("kind from name: %v %v", k, err)
	}
	if err := json.Unmarshal([]byte(`"bogus"`), &k); err == nil {
		t.Fatal("unknown kind accepted")
	}
}

func TestFinishAllocFree(t *testing.T) {
	r := NewRecorder(Config{Flight: FlightOptions{Warmup: 1}, WallClock: true})
	observe(r, 0, 0, 100, true)
	for _, sampled := range []bool{false, true} {
		allocs := testing.AllocsPerRun(1000, func() {
			r.Finish(nil, &Lifecycle{LatencyNs: 1_000, TS: Stamps(1, 2, 3, 4, 5, 6, 7)}, sampled)
		})
		if allocs != 0 {
			t.Fatalf("Finish (sampled %v) allocates %v/op", sampled, allocs)
		}
	}
	o := Lifecycle{Kind: KindLatency}
	if allocs := testing.AllocsPerRun(1000, func() { r.capture(&o) }); allocs != 0 {
		t.Fatalf("capture allocates %v/op", allocs)
	}
	nano := int64(0)
	allocs := testing.AllocsPerRun(1000, func() {
		nano += 10_000_000
		r.Tick(nano, ProbeState{})
	})
	if allocs != 0 {
		t.Fatalf("Tick allocates %v/op", allocs)
	}
}

// A batch that spills — it touches more lanes than the accumulator
// holds, so Observe flushes mid-batch and carries on — must land on
// exactly the same lane state, breach count, and SLO counters as one
// Flush per request (a Finish with a nil Acc): the batch-mean
// fold is the same fixed point when every latency a lane sees in the
// batch is equal, however many flushes the batch is cut into.
func TestAccMatchesObserve(t *testing.T) {
	const classes, tenants = 2, 3 // 6 lanes against accBatchLanes = 4
	newRec := func() *Recorder {
		r := flight(FlightOptions{ThresholdFloorNs: 1, ThresholdMult: 4, Warmup: 4}, true)
		r.objectives = [MaxClasses]int64{10_000, 10_000}
		r.EnsureTenants(tenants)
		return r
	}
	direct, batched := newRec(), newRec()

	// Each batch gives every lane the same latency count times, lanes
	// interleaved so the fifth lane's arrival spills the first four.
	// Latencies climb so the 100 µs round breaches.
	batches := []struct {
		lat   int64
		count int
	}{
		{1_000, 4},
		{2_000, 2},
		{100_000, 1}, // breach: far past 4x the trained EWMA
		{3_000, 3},
	}
	// Per-observation thresholds legitimately differ inside a batch (the
	// accumulator freezes the lane's threshold at first touch; a batch
	// of one re-derives it every call), so the equivalence claim is on
	// the folded end state, not on intermediate readings.
	for _, b := range batches {
		var acc Acc
		acc.Init(batched)
		for i := 0; i < b.count; i++ {
			for c := 0; c < classes; c++ {
				for tn := 0; tn < tenants; tn++ {
					observe(direct, c, tn, b.lat, true)
					acc.observe(c, tn, b.lat, true)
				}
			}
		}
		acc.Flush()
	}

	ds, bs := direct.FlightSnapshot(), batched.FlightSnapshot()
	if ds.Breaches != bs.Breaches || ds.Breaches == 0 {
		t.Fatalf("breaches: direct %d vs batched %d", ds.Breaches, bs.Breaches)
	}
	if len(ds.Thresholds) != classes*tenants || len(bs.Thresholds) != classes*tenants {
		t.Fatalf("lane counts: direct %d vs batched %d", len(ds.Thresholds), len(bs.Thresholds))
	}
	for i := range ds.Thresholds {
		if ds.Thresholds[i] != bs.Thresholds[i] {
			t.Fatalf("lane state diverged:\n direct  %+v\n batched %+v",
				ds.Thresholds[i], bs.Thresholds[i])
		}
	}
	for i := range ds.SLO.Classes {
		dc, bc := ds.SLO.Classes[i], bs.SLO.Classes[i]
		if dc.Good != bc.Good || dc.Total != bc.Total || dc.Good == 0 {
			t.Fatalf("SLO diverged: direct %d/%d vs batched %d/%d",
				dc.Good, dc.Total, bc.Good, bc.Total)
		}
	}
}

// A batch touching more distinct lanes than the accumulator holds must
// spill — flush and carry on — without losing any accounting.
func TestAccSpillPastLaneCapacity(t *testing.T) {
	r := flight(FlightOptions{ThresholdFloorNs: 1, Warmup: 1}, true)
	r.EnsureTenants(4)

	var acc Acc
	acc.Init(r)
	// 2 classes x 4 tenants = 8 lanes, double the accumulator's 4.
	for class := 0; class < 2; class++ {
		for tenant := 0; tenant < 4; tenant++ {
			acc.observe(class, tenant, 5_000, true)
		}
	}
	acc.Flush()

	s := r.FlightSnapshot()
	if len(s.Thresholds) != 8 {
		t.Fatalf("trained %d lanes, want 8: %+v", len(s.Thresholds), s.Thresholds)
	}
	for _, th := range s.Thresholds {
		if th.Count != 1 || th.EWMANs != 5_000 {
			t.Fatalf("lane (%d,%d): count %d ewma %d, want 1 / 5000",
				th.Class, th.Tenant, th.Count, th.EWMANs)
		}
	}
}

// The breach counter must advance at Observe time, not at Flush: the
// capture that follows a breach decision bumps Captured immediately, and
// Captured == Breaches + Stalls + Events has to hold at every instant.
func TestAccBreachCountsBeforeFlush(t *testing.T) {
	r := flight(FlightOptions{ThresholdFloorNs: 1, Warmup: 1}, true)
	observe(r, 0, 0, 1_000, true) // warm + train

	var acc Acc
	acc.Init(r)
	if _, breach := acc.observe(0, 0, 1_000_000, true); !breach {
		t.Fatal("1000x latency not flagged through the accumulator")
	}
	if got := r.FlightSnapshot().Breaches; got != 1 {
		t.Fatalf("breaches = %d before Flush, want 1", got)
	}
	acc.Flush()
	if got := r.FlightSnapshot().Breaches; got != 1 {
		t.Fatalf("breaches = %d after Flush, want 1", got)
	}
}

// An accumulator reused after Flush starts a new batch and loses no
// observation of the last one.
func TestAccReuse(t *testing.T) {
	var acc Acc
	r := flight(FlightOptions{ThresholdFloorNs: 1, Warmup: 1}, true)
	acc.Init(r)
	for i := 0; i < 3; i++ {
		acc.observe(0, 0, 2_000, true)
	}
	acc.Flush()
	acc.Init(r) // new batch on the same accumulator
	acc.observe(0, 0, 2_000, true)
	acc.Flush()
	s := r.FlightSnapshot()
	if len(s.Thresholds) != 1 || s.Thresholds[0].Count != 4 {
		t.Fatalf("reused accumulator lost observations: %+v", s.Thresholds)
	}
}

// The owner's stamp probe runs only for a record the recorder keeps —
// a sampled request or a breach — and its vector is what gets kept.
func TestStampsProbeOnlyForKeptRecords(t *testing.T) {
	calls := 0
	r := NewRecorder(Config{
		Flight: FlightOptions{ThresholdFloorNs: 1, ThresholdMult: 1, Warmup: 1},
		Stamps: func(slot int, retrieved int64) ([NumStages]int64, uint32) {
			calls++
			return Stamps(1, 2, 3, 4, 5, 6, retrieved), FlagInline
		},
	})
	r.Finish(nil, &Lifecycle{LatencyNs: 1_000}, false) // trains the lane
	r.Finish(nil, &Lifecycle{LatencyNs: 500}, false)   // within threshold, unsampled
	if calls != 0 {
		t.Fatalf("probe ran %d times for records nobody keeps", calls)
	}
	r.Finish(nil, &Lifecycle{Nano: 9, LatencyNs: 500}, true)  // sampled
	r.Finish(nil, &Lifecycle{Nano: 8, LatencyNs: 1e6}, false) // breach
	if calls != 2 {
		t.Fatalf("probe ran %d times, want once per kept record (2)", calls)
	}
	sampled, outliers := r.Snapshot().Captured, r.FlightSnapshot().Outliers
	if len(sampled) != 1 || sampled[0].TS[StageRetrieved] != 9 || sampled[0].Flags != FlagInline {
		t.Errorf("sampled ring = %+v", sampled)
	}
	if len(outliers) != 1 || outliers[0].TS[StageRetrieved] != 8 {
		t.Errorf("outlier ring = %+v", outliers)
	}
}
