package lifecycle

import (
	"encoding/json"
	"testing"
)

// sampler is a recorder with only its sampled half armed.
func sampler(shift, classes int) *Recorder {
	return NewRecorder(Config{SampleShift: shift, Classes: classes, Flight: FlightOptions{Disable: true}})
}

// collect hands r one sampled, finished lifecycle with the given stamps.
func collect(r *Recorder, slot, class int, out Outcome, ts [NumStages]int64) {
	r.Finish(nil, &Lifecycle{Slot: slot, Class: class, Bytes: 64, Outcome: out, TS: ts}, true)
}

func TestSamplingRate(t *testing.T) {
	// shift 3: exactly every 8th request of a stream (the 1st, 9th,
	// 17th, ...) is sampled — the decision is a deterministic counter,
	// not a PRNG.
	c := sampler(3, 0)
	sampled := 0
	for n := uint64(1); n <= 64; n++ {
		if !c.Sample(n) {
			continue
		}
		sampled++
		if (n-1)%8 != 0 {
			t.Errorf("request %d sampled, want only 1, 9, 17, ...", n)
		}
		if n == 1 {
			c.Drop() // a failed submission: counted, never collected
			continue
		}
		collect(c, 0, 0, OutcomeOK, Stamps(int64(n), 0, 0, 0, 0, 0, int64(n+1000)))
	}
	if sampled != 8 {
		t.Errorf("sampled %d of 64 at shift 3, want 8", sampled)
	}
	s := c.Snapshot()
	if s.Begun != 8 || s.Ended != 7 || s.Aborted != 1 {
		t.Errorf("begun/ended/aborted = %d/%d/%d, want 8/7/1", s.Begun, s.Ended, s.Aborted)
	}
	if len(s.Captured) != 7 {
		t.Errorf("captured %d, want 7 (a dropped lifecycle must not capture)", len(s.Captured))
	}
	if s.SampleShift != 3 || !s.Enabled {
		t.Errorf("snapshot shift/enabled = %d/%v", s.SampleShift, s.Enabled)
	}
}

func TestFullCaptureAndSpans(t *testing.T) {
	c := sampler(0, 0)
	wantTS := Stamps(100, 110, 130, 160, 200, 210, 260)
	c.ObserveQueueWait(0, 25, false)
	c.ObserveQueueWait(0, 40, true)
	lc := Lifecycle{Slot: 1, Bytes: 4096, Flags: FlagStolen, TS: wantTS}
	c.Finish(nil, &lc, true)

	s := c.Snapshot()
	if len(s.Captured) != 1 {
		t.Fatalf("captured %d lifecycles, want 1", len(s.Captured))
	}
	got := s.Captured[0]
	if got != lc || got.Seq != 1 {
		t.Errorf("captured %+v, want %+v with Seq 1", got, lc)
	}
	for span, want := range map[Span]int64{
		SpanStagingWait:     10,
		SpanDispatchWait:    20,
		SpanCopy:            40,
		SpanCompletionDwell: 50,
		SpanTotal:           160,
	} {
		h := s.Spans.Spans[span]
		if h.Count != 1 || h.Sum != want {
			t.Errorf("span %s: count=%d sum=%d, want 1/%d", span, h.Count, h.Sum, want)
		}
	}
	if h := s.Spans.Spans[SpanRingWait]; h.Count != 2 || h.Sum != 65 {
		t.Errorf("ring wait: count=%d sum=%d, want 2/65", h.Count, h.Sum)
	}
	if h := s.Spans.Spans[SpanStealDelay]; h.Count != 1 || h.Sum != 40 {
		t.Errorf("steal delay: count=%d sum=%d, want 1/40", h.Count, h.Sum)
	}
	if sp := c.Spans(); sp != s.Spans {
		t.Errorf("Spans() = %+v, want the snapshot's %+v", sp, s.Spans)
	}
}

func TestMissingEndpointsSkipSpans(t *testing.T) {
	// An ErrNoSlots-style failure goes submit -> completed directly;
	// only spans with both endpoints may record.
	c := sampler(0, 0)
	collect(c, 0, 0, OutcomeFailed, Stamps(100, 0, 0, 0, 0, 150, 180))
	s := c.Snapshot()
	for _, span := range []Span{SpanStagingWait, SpanDispatchWait, SpanCopy} {
		if n := s.Spans.Spans[span].Count; n != 0 {
			t.Errorf("span %s recorded %d samples with missing endpoints", span, n)
		}
	}
	if n := s.Spans.Spans[SpanCompletionDwell].Count; n != 1 {
		t.Errorf("completion dwell count = %d, want 1", n)
	}
	if n := s.Spans.Spans[SpanTotal].Count; n != 1 {
		t.Errorf("total count = %d, want 1", n)
	}
	if len(s.Captured) != 1 || s.Captured[0].Outcome != OutcomeFailed {
		t.Errorf("captured = %+v", s.Captured)
	}
}

func TestCaptureRingWrap(t *testing.T) {
	c := sampler(0, 0)
	const extra = 6
	for i := int64(1); i <= DefaultCaptureDepth+extra; i++ {
		collect(c, 0, 0, OutcomeOK, Stamps(i*100, 0, 0, 0, 0, 0, i*100+50))
	}
	s := c.Snapshot()
	if len(s.Captured) != DefaultCaptureDepth {
		t.Fatalf("captured %d, want ring depth %d", len(s.Captured), DefaultCaptureDepth)
	}
	for i, lc := range s.Captured {
		if i > 0 && lc.Seq <= s.Captured[i-1].Seq {
			t.Fatalf("capture not in seq order at %d: %d after %d", i, lc.Seq, s.Captured[i-1].Seq)
		}
		if lc.Seq <= extra {
			t.Errorf("old lifecycle %d survived the wrap", lc.Seq)
		}
	}
}

func TestPerClassSpans(t *testing.T) {
	c := sampler(0, 3)
	run := func(slot, class int, base int64) {
		c.ObserveQueueWait(class, 7, false)
		collect(c, slot, class, OutcomeOK, Stamps(base, base+10, 0, 0, 0, 0, base+100))
	}
	run(0, 0, 1000)
	run(1, 2, 2000)
	run(0, 2, 3000)
	s := c.Snapshot()
	if len(s.ClassSpans) != 3 {
		t.Fatalf("ClassSpans len = %d, want 3", len(s.ClassSpans))
	}
	if n := s.ClassSpans[0].Spans[SpanTotal].Count; n != 1 {
		t.Errorf("class 0 total count = %d, want 1", n)
	}
	if n := s.ClassSpans[2].Spans[SpanTotal].Count; n != 2 {
		t.Errorf("class 2 total count = %d, want 2", n)
	}
	if n := s.ClassSpans[1].Spans[SpanTotal].Count; n != 0 {
		t.Errorf("class 1 total count = %d, want 0", n)
	}
	if n := s.ClassSpans[2].Spans[SpanRingWait].Count; n != 2 {
		t.Errorf("class 2 ring wait count = %d, want 2", n)
	}
	// The global spans see everything regardless of class.
	if n := s.Spans.Spans[SpanTotal].Count; n != 3 {
		t.Errorf("global total count = %d, want 3", n)
	}
	// Captured lifecycles carry their class.
	classes := map[int]int{}
	for _, lc := range s.Captured {
		classes[lc.Class]++
	}
	if classes[0] != 1 || classes[2] != 2 {
		t.Errorf("captured classes = %v, want {0:1, 2:2}", classes)
	}
	// The tenant row receives the same vector; an unknown tenant folds
	// into the default one.
	c.EnsureTenants(2)
	c.Finish(nil, &Lifecycle{Tenant: 1, TS: Stamps(10, 20, 0, 0, 0, 0, 90)}, true)
	if h := c.TenantSpans(1).Spans[SpanTotal]; h.Count != 1 || h.Sum != 80 {
		t.Errorf("tenant 1 total: count=%d sum=%d, want 1/80", h.Count, h.Sum)
	}
	c.Finish(nil, &Lifecycle{Tenant: 9, TS: Stamps(10, 20, 0, 0, 0, 0, 90)}, true)
	if n := c.TenantSpans(0).Spans[SpanTotal].Count; n != 4 {
		t.Errorf("default tenant total count = %d, want 4", n)
	}
}

func TestNegativeDurationClamped(t *testing.T) {
	var ss SpanSet
	ss.Observe(SpanCopy, -5)
	s := ss.Snapshot()
	if h := s.Spans[SpanCopy]; h.Count != 1 || h.Sum != 0 {
		t.Errorf("negative duration: count=%d sum=%d, want 1/0", h.Count, h.Sum)
	}
}

// A recorder with both halves off records nothing and captures
// nothing, and an unsampled request leaves the sampled half alone.
func TestDisabledHalves(t *testing.T) {
	r := NewRecorder(Config{SampleShift: -1, Flight: FlightOptions{Disable: true}})
	if r.Sample(1) {
		t.Error("sampling off, but request 1 sampled")
	}
	r.Finish(nil, &Lifecycle{LatencyNs: 1e9, TS: Stamps(1, 2, 3, 4, 5, 6, 7)}, true)
	r.CaptureEvent(&Lifecycle{Reason: ReasonTxnAbort})
	r.Tick(1, ProbeState{QueuedWork: true})
	if s := r.Snapshot(); s.Enabled || s.SampleShift != -1 || s.Spans != (SpanSnapshot{}) {
		t.Errorf("sampling-off snapshot = %+v", s)
	}
	if s := r.FlightSnapshot(); s.Enabled || s.Captured != 0 {
		t.Errorf("disarmed flight snapshot = %+v", s)
	}
	on := sampler(0, 0)
	on.Finish(nil, &Lifecycle{TS: Stamps(1, 2, 3, 4, 5, 6, 7)}, false)
	if s := on.Snapshot(); s.Ended != 0 || s.Spans != (SpanSnapshot{}) {
		t.Errorf("unsampled request recorded: %+v", s)
	}
	var w *watchdog
	if got := w.tick(ProbeState{}); got != nil {
		t.Errorf("nil watchdog tick = %v, want nil", got)
	}
}

func TestChromeTraceJSON(t *testing.T) {
	c := sampler(0, 0)
	for slot := 0; slot < 2; slot++ {
		base := int64(1000 * (slot + 1))
		collect(c, slot, 0, OutcomeOK, Stamps(base, base+10, base+20, base+30, base+90, base+95, base+120))
	}
	blob, err := ChromeTraceGroupsJSON([]TraceGroup{
		{Process: "a", Lifecycles: c.Snapshot().Captured},
		{Process: "b", Lifecycles: c.Snapshot().Captured},
	})
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Name  string         `json:"name"`
			Phase string         `json:"ph"`
			TS    float64        `json:"ts"`
			Dur   float64        `json:"dur"`
			PID   int            `json:"pid"`
			Args  map[string]any `json:"args"`
		} `json:"traceEvents"`
		DisplayTimeUnit string `json:"displayTimeUnit"`
	}
	if err := json.Unmarshal(blob, &doc); err != nil {
		t.Fatalf("invalid JSON: %v", err)
	}
	meta, spans := 0, 0
	pids := map[int]bool{}
	for _, ev := range doc.TraceEvents {
		pids[ev.PID] = true
		switch ev.Phase {
		case "M":
			meta++
		case "X":
			spans++
			if ev.TS < 0 || ev.Dur < 0 {
				t.Errorf("negative ts/dur on %s: %f/%f", ev.Name, ev.TS, ev.Dur)
			}
			if ev.Args["outcome"] != "ok" {
				t.Errorf("outcome arg = %v", ev.Args["outcome"])
			}
		}
	}
	if meta != 2 {
		t.Errorf("metadata events = %d, want one per group", meta)
	}
	// 2 groups x 2 lifecycles x 4 stage-pair spans (total skipped).
	if spans != 16 {
		t.Errorf("span events = %d, want 16", spans)
	}
	if len(pids) != 2 {
		t.Errorf("pids = %v, want 2 distinct", pids)
	}
}

// uniform is a record with every field a reader can compare set to v.
func uniform(v int64) Lifecycle {
	lc := Lifecycle{
		Nano: v, Slot: int(v), Class: int(v), Tenant: int(v), Bytes: v,
		LatencyNs: v, ThresholdNs: v,
		Ambient: Ambient{StagingDepth: v, SubmissionDepth: v, CompletionDepth: v, RingDepth: v},
	}
	for i := range lc.TS {
		lc.TS[i] = v
	}
	for i := range lc.Ambient.ClassInFlight {
		lc.Ambient.ClassInFlight[i] = v
	}
	return lc
}

// A snapshot taken while a writer laps a two-slot ring must never hand
// back a record mixing two pushes: one writer stores records whose
// every field equals their ticket, and every record a concurrent
// Snapshot returns must still be uniform. No timing clause — a whole
// record is the ring's contract, so any failure is a bug.
func TestSnapshotNeverTears(t *testing.T) {
	r := NewRecorder(Config{})
	r.sampled = NewRing(2)
	checkNeverTears(t, func(lc *Lifecycle) { r.sampled.Push(lc) }, func() []Lifecycle { return r.Snapshot().Captured })
}

// The outlier ring holds to the same contract as the sampled ring: a
// concurrent FlightSnapshot never returns a torn record.
func TestOutlierSnapshotNeverTears(t *testing.T) {
	r := NewRecorder(Config{})
	r.outliers = NewRing(2)
	checkNeverTears(t, r.capture, func() []Lifecycle { return r.FlightSnapshot().Outliers })
}

// checkNeverTears pushes 500k uniform records through push while
// snapshot is called concurrently, and fails on any non-uniform record.
func checkNeverTears(t *testing.T, push func(*Lifecycle), snapshot func() []Lifecycle) {
	t.Helper()
	done := make(chan struct{})
	go func() {
		defer close(done)
		for v := int64(1); v <= 500_000; v++ {
			lc := uniform(v)
			push(&lc)
		}
	}()
	for running := true; running; {
		select {
		case <-done:
			running = false
		default:
		}
		for _, got := range snapshot() {
			want := uniform(int64(got.Seq))
			want.Seq = got.Seq
			if got != want {
				<-done
				t.Fatalf("torn record: %+v", got)
			}
		}
	}
}

// ChromeTraceGroupsJSON's rows cover a fully stamped request's
// [submit, retrieved] except exactly dispatched → copy_start and, where
// the copy ended before the completion was posted, copy_end → completed.
func TestChromeTraceGaps(t *testing.T) {
	const us = 1000
	for _, tc := range []struct {
		name string
		ts   [NumStages]int64
		gaps [][2]int64 // uncovered intervals, ns
	}{
		{"copy_end before completed", Stamps(100*us, 110*us, 130*us, 160*us, 200*us, 210*us, 260*us),
			[][2]int64{{130 * us, 160 * us}, {200 * us, 210 * us}}},
		{"copy_end at completed", Stamps(100*us, 110*us, 130*us, 160*us, 200*us, 200*us, 260*us),
			[][2]int64{{130 * us, 160 * us}}},
	} {
		blob, err := ChromeTraceGroupsJSON([]TraceGroup{{Process: "p", Lifecycles: []Lifecycle{{TS: tc.ts}}}})
		if err != nil {
			t.Fatal(err)
		}
		var doc struct {
			TraceEvents []struct {
				Phase string  `json:"ph"`
				TS    float64 `json:"ts"`
				Dur   float64 `json:"dur"`
			} `json:"traceEvents"`
		}
		if err := json.Unmarshal(blob, &doc); err != nil {
			t.Fatal(err)
		}
		// Walk [submit, retrieved] in 1 µs steps: each step is covered by
		// an X event or lies in exactly one of the expected gaps.
		base := tc.ts[StageSubmit]
		for at := base; at < tc.ts[StageRetrieved]; at += us {
			covered := false
			for _, ev := range doc.TraceEvents {
				from := base + int64(ev.TS*us)
				if ev.Phase == "X" && from <= at && at < from+int64(ev.Dur*us) {
					covered = true
				}
			}
			inGap := false
			for _, g := range tc.gaps {
				inGap = inGap || (g[0] <= at && at < g[1])
			}
			if covered == inGap {
				t.Fatalf("%s: t=%d µs covered=%v, in an expected gap=%v", tc.name, (at-base)/us, covered, inGap)
			}
		}
	}
}

// Two writers whose tickets are a ring depth apart share a slot. The
// one that finds it claimed, or already holding a later ticket, must
// leave it alone rather than interleave its fields with the other's.
func TestRingLappedWriterLeavesSlotAlone(t *testing.T) {
	g := NewRing(2)
	first := uniform(1)
	g.Push(&first) // ticket 1, slot 0
	g.slots[0].seq.Store(slotBusy)
	g.head.Store(2)
	lapping := uniform(3)
	g.Push(&lapping) // ticket 3, slot 0: claimed by the "writer" of ticket 1
	if got := g.Snapshot(); len(got) != 0 {
		t.Fatalf("claimed slot readable: %+v", got)
	}
	g.slots[0].seq.Store(5) // a later writer finished first
	stale := uniform(3)
	stale.Seq = 3
	g.slots[0].store(&stale)
	if got := g.Snapshot(); len(got) != 1 || got[0].Seq != 5 || got[0].Bytes != 1 {
		t.Fatalf("stale writer overwrote a later record: %+v", got)
	}
}
