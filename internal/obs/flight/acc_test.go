package flight

import (
	"testing"

	"memif/internal/obs/lifecycle"
)

// A batch that spills — it touches more lanes than the accumulator
// holds, so Observe flushes mid-batch and carries on — must land on
// exactly the same lane state, breach count, and SLO counters as one
// Flush per request (which is what Recorder.Observe is): the batch-mean
// fold is the same fixed point when every latency a lane sees in the
// batch is equal, however many flushes the batch is cut into.
func TestAccMatchesObserve(t *testing.T) {
	const classes, tenants = 2, 3 // 6 lanes against accBatchLanes = 4
	newRec := func() *Recorder {
		r := New(Options{ThresholdFloorNs: 1, ThresholdMult: 4, Warmup: 4}, true)
		r.objectives = [lifecycle.MaxClasses]int64{10_000, 10_000}
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
					direct.Observe(c, tn, b.lat, true)
					acc.Observe(c, tn, b.lat, true)
				}
			}
		}
		acc.Flush()
	}

	ds, bs := direct.Snapshot(), batched.Snapshot()
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
	r := New(Options{ThresholdFloorNs: 1, Warmup: 1}, true)
	r.EnsureTenants(4)

	var acc Acc
	acc.Init(r)
	// 2 classes x 4 tenants = 8 lanes, double the accumulator's 4.
	for class := 0; class < 2; class++ {
		for tenant := 0; tenant < 4; tenant++ {
			acc.Observe(class, tenant, 5_000, true)
		}
	}
	acc.Flush()

	s := r.Snapshot()
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
	r := New(Options{ThresholdFloorNs: 1, Warmup: 1}, true)
	r.Observe(0, 0, 1_000, true) // warm + train

	var acc Acc
	acc.Init(r)
	if _, breach := acc.Observe(0, 0, 1_000_000, true); !breach {
		t.Fatal("1000x latency not flagged through the accumulator")
	}
	if got := r.Snapshot().Breaches; got != 1 {
		t.Fatalf("breaches = %d before Flush, want 1", got)
	}
	acc.Flush()
	if got := r.Snapshot().Breaches; got != 1 {
		t.Fatalf("breaches = %d after Flush, want 1", got)
	}
}

// Every Acc method must be safe against a nil (disarmed) recorder and
// against reuse after Flush.
func TestAccNilAndReuse(t *testing.T) {
	var acc Acc
	acc.Init(nil)
	if thr, breach := acc.Observe(0, 0, 1e9, true); thr != 0 || breach {
		t.Fatalf("nil-recorder Observe = (%d, %v), want (0, false)", thr, breach)
	}
	acc.Flush()

	r := New(Options{ThresholdFloorNs: 1, Warmup: 1}, true)
	acc.Init(r)
	for i := 0; i < 3; i++ {
		acc.Observe(0, 0, 2_000, true)
	}
	acc.Flush()
	acc.Init(r) // new batch on the same accumulator
	acc.Observe(0, 0, 2_000, true)
	acc.Flush()
	s := r.Snapshot()
	if len(s.Thresholds) != 1 || s.Thresholds[0].Count != 4 {
		t.Fatalf("reused accumulator lost observations: %+v", s.Thresholds)
	}
}
