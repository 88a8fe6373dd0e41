package stats

import (
	"testing"

	"memif/internal/sim"
)

func TestBreakdownAccumulates(t *testing.T) {
	b := NewBreakdown()
	b.Add(PhasePrep, 100)
	b.Add(PhasePrep, 50)
	b.Add(PhaseCopy, 1000)
	if b.Get(PhasePrep) != 150 {
		t.Errorf("prep = %v", b.Get(PhasePrep))
	}
	if b.Total() != 1150 {
		t.Errorf("total = %v", b.Total())
	}
	b.Reset()
	if b.Total() != 0 {
		t.Errorf("total after reset = %v", b.Total())
	}
}

func TestBreakdownScaleAndClone(t *testing.T) {
	b := NewBreakdown()
	b.Add(PhaseRemap, 1000)
	c := b.Clone()
	b.Scale(10)
	if b.Get(PhaseRemap) != 100 {
		t.Errorf("scaled = %v", b.Get(PhaseRemap))
	}
	if c.Get(PhaseRemap) != 1000 {
		t.Errorf("clone mutated: %v", c.Get(PhaseRemap))
	}
	b.Scale(0) // no-op, no panic
	if b.Get(PhaseRemap) != 100 {
		t.Error("Scale(0) changed values")
	}
}

func TestBreakdownString(t *testing.T) {
	b := NewBreakdown()
	b.Add(PhaseCopy, 4000)
	b.Add(PhasePrep, 1500)
	if s := b.String(); s != "prep=1.5µs copy=4.0µs" {
		t.Errorf("String() = %q", s)
	}
}

// Every phase name indexes its own counter, in display order; a name
// that is not a phase reads zero, and charging one is a caller bug.
func TestBreakdownPhaseNames(t *testing.T) {
	for i, p := range AllPhases {
		if phaseIndex(p) != i {
			t.Errorf("phaseIndex(%s) = %d, want %d", p, phaseIndex(p), i)
		}
	}
	b := NewBreakdown()
	if b.Get("custom-phase") != 0 {
		t.Error("an unknown phase reads nonzero")
	}
	defer func() {
		if recover() == nil {
			t.Error("Add of an unknown phase did not panic")
		}
	}()
	b.Add("custom-phase", 1500)
}

// TestBreakdownPinsAllPhases pins what every reader of a breakdown sees
// over all seven Table 1 phases: String's order, rounding and omission of
// empty phases, Total, Scale's integer division, Clone's independence and
// Reset.
func TestBreakdownPinsAllPhases(t *testing.T) {
	charges := []struct {
		phase string
		ns    int64
	}{
		// Out of display order, and one phase charged twice.
		{PhaseNotify, 270}, {PhaseRelease, 3960}, {PhaseCopy, 102500},
		{PhaseDMACfg, 149000}, {PhaseRemap, 15000}, {PhaseRemap, 860},
		{PhasePrep, 2340}, {PhaseInterface, 1400},
	}
	b := NewBreakdown()
	for _, c := range charges {
		b.Add(c.phase, c.ns)
	}
	const full = "interface=1.4µs prep=2.3µs remap=15.9µs dmacfg=149.0µs copy=102.5µs release=4.0µs notify=0.3µs"
	if s := b.String(); s != full {
		t.Errorf("String() = %q, want %q", s, full)
	}
	if b.Total() != 275330 {
		t.Errorf("Total() = %d, want 275330", b.Total())
	}
	for i, want := range []sim.Time{1400, 2340, 15860, 149000, 102500, 3960, 270} {
		if got := b.Get(AllPhases[i]); got != want {
			t.Errorf("Get(%s) = %d, want %d", AllPhases[i], got, want)
		}
	}

	c := b.Clone()
	b.Scale(5)
	const fifth = "interface=0.3µs prep=0.5µs remap=3.2µs dmacfg=29.8µs copy=20.5µs release=0.8µs notify=0.1µs"
	if s := b.String(); s != fifth {
		t.Errorf("String() after Scale(5) = %q, want %q", s, fifth)
	}
	if b.Total() != 55066 {
		t.Errorf("Total() after Scale(5) = %d, want 55066", b.Total())
	}
	if s := c.String(); s != full || c.Total() != 275330 {
		t.Errorf("clone followed Scale: %q, total %d", s, c.Total())
	}
	c.Scale(3) // truncates
	if c.Get(PhaseInterface) != 466 || c.Get(PhaseNotify) != 90 || c.Total() != 91774 {
		t.Errorf("Scale(3): interface %d, notify %d, total %d", c.Get(PhaseInterface), c.Get(PhaseNotify), c.Total())
	}

	b.Reset()
	if s := b.String(); s != "" || b.Total() != 0 {
		t.Errorf("after Reset: %q, total %d", s, b.Total())
	}
	for _, p := range AllPhases {
		if b.Get(p) != 0 {
			t.Errorf("Get(%s) = %d after Reset", p, b.Get(p))
		}
	}
	b.Add(PhasePrep, 0) // a phase charged nothing is not shown
	b.Add(PhaseNotify, 270)
	if s := b.String(); s != "notify=0.3µs" {
		t.Errorf("String() = %q, want %q", s, "notify=0.3µs")
	}
}

func TestLatencySeries(t *testing.T) {
	var l LatencySeries
	for _, v := range []sim.Time{300, 100, 200} {
		l.Add(v)
	}
	if l.Max() != 300 {
		t.Errorf("Max = %v", l.Max())
	}
	if l.Mean() != 200 {
		t.Errorf("Mean = %v", l.Mean())
	}
	var empty LatencySeries
	if empty.Max() != 0 || empty.Mean() != 0 {
		t.Error("empty series should report zeros")
	}
}

func TestThroughputConversions(t *testing.T) {
	// 1 GB in 1 second.
	if got := ThroughputGBs(1e9, sim.Time(1e9)); got < 0.999 || got > 1.001 {
		t.Errorf("GBs = %v", got)
	}
	if got := ThroughputMBs(1e6, sim.Time(1e9)); got < 0.999 || got > 1.001 {
		t.Errorf("MBs = %v", got)
	}
	if ThroughputGBs(100, 0) != 0 {
		t.Error("zero elapsed should yield 0")
	}
	if ThroughputMBs(100, -5) != 0 {
		t.Error("negative elapsed should yield 0")
	}
}
