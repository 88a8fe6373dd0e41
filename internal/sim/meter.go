package sim

// Meter accumulates busy time for one execution context (an application
// thread, the kernel worker, the interrupt path...). CPU usage figures in
// the evaluation are computed as busy time over elapsed virtual time, the
// same way the paper reports the lines in Figure 6.
type Meter struct {
	name string
	busy int64
}

// NewMeter returns a named meter.
func NewMeter(name string) *Meter { return &Meter{name: name} }

// Add charges ns nanoseconds of busy time.
func (m *Meter) Add(ns int64) { m.busy += ns }

// Busy returns the accumulated busy time.
func (m *Meter) Busy() Time { return Time(m.busy) }

// Reset clears the accumulated time.
func (m *Meter) Reset() { m.busy = 0 }

// MeterGroup sums several meters, e.g. "all kernel-side contexts".
type MeterGroup []*Meter

// Busy returns the summed busy time of the group.
func (g MeterGroup) Busy() Time {
	var t Time
	for _, m := range g {
		t += m.Busy()
	}
	return t
}

// Usage returns the group's summed busy time over the elapsed interval.
func (g MeterGroup) Usage(elapsed Time) float64 {
	if elapsed <= 0 {
		return 0
	}
	return float64(g.Busy()) / float64(elapsed)
}
