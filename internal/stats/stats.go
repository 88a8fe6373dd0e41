// Package stats provides the measurement plumbing for the evaluation:
// per-phase time breakdowns (Figure 6), latency series (Figure 7), and
// throughput computations (Figure 8, Table 4).
package stats

import (
	"fmt"
	"strings"

	"memif/internal/sim"
)

// Phase names matching the driver operations of Table 1. "Copy" is the
// data movement itself (CPU memcpy in the baseline, DMA transfer in
// memif); "Interface" covers syscall crossings and queue operations.
const (
	PhasePrep      = "prep"      // 1: page lookup
	PhaseRemap     = "remap"     // 2: page alloc + PTE replace + TLB flush
	PhaseDMACfg    = "dmacfg"    // 3: scatter-gather assembly + descriptor writes
	PhaseCopy      = "copy"      // byte movement
	PhaseRelease   = "release"   // 4: final PTE / CAS + page free
	PhaseNotify    = "notify"    // 5: completion delivery
	PhaseInterface = "interface" // syscall + queue machinery
)

// AllPhases lists the phases in breakdown display order.
var AllPhases = []string{
	PhaseInterface, PhasePrep, PhaseRemap, PhaseDMACfg, PhaseCopy, PhaseRelease, PhaseNotify,
}

// Breakdown accumulates time per phase: one counter per phase, indexed
// like AllPhases, so the charge the driver makes with every CPU cost it
// spends is an array add.
type Breakdown struct {
	ns [7]int64
}

// phaseIndex returns phase's position in AllPhases, -1 for a name that
// is not a phase.
func phaseIndex(phase string) int {
	switch phase {
	case PhaseInterface:
		return 0
	case PhasePrep:
		return 1
	case PhaseRemap:
		return 2
	case PhaseDMACfg:
		return 3
	case PhaseCopy:
		return 4
	case PhaseRelease:
		return 5
	case PhaseNotify:
		return 6
	}
	return -1
}

// NewBreakdown returns an empty breakdown.
func NewBreakdown() *Breakdown { return &Breakdown{} }

// Add charges ns to the named phase. A name that is not a phase is a bug
// in the caller and panics.
func (b *Breakdown) Add(phase string, ns int64) {
	i := phaseIndex(phase)
	if i < 0 {
		panic("stats: unknown phase " + phase)
	}
	b.ns[i] += ns
}

// Get returns the accumulated time of a phase (0 for a name that is not
// a phase).
func (b *Breakdown) Get(phase string) sim.Time {
	if i := phaseIndex(phase); i >= 0 {
		return sim.Time(b.ns[i])
	}
	return 0
}

// Total sums all phases.
func (b *Breakdown) Total() sim.Time {
	var t int64
	for _, v := range b.ns {
		t += v
	}
	return sim.Time(t)
}

// Reset clears the breakdown.
func (b *Breakdown) Reset() { *b = Breakdown{} }

// Scale divides every phase by n (e.g. to report per-request averages).
func (b *Breakdown) Scale(n int64) {
	if n <= 0 {
		return
	}
	for i := range b.ns {
		b.ns[i] /= n
	}
}

// Clone returns a copy.
func (b *Breakdown) Clone() *Breakdown {
	c := *b
	return &c
}

func (b *Breakdown) String() string {
	var parts []string
	for i, v := range b.ns {
		if v != 0 {
			parts = append(parts, fmt.Sprintf("%s=%.1fµs", AllPhases[i], float64(v)/1e3))
		}
	}
	return strings.Join(parts, " ")
}

// LatencySeries records per-request completion latencies (Figure 7).
type LatencySeries struct {
	Name    string
	Samples []sim.Time
}

// Add appends a sample.
func (l *LatencySeries) Add(t sim.Time) { l.Samples = append(l.Samples, t) }

// Max returns the largest sample (0 when empty).
func (l *LatencySeries) Max() sim.Time {
	var m sim.Time
	for _, s := range l.Samples {
		if s > m {
			m = s
		}
	}
	return m
}

// Mean returns the average sample.
func (l *LatencySeries) Mean() sim.Time {
	if len(l.Samples) == 0 {
		return 0
	}
	var sum sim.Time
	for _, s := range l.Samples {
		sum += s
	}
	return sum / sim.Time(len(l.Samples))
}

// ThroughputGBs converts bytes moved over a virtual interval into GB/s.
func ThroughputGBs(bytes int64, elapsed sim.Time) float64 {
	if elapsed <= 0 {
		return 0
	}
	return float64(bytes) / elapsed.Seconds() / 1e9
}

// ThroughputMBs converts bytes moved over a virtual interval into MB/s.
func ThroughputMBs(bytes int64, elapsed sim.Time) float64 {
	if elapsed <= 0 {
		return 0
	}
	return float64(bytes) / elapsed.Seconds() / 1e6
}
