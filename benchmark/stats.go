package main

import (
	"math"
	"slices"
)

// minTailSamples is the validity rule for a percentile: it is reported
// only when at least this many samples lie beyond it, so one outlier
// cannot be the value (choosing-metrics guide, section 1).
const minTailSamples = 10

// percentile returns the exact q-quantile (0 < q < 1) of sorted by the
// nearest-rank rule: the smallest sample with at least q·n samples at or
// below it. It never interpolates between samples or buckets. sorted
// must be ascending and non-empty.
func percentile[T int64 | float64](sorted []T, q float64) T {
	return sorted[rank(len(sorted), q)]
}

// rank is the zero-based nearest-rank index of the q-quantile among n
// sorted samples.
func rank(n int, q float64) int {
	i := int(math.Ceil(q*float64(n))) - 1
	if i < 0 {
		i = 0
	}
	if i >= n {
		i = n - 1
	}
	return i
}

// tailOK reports whether the q-quantile of n samples has at least
// minTailSamples samples strictly beyond it.
func tailOK(n int, q float64) bool {
	return n > 0 && n-1-rank(n, q) >= minTailSamples
}

// sortedCopy returns vals sorted ascending without touching vals.
func sortedCopy(vals []float64) []float64 {
	s := slices.Clone(vals)
	slices.Sort(s)
	return s
}

// median returns the median of vals (mean of the two middle values for
// an even count), 0 for none.
func median(vals []float64) float64 {
	if len(vals) == 0 {
		return 0
	}
	s := sortedCopy(vals)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}

// quartiles returns the first and third quartile of vals by the same
// rule as Python's statistics.quantiles(vals, n=4) (the "exclusive"
// method the driver uses), so the in-run spread printed beside a value
// is comparable with the run-to-run spread the driver computes. Fewer
// than two values have no spread: both quartiles are the single value.
func quartiles(vals []float64) (q1, q3 float64) {
	n := len(vals)
	if n == 0 {
		return 0, 0
	}
	s := sortedCopy(vals)
	if n == 1 {
		return s[0], s[0]
	}
	at := func(k int) float64 {
		// Position k·(n+1)/4 on the 1-based sorted samples; the
		// neighbour pair is clamped into range first and the offset
		// taken from the clamped pair, exactly as CPython does.
		j := min(max(k*(n+1)/4, 1), n-1)
		d := k*(n+1) - j*4
		return (s[j-1]*float64(4-d) + s[j]*float64(d)) / 4
	}
	return at(1), at(3)
}

// spread is one metric's in-run dispersion over windows.
type spread struct {
	Median float64
	Q1, Q3 float64
	// RelIQR is (Q3-Q1)/|Median|, 0 when the median is 0.
	RelIQR float64
	N      int
}

// windowSpread summarizes the per-window values of one metric: the
// reported value is their median, and the IQR relative to it says how
// far single windows disagreed inside this run.
func windowSpread(vals []float64) spread {
	sp := spread{Median: median(vals), N: len(vals)}
	sp.Q1, sp.Q3 = quartiles(vals)
	if sp.Median != 0 {
		sp.RelIQR = (sp.Q3 - sp.Q1) / math.Abs(sp.Median)
	}
	return sp
}

// noisy reports whether the windows of one run disagreed by more than
// the metric's regression bound — the host, not the program, moved.
func (s spread) noisy(bound float64) bool { return s.N > 1 && s.RelIQR > bound }
