package main

import (
	"math"
	"testing"
)

func TestPercentileIsExactNearestRank(t *testing.T) {
	// 1..100: the q-quantile by nearest rank is exactly 100q.
	s := make([]int64, 100)
	for i := range s {
		s[i] = int64(i + 1)
	}
	for _, c := range []struct {
		q    float64
		want int64
	}{{0.50, 50}, {0.99, 99}, {0.01, 1}, {0.999, 100}} {
		if got := percentile(s, c.q); got != c.want {
			t.Errorf("percentile(1..100, %v) = %d, want %d", c.q, got, c.want)
		}
	}
	// A value is always a sample, never an interpolation between two.
	if got := percentile([]int64{10, 20}, 0.5); got != 10 {
		t.Errorf("percentile({10,20}, 0.5) = %d, want the sample 10", got)
	}
	if got := percentile([]float64{7}, 0.99); got != 7 {
		t.Errorf("single sample: got %v", got)
	}
}

func TestTailRule(t *testing.T) {
	// p99 of n samples sits at index ceil(0.99n)-1; it is valid only
	// with at least ten samples strictly beyond it.
	for _, c := range []struct {
		n    int
		want bool
	}{{0, false}, {100, false}, {967, false}, {999, false}, {1001, true}, {1100, true}} {
		if got := tailOK(c.n, 0.99); got != c.want {
			t.Errorf("tailOK(%d, 0.99) = %t, want %t (beyond = %d)", c.n, got, c.want, c.n-1-rank(c.n, 0.99))
		}
	}
	if !tailOK(20, 0.5) || tailOK(19, 0.5) {
		t.Errorf("tailOK at the median: 20 samples leave 10 beyond index 9, 19 leave 9")
	}
}

func TestMedianAndQuartilesMatchPython(t *testing.T) {
	// Reference values from CPython's statistics.median and
	// statistics.quantiles(v, n=4), the functions the driver applies to
	// the run-to-run values.
	for _, c := range []struct {
		v           []float64
		med, q1, q3 float64
	}{
		{[]float64{1, 2}, 1.5, 0.75, 2.25},
		{[]float64{3, 1, 4, 1, 5, 9, 2, 6, 5, 3}, 3.5, 1.75, 5.25},
		{[]float64{10, 20, 30}, 20, 10, 30},
		{[]float64{1, 2, 4, 8, 16}, 4, 1.5, 12},
	} {
		q1, q3 := quartiles(c.v)
		if med := median(c.v); med != c.med || q1 != c.q1 || q3 != c.q3 {
			t.Errorf("%v: median %v q1 %v q3 %v, want %v %v %v", c.v, med, q1, q3, c.med, c.q1, c.q3)
		}
	}
	if q1, q3 := quartiles([]float64{5}); q1 != 5 || q3 != 5 {
		t.Errorf("one value has no spread, got q1 %v q3 %v", q1, q3)
	}
	if median(nil) != 0 {
		t.Errorf("median of nothing must be 0")
	}
}

func TestWindowSpreadFlagsNoisyHost(t *testing.T) {
	quiet := windowSpread([]float64{100, 101, 99, 100, 102, 98, 100})
	if quiet.Median != 100 || quiet.noisy(0.10) {
		t.Errorf("quiet windows: %+v flagged noisy at a 10%% bound", quiet)
	}
	loud := windowSpread([]float64{100, 140, 70, 100, 150, 60, 100})
	if !loud.noisy(0.10) {
		t.Errorf("windows spread %.2f were not flagged at a 10%% bound", loud.RelIQR)
	}
	if math.Abs(loud.RelIQR-(loud.Q3-loud.Q1)/100) > 1e-12 {
		t.Errorf("RelIQR %v is not IQR/median", loud.RelIQR)
	}
	if one := windowSpread([]float64{42}); one.noisy(0) {
		t.Errorf("a single window cannot be noisy")
	}
}
