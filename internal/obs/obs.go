// Package obs is the device-side observability layer: lock-free
// counters, high-watermark gauges and power-of-two latency/size
// histograms.
//
// Everything here is safe to update from any goroutine — including the
// realtime device's controller goroutines, which play the role of
// interrupt handlers and therefore must never block or take a lock — and
// cheap enough to leave enabled in production. Reads produce snapshots:
// plain structs with no atomics that can be compared, printed, and
// shipped off-box.
//
// The package deliberately knows nothing about what it measures. The
// realtime device defines its metric set on these primitives and exposes
// a typed snapshot accessor (realtime.Device.Stats). The swap daemon and
// the streaming runtime run on the simulator, one process at a time:
// they count in plain int64s and borrow only Histogram.
package obs

import (
	"fmt"
	"math/bits"
	"sync/atomic"
)

// Counter is a monotonically increasing lock-free counter.
type Counter struct{ v atomic.Int64 }

// Inc increments the counter by one.
func (c *Counter) Inc() { c.v.Add(1) }

// Load returns the current value.
func (c *Counter) Load() int64 { return c.v.Load() }

// Gauge is a lock-free high-watermark gauge: the largest sample ever
// observed. Used for queue depths, where it says how deep a queue has
// ever been.
type Gauge struct{ max atomic.Int64 }

// Observe records a sample: below the current maximum it costs one
// atomic load and no store, so per-request call sites stay
// contention-free.
func (g *Gauge) Observe(v int64) {
	for {
		m := g.max.Load()
		if v <= m || g.max.CompareAndSwap(m, v) {
			return
		}
	}
}

// Load returns the high watermark.
func (g *Gauge) Load() int64 { return g.max.Load() }

// NumBuckets is the number of histogram buckets: bucket i holds samples
// v with bits.Len64(v) == i, i.e. 2^(i-1) <= v < 2^i (bucket 0 holds
// v <= 0). 48 buckets cover every latency in ns up to ~3 days and every
// transfer size up to 128 TB.
const NumBuckets = 48

// Histogram is a lock-free power-of-two histogram. The zero value is
// ready to use.
type Histogram struct {
	buckets    [NumBuckets]atomic.Int64
	count, sum atomic.Int64
}

// bucketOf maps a sample to its bucket index.
func bucketOf(v int64) int {
	if v <= 0 {
		return 0
	}
	b := bits.Len64(uint64(v))
	if b >= NumBuckets {
		b = NumBuckets - 1
	}
	return b
}

// BucketUpper returns the inclusive upper bound of bucket i.
func BucketUpper(i int) int64 {
	if i <= 0 {
		return 0
	}
	return int64(1)<<uint(i) - 1
}

// Observe records one sample.
func (h *Histogram) Observe(v int64) {
	h.buckets[bucketOf(v)].Add(1)
	h.count.Add(1)
	h.sum.Add(v)
}

// Snapshot captures the histogram state. The capture is per-field atomic
// but not globally consistent under concurrent writes — counts may be
// off by the handful of samples in flight, which is fine for the
// diagnostic uses this package serves.
func (h *Histogram) Snapshot() HistogramSnapshot {
	s := HistogramSnapshot{
		Count: h.count.Load(),
		Sum:   h.sum.Load(),
	}
	for i := range h.buckets {
		s.Buckets[i] = h.buckets[i].Load()
	}
	return s
}

// HistogramSnapshot is a point-in-time copy of a Histogram.
type HistogramSnapshot struct {
	Count, Sum int64
	Buckets    [NumBuckets]int64
}

// Delta returns the samples accumulated between prev and s — the
// steady-state window a benchmark measures after discarding warmup.
// prev must be an earlier snapshot of the same histogram; per-bucket
// counts are clamped at zero so a torn capture can never go negative.
func (s HistogramSnapshot) Delta(prev HistogramSnapshot) HistogramSnapshot {
	d := HistogramSnapshot{Count: s.Count - prev.Count, Sum: s.Sum - prev.Sum}
	if d.Count < 0 {
		d.Count = 0
	}
	for i := range s.Buckets {
		if b := s.Buckets[i] - prev.Buckets[i]; b > 0 {
			d.Buckets[i] = b
		}
	}
	return d
}

// Mean returns the average sample (0 when empty).
func (s HistogramSnapshot) Mean() float64 {
	if s.Count == 0 {
		return 0
	}
	return float64(s.Sum) / float64(s.Count)
}

// Quantile returns an upper bound on the q-quantile (0 <= q <= 1): the
// inclusive upper edge of the bucket the quantile falls in.
func (s HistogramSnapshot) Quantile(q float64) int64 {
	if s.Count == 0 {
		return 0
	}
	rank := int64(q * float64(s.Count))
	if rank >= s.Count {
		rank = s.Count - 1
	}
	var seen int64
	for i, b := range s.Buckets {
		seen += b
		if seen > rank {
			return BucketUpper(i)
		}
	}
	return BucketUpper(NumBuckets - 1)
}

// QuantileInterp returns the q-quantile with linear interpolation
// inside the bucket the quantile falls in, assuming samples spread
// uniformly across the bucket's [lower, upper] range. Unlike Quantile —
// which returns the bucket's upper bound and therefore always a power
// of two minus one — this gives a smooth estimate suitable for
// reporting p50/p99 in benchmark output.
func (s HistogramSnapshot) QuantileInterp(q float64) float64 {
	if s.Count == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	rank := q * float64(s.Count)
	var seen float64
	for i, b := range s.Buckets {
		if b == 0 {
			continue
		}
		bf := float64(b)
		if seen+bf >= rank {
			lower := float64(0)
			if i > 0 {
				lower = float64(int64(1) << uint(i-1))
			}
			upper := float64(BucketUpper(i))
			frac := (rank - seen) / bf
			return lower + (upper-lower)*frac
		}
		seen += bf
	}
	return float64(s.Max())
}

// Max returns the upper bound of the highest occupied bucket.
func (s HistogramSnapshot) Max() int64 {
	for i := NumBuckets - 1; i >= 0; i-- {
		if s.Buckets[i] != 0 {
			return BucketUpper(i)
		}
	}
	return 0
}

// String renders count, mean and the canonical quantiles.
func (s HistogramSnapshot) String() string {
	if s.Count == 0 {
		return "n=0"
	}
	return fmt.Sprintf("n=%d mean=%.0f p50≤%d p90≤%d p99≤%d max≤%d",
		s.Count, s.Mean(), s.Quantile(0.50), s.Quantile(0.90), s.Quantile(0.99), s.Max())
}
