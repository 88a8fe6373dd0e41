package obs

import (
	"sync"
	"testing"
)

func TestCounterAndGauge(t *testing.T) {
	var c Counter
	var g Gauge
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for j := 0; j < 1000; j++ {
				c.Inc()
				g.Observe(int64(i*1000 + j))
			}
		}(i)
	}
	wg.Wait()
	if c.Load() != 8000 {
		t.Errorf("counter = %d, want 8000", c.Load())
	}
	if g.Load() != 7999 {
		t.Errorf("gauge high watermark = %d, want 7999", g.Load())
	}
}

func TestHistogramBuckets(t *testing.T) {
	var h Histogram
	for _, v := range []int64{0, 1, 2, 3, 4, 1000, 1 << 40} {
		h.Observe(v)
	}
	s := h.Snapshot()
	if s.Count != 7 {
		t.Fatalf("count = %d", s.Count)
	}
	if s.Buckets[0] != 1 { // v=0
		t.Errorf("bucket 0 = %d", s.Buckets[0])
	}
	if s.Buckets[1] != 1 { // v=1
		t.Errorf("bucket 1 = %d", s.Buckets[1])
	}
	if s.Buckets[2] != 2 { // v=2,3
		t.Errorf("bucket 2 = %d", s.Buckets[2])
	}
	if s.Buckets[3] != 1 { // v=4
		t.Errorf("bucket 3 = %d", s.Buckets[3])
	}
	if s.Buckets[10] != 1 { // v=1000: 2^9 <= 1000 < 2^10
		t.Errorf("bucket 10 = %d", s.Buckets[10])
	}
	if s.Buckets[41] != 1 { // v=2^40
		t.Errorf("bucket 41 = %d", s.Buckets[41])
	}
}

func TestHistogramQuantiles(t *testing.T) {
	var h Histogram
	for i := int64(1); i <= 1000; i++ {
		h.Observe(i)
	}
	s := h.Snapshot()
	if got := s.Quantile(0.5); got < 500 || got > 1023 {
		t.Errorf("p50 bound = %d, want within [500, 1023]", got)
	}
	if got := s.Max(); got < 1000 {
		t.Errorf("max bound = %d, want >= 1000", got)
	}
	if m := s.Mean(); m < 500 || m > 501 {
		t.Errorf("mean = %v, want 500.5", m)
	}
	if s.String() == "n=0" {
		t.Error("String() reported empty")
	}
}

func TestHistogramDelta(t *testing.T) {
	var h Histogram
	for i := 0; i < 100; i++ {
		h.Observe(10)
	}
	warm := h.Snapshot()
	for i := 0; i < 50; i++ {
		h.Observe(1 << 20)
	}
	d := h.Snapshot().Delta(warm)
	if d.Count != 50 {
		t.Errorf("delta count = %d, want 50", d.Count)
	}
	if d.Sum != 50<<20 {
		t.Errorf("delta sum = %d, want %d", d.Sum, 50<<20)
	}
	if d.Buckets[bucketOf(10)] != 0 {
		t.Errorf("warmup bucket leaked into delta: %d", d.Buckets[bucketOf(10)])
	}
	if d.Buckets[bucketOf(1<<20)] != 50 {
		t.Errorf("delta bucket = %d, want 50", d.Buckets[bucketOf(1<<20)])
	}
	if got := d.Quantile(0.5); got < 1<<20 {
		t.Errorf("delta p50 bound = %d, want >= %d", got, 1<<20)
	}
	// Delta against a later snapshot clamps rather than going negative.
	if z := warm.Delta(h.Snapshot()); z.Count != 0 {
		t.Errorf("reversed delta count = %d, want 0", z.Count)
	}
}

func TestQuantileEmptyAndEdges(t *testing.T) {
	var h Histogram
	if h.Snapshot().Quantile(0.99) != 0 {
		t.Error("empty histogram quantile != 0")
	}
	h.Observe(5)
	s := h.Snapshot()
	if s.Quantile(0) != s.Quantile(1) {
		t.Error("single-sample quantiles disagree")
	}
}

func TestGaugeWatermark(t *testing.T) {
	var g Gauge
	for _, v := range []int64{10, 50, 3} {
		g.Observe(v)
	}
	if hw := g.Load(); hw != 50 {
		t.Errorf("Load() = %d, want watermark 50", hw)
	}
	g.Observe(-1)
	if hw := g.Load(); hw != 50 {
		t.Errorf("Load() = %d after a lower sample, want 50", hw)
	}
}

func TestQuantileInterp(t *testing.T) {
	var h Histogram
	// 100 samples spread across bucket [64,127] (bits.Len == 7).
	for i := 0; i < 100; i++ {
		h.Observe(64 + int64(i)%64)
	}
	s := h.Snapshot()
	p50 := s.QuantileInterp(0.50)
	if p50 < 64 || p50 > 127 {
		t.Errorf("p50 = %f, want inside [64,127]", p50)
	}
	// Interpolation must land mid-bucket, not at the upper bound the
	// plain Quantile reports.
	if p50 == float64(s.Quantile(0.50)) {
		t.Errorf("p50 interp %f equals bucket upper bound %d", p50, s.Quantile(0.50))
	}
	if got := s.QuantileInterp(0); got < 64 || got >= 65 {
		t.Errorf("q=0 -> %f, want bucket lower edge 64", got)
	}
	if got := s.QuantileInterp(1); got != 127 {
		t.Errorf("q=1 -> %f, want bucket upper edge 127", got)
	}
	// Monotone in q.
	prev := -1.0
	for q := 0.0; q <= 1.0; q += 0.05 {
		v := s.QuantileInterp(q)
		if v < prev {
			t.Fatalf("QuantileInterp not monotone: q=%.2f -> %f < %f", q, v, prev)
		}
		prev = v
	}
	// Empty histogram and out-of-range q are safe.
	var empty HistogramSnapshot
	if empty.QuantileInterp(0.5) != 0 {
		t.Error("empty histogram quantile != 0")
	}
	if v := s.QuantileInterp(2); v != 127 {
		t.Errorf("q>1 clamps to max bucket edge, got %f", v)
	}
}
