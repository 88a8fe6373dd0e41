package obshttp

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"memif/internal/obs"
	"memif/internal/obs/flight"
	"memif/internal/obs/lifecycle"
	"memif/internal/realtime"
	"memif/internal/streamrt"
	"memif/internal/swapd"
)

func sampleHistogram(vals ...int64) obs.HistogramSnapshot {
	var h obs.Histogram
	for _, v := range vals {
		h.Observe(v)
	}
	return h.Snapshot()
}

func TestExpositionRoundTrip(t *testing.T) {
	ms := []Metric{
		{Name: "memif_test_ops_total", Help: "Ops done.", Type: TypeCounter, Value: 42},
		{Name: "memif_test_depth", Help: "Live depth.", Type: TypeGauge,
			Labels: []Label{{"shard", "0"}}, Value: 3},
		{Name: "memif_test_depth", Type: TypeGauge,
			Labels: []Label{{"shard", "1"}}, Value: 7},
		{Name: "memif_test_latency_ns", Help: "Latency with \"quotes\" and \\slashes.",
			Type: TypeHistogram, Labels: []Label{{"stage", `a"b\c`}},
			Hist: sampleHistogram(1, 5, 5, 900, 70000)},
	}
	var b strings.Builder
	WriteExposition(&b, ms)
	text := b.String()

	if err := ParseExposition([]byte(text)); err != nil {
		t.Fatalf("round trip failed: %v\n%s", err, text)
	}
	for _, want := range []string{
		"# TYPE memif_test_ops_total counter",
		"memif_test_ops_total 42",
		`memif_test_depth{shard="1"} 7`,
		"# TYPE memif_test_latency_ns histogram",
		`le="+Inf"`,
		"memif_test_latency_ns_count",
		"memif_test_latency_ns_sum",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("exposition missing %q:\n%s", want, text)
		}
	}
	// Exactly one TYPE header per family even with several series.
	if n := strings.Count(text, "# TYPE memif_test_depth "); n != 1 {
		t.Errorf("TYPE header for memif_test_depth appears %d times", n)
	}
}

func TestParseExpositionRejectsMalformed(t *testing.T) {
	cases := map[string]string{
		"no samples":     "# TYPE foo counter\n",
		"undeclared":     "foo_total 1\n",
		"bad name":       "# TYPE 9foo counter\n9foo 1\n",
		"bad value":      "# TYPE foo counter\nfoo pizza\n",
		"bad type":       "# TYPE foo banana\nfoo 1\n",
		"open labels":    "# TYPE foo counter\nfoo{a=\"b 1\n",
		"unquoted label": "# TYPE foo counter\nfoo{a=b} 1\n",
		"no inf bucket":  "# TYPE h histogram\nh_bucket{le=\"1\"} 1\nh_sum 1\nh_count 1\n",
		"shrinking cumulative": "# TYPE h histogram\nh_bucket{le=\"1\"} 5\nh_bucket{le=\"2\"} 3\n" +
			"h_bucket{le=\"+Inf\"} 5\nh_sum 1\nh_count 5\n",
		"le not increasing": "# TYPE h histogram\nh_bucket{le=\"2\"} 1\nh_bucket{le=\"1\"} 2\n" +
			"h_bucket{le=\"+Inf\"} 2\nh_sum 1\nh_count 2\n",
		"count mismatch": "# TYPE h histogram\nh_bucket{le=\"1\"} 1\nh_bucket{le=\"+Inf\"} 1\n" +
			"h_sum 1\nh_count 9\n",
		"bare histogram sample": "# TYPE h histogram\nh 1\n",
	}
	for name, input := range cases {
		if err := ParseExposition([]byte(input)); err == nil {
			t.Errorf("%s: accepted malformed input:\n%s", name, input)
		}
	}
	ok := "# HELP foo Total foos.\n# TYPE foo counter\nfoo{a=\"x\\\"y\\\\z\\n\"} 1 1712345678\n" +
		"# TYPE bar gauge\nbar +Inf\n"
	if err := ParseExposition([]byte(ok)); err != nil {
		t.Errorf("rejected well-formed input: %v", err)
	}
}

// runRealtimeBurst pushes n requests through d and retrieves them all.
func runRealtimeBurst(t *testing.T, d *realtime.Device, n int) {
	t.Helper()
	src := bytes.Repeat([]byte{9}, 8192)
	for done := 0; done < n; {
		r := d.AllocRequest()
		if r == nil {
			t.Fatal("out of request slots")
		}
		r.Src, r.Dst = src, make([]byte, len(src))
		if err := d.Submit(r); err != nil {
			t.Fatal(err)
		}
		if !d.Poll(time.Second) {
			t.Fatal("Poll timed out")
		}
		for {
			got := d.RetrieveCompleted()
			if got == nil {
				break
			}
			d.FreeRequest(got)
			done++
		}
	}
}

func TestHandlerEndpointsLiveDevice(t *testing.T) {
	opts := realtime.DefaultOptions()
	opts.TraceFullCapture = true
	d := realtime.Open(opts)
	defer d.Close()
	runRealtimeBurst(t, d, 64)

	h := NewHandler()
	h.Register(RealtimeCollector("rt0", d))
	h.RegisterTrace("realtime", func() []lifecycle.Lifecycle {
		return d.Stats().Lifecycle.Captured
	})
	srv := httptest.NewServer(h)
	defer srv.Close()

	body := httpGet(t, srv.URL+"/metrics")
	if err := ParseExposition(body); err != nil {
		t.Fatalf("/metrics not valid exposition: %v\n%s", err, body)
	}
	for _, want := range []string{
		`memif_realtime_submitted_total{device="rt0"} 64`,
		`memif_realtime_stage_latency_ns_bucket{device="rt0",stage="staging_wait",le="+Inf"}`,
		`memif_realtime_stage_latency_ns_count{device="rt0",stage="completion_dwell"}`,
		`memif_realtime_trace_sample_shift{device="rt0"} 0`,
	} {
		if !strings.Contains(string(body), want) {
			t.Errorf("/metrics missing %q", want)
		}
	}
	// Full capture: every stage-pair span must have samples.
	for _, stage := range []string{"staging_wait", "dispatch_wait", "copy", "completion_dwell", "total"} {
		prefix := fmt.Sprintf("memif_realtime_stage_latency_ns_count{device=\"rt0\",stage=%q} ", stage)
		line := findLine(string(body), prefix)
		if line == "" || strings.HasSuffix(line, " 0") {
			t.Errorf("span %s has no samples (line %q)", stage, line)
		}
	}

	trace := httpGet(t, srv.URL+"/trace")
	var doc struct {
		TraceEvents []struct {
			Name  string  `json:"name"`
			Phase string  `json:"ph"`
			Dur   float64 `json:"dur"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(trace, &doc); err != nil {
		t.Fatalf("/trace not valid JSON: %v", err)
	}
	var spans int
	for _, ev := range doc.TraceEvents {
		if ev.Phase == "X" {
			spans++
		}
	}
	if spans == 0 {
		t.Fatalf("/trace has no complete events in %d events", len(doc.TraceEvents))
	}

	for _, path := range []string{"/", "/debug/pprof/", "/debug/pprof/goroutine?debug=1"} {
		resp, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Errorf("GET %s: status %d", path, resp.StatusCode)
		}
	}
	if resp, err := http.Get(srv.URL + "/nope"); err == nil {
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Errorf("GET /nope: status %d, want 404", resp.StatusCode)
		}
	}
}

// TestAllSubsystemConverters renders the two simulated-side namespaces
// — swapd, streamrt — through one handler and validates the combined
// exposition, per-stage histograms included.
func TestAllSubsystemConverters(t *testing.T) {
	var spans lifecycle.SpanSet
	for i := int64(1); i <= 16; i++ {
		spans.Observe(lifecycle.SpanStagingWait, i*10)
		spans.Observe(lifecycle.SpanDispatchWait, i*20)
		spans.Observe(lifecycle.SpanCopy, i*100)
		spans.Observe(lifecycle.SpanCompletionDwell, i*5)
		spans.Observe(lifecycle.SpanTotal, i*200)
	}
	sw := swapd.MetricsSnapshot{
		Promotions: 7, Demotions: 16, ZeroCopyDemotions: 5, Aborts: 3, Failed: 2,
		BytesPromoted: 7 << 20, BytesDemoted: 16 << 20, BytesMoved: 11 << 20,
		Latency:      sampleHistogram(100, 200, 400),
		Sizes:        sampleHistogram(1 << 20),
		PromotionLag: sampleHistogram(2_000_000),
		Stages:       spans.Snapshot(),
		Flight: flight.Snapshot{
			Enabled: true, RingDepth: 512, Breaches: 2, Events: 3, Captured: 5,
			Thresholds: []flight.LaneThreshold{
				{Class: 2, EWMANs: 1_500_000, ThresholdNs: 6_000_000, Count: 16},
				{Class: 3, EWMANs: 2_000_000, ThresholdNs: 8_000_000, Count: 7},
			},
		},
	}
	st := streamrt.EngineSnapshot{Streams: []streamrt.StreamStats{{
		Name:       "s",
		FastChunks: 12, SlowChunks: 4, BytesPrefetched: 6 << 20,
		FillLatency: sampleHistogram(300, 600),
		Stages:      spans.Snapshot(),
	}}}

	h := NewHandler()
	h.Register(func() []Metric { return SwapdMetrics("swapd0", sw) })
	h.Register(func() []Metric { return StreamEngineMetrics("", st) })
	text := h.MetricsText()
	if err := ParseExposition(text); err != nil {
		t.Fatalf("combined exposition invalid: %v\n%s", err, text)
	}
	for _, want := range []string{
		`memif_swapd_promotions_total{device="swapd0"} 7`,
		`memif_swapd_demotions_total{device="swapd0"} 16`,
		`memif_swapd_zero_copy_demotions_total{device="swapd0"} 5`,
		`memif_swapd_txn_aborts_total{device="swapd0"} 3`,
		`memif_swapd_failed_total{device="swapd0"} 2`,
		`memif_swapd_bytes_moved_total{device="swapd0"} 11534336`,
		`memif_swapd_promotion_lag_ns_count{device="swapd0"} 1`,
		`memif_swapd_bytes_demoted_total{device="swapd0"} 16777216`,
		`memif_swapd_stage_latency_ns_count{device="swapd0",stage="copy"} 16`,
		`memif_swapd_flight_breaches_total{device="swapd0"} 2`,
		`memif_swapd_flight_domain_events_total{device="swapd0"} 3`,
		`memif_swapd_flight_captured_total{device="swapd0"} 5`,
		`memif_swapd_flight_threshold_ns{device="swapd0",class="scavenger"} 6000000`,
		`memif_swapd_flight_threshold_ns{device="swapd0",class="promotion_lag"} 8000000`,
		`memif_stream_fast_chunks_total{stream="s"} 12`,
		`memif_stream_stage_latency_ns_count{stream="s",stage="staging_wait"} 16`,
	} {
		if !strings.Contains(string(text), want) {
			t.Errorf("exposition missing %q", want)
		}
	}
}

// TestStreamEngineConverter renders a stream-engine snapshot — engine
// totals, two per-stream label sets, stage spans, and the flight
// recorder — and validates the exposition plus the headline series.
func TestStreamEngineConverter(t *testing.T) {
	var spans lifecycle.SpanSet
	for i := int64(1); i <= 8; i++ {
		spans.Observe(lifecycle.SpanCopy, i*100)
		spans.Observe(lifecycle.SpanTotal, i*150)
	}
	es := streamrt.EngineSnapshot{
		RingBufs: 8, BufBytes: 512 << 10, FreeBufs: 3, BufMmaps: 8,
		OpenStreams: 2, StreamsOpened: 5, StreamsClosed: 3,
		Fills: 40, FillBatches: 12,
		FastChunks: 36, SlowChunks: 4, BytesPrefetched: 36 << 19, Stalls: 0,
		Streams: []streamrt.StreamStats{
			{
				ID: 0, Name: "ingest-a", Kernel: "triad", Class: 1,
				Bytes: 20 << 19, Chunks: 20, Credits: 2, CreditsInFlight: 1,
				CreditsGranted: 21, CreditsReturned: 20,
				FastChunks: 18, SlowChunks: 2, BytesPrefetched: 18 << 19,
				Fills: 21, FillFailures: 1, TailWaits: 2,
				FillLatency: sampleHistogram(300, 600),
				Stages:      spans.Snapshot(),
			},
			{ID: 1, Name: "ingest-b", Kernel: "add", Credits: 4, Fills: 19, FastChunks: 18, SlowChunks: 2},
		},
		StreamNames: []string{"ingest-a", "ingest-b"},
		Flight: flight.Snapshot{
			Enabled: true, RingDepth: 256, Breaches: 3, Captured: 3,
			Thresholds: []flight.LaneThreshold{
				{Class: 1, EWMANs: 900_000, ThresholdNs: 2_700_000, Count: 21},
			},
		},
	}
	h := NewHandler()
	h.Register(func() []Metric { return StreamEngineMetrics("eng0", es) })
	text := h.MetricsText()
	if err := ParseExposition(text); err != nil {
		t.Fatalf("stream-engine exposition invalid: %v\n%s", err, text)
	}
	for _, want := range []string{
		`memif_stream_engine_ring_buffers{device="eng0"} 8`,
		`memif_stream_engine_buf_mmaps_total{device="eng0"} 8`,
		`memif_stream_engine_open_streams{device="eng0"} 2`,
		`memif_stream_engine_fills_total{device="eng0"} 40`,
		`memif_stream_engine_fill_batches_total{device="eng0"} 12`,
		`memif_stream_engine_stalls_total{device="eng0"} 0`,
		`memif_stream_credits{device="eng0",stream="ingest-a"} 2`,
		`memif_stream_credits_in_flight{device="eng0",stream="ingest-a"} 1`,
		`memif_stream_credits_granted_total{device="eng0",stream="ingest-a"} 21`,
		`memif_stream_fast_chunks_total{device="eng0",stream="ingest-a"} 18`,
		`memif_stream_slow_chunks_total{device="eng0",stream="ingest-b"} 2`,
		`memif_stream_fill_failures_total{device="eng0",stream="ingest-a"} 1`,
		`memif_stream_fill_latency_ns_count{device="eng0",stream="ingest-a"} 2`,
		`memif_stream_stage_latency_ns_count{device="eng0",stream="ingest-a",stage="copy"} 8`,
		`memif_stream_flight_breaches_total{device="eng0"} 3`,
		`memif_stream_flight_threshold_ns{device="eng0",class="background"} 2700000`,
	} {
		if !strings.Contains(string(text), want) {
			t.Errorf("exposition missing %q", want)
		}
	}
}

// TestScrapeWhileSubmitting hammers /metrics rendering concurrently
// with live submitters — the scrape must stay valid and race-free
// (run under -race) while the device is at full throttle.
func TestScrapeWhileSubmitting(t *testing.T) {
	opts := realtime.DefaultOptions()
	d := realtime.Open(opts)
	defer d.Close()

	h := NewHandler()
	h.Register(RealtimeCollector("rt0", d))
	h.RegisterTrace("realtime", func() []lifecycle.Lifecycle {
		return d.Stats().Lifecycle.Captured
	})

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for s := 0; s < 4; s++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			src := make([]byte, 4096)
			for {
				select {
				case <-stop:
					return
				default:
				}
				r := d.AllocRequest()
				if r == nil {
					for got := d.RetrieveCompleted(); got != nil; got = d.RetrieveCompleted() {
						d.FreeRequest(got)
					}
					continue
				}
				r.Src, r.Dst = src, make([]byte, len(src))
				if err := d.Submit(r); err != nil {
					d.FreeRequest(r)
					continue
				}
				for got := d.RetrieveCompleted(); got != nil; got = d.RetrieveCompleted() {
					d.FreeRequest(got)
				}
			}
		}()
	}

	deadline := time.After(200 * time.Millisecond)
	scrapes := 0
	for done := false; !done; {
		select {
		case <-deadline:
			done = true
		default:
			body := h.MetricsText()
			if err := ParseExposition(body); err != nil {
				t.Fatalf("scrape %d invalid mid-traffic: %v", scrapes, err)
			}
			if _, err := h.TraceJSON(); err != nil {
				t.Fatalf("trace render %d failed: %v", scrapes, err)
			}
			scrapes++
		}
	}
	close(stop)
	wg.Wait()
	if scrapes == 0 {
		t.Fatal("no scrapes completed")
	}
	// Drain whatever is left so Close finds a quiet device.
	for got := d.RetrieveCompleted(); got != nil; got = d.RetrieveCompleted() {
		d.FreeRequest(got)
	}
}

func httpGet(t *testing.T, url string) []byte {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: status %d", url, resp.StatusCode)
	}
	return body
}

func findLine(text, prefix string) string {
	for _, ln := range strings.Split(text, "\n") {
		if strings.HasPrefix(ln, prefix) {
			return ln
		}
	}
	return ""
}
