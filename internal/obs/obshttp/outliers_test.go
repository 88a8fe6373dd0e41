package obshttp

import (
	"bytes"
	"encoding/json"
	"net/http/httptest"
	"os"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"memif/internal/obs/lifecycle"
	"memif/internal/realtime"
)

// aggressiveFlight arms the recorder so an ordinary in-process burst
// reliably produces breaches: threshold = max(1ns, 1×EWMA) after a
// one-request warmup means roughly every above-average completion
// captures.
func aggressiveFlight() lifecycle.FlightOptions {
	return lifecycle.FlightOptions{
		ThresholdFloorNs: 1,
		ThresholdMult:    1,
		Warmup:           1,
	}
}

// TestOutliersEndpoints drives a burst through a flight-armed device
// and checks the /debug/outliers JSON document, the Chrome-trace
// export, and the index listing.
func TestOutliersEndpoints(t *testing.T) {
	opts := realtime.DefaultOptions()
	opts.Flight = aggressiveFlight()
	d := realtime.Open(opts)
	defer d.Close()

	h := NewHandler()
	h.Register(RealtimeCollector("rt0", d))
	h.RegisterOutliers("realtime", d.FlightSnapshot)

	runRealtimeBurst(t, d, 400)

	srv := httptest.NewServer(h)
	defer srv.Close()

	var reports []OutlierReport
	if err := json.Unmarshal(httpGet(t, srv.URL+"/debug/outliers"), &reports); err != nil {
		t.Fatalf("/debug/outliers not valid JSON: %v", err)
	}
	if len(reports) != 1 || reports[0].Source != "realtime" {
		t.Fatalf("reports = %+v, want one source \"realtime\"", reports)
	}
	fs := reports[0].Flight
	if !fs.Enabled {
		t.Fatal("flight snapshot not enabled")
	}
	if fs.Breaches == 0 {
		t.Fatal("no breaches after 400-request burst at threshold floor 1ns")
	}
	if fs.Captured != fs.Breaches+fs.Stalls {
		t.Fatalf("captured %d != breaches %d + stalls %d (every breach must capture; only the watchdog adds records)", fs.Captured, fs.Breaches, fs.Stalls)
	}
	if len(fs.Outliers) == 0 {
		t.Fatal("no outlier records retained")
	}
	for _, o := range fs.Outliers {
		if o.Kind == lifecycle.KindStall {
			continue // a watchdog report: the host stalled the burst for 30 ms
		}
		if o.Kind != lifecycle.KindLatency {
			t.Fatalf("unexpected non-latency record: %+v", o)
		}
		for st, ts := range o.TS {
			if ts == 0 {
				t.Fatalf("outlier seq %d missing stage %s: %+v", o.Seq, lifecycle.Stage(st), o)
			}
		}
		if o.LatencyNs <= o.ThresholdNs {
			t.Fatalf("outlier seq %d latency %d within threshold %d", o.Seq, o.LatencyNs, o.ThresholdNs)
		}
	}
	if len(fs.Thresholds) == 0 {
		t.Fatal("no lane thresholds reported")
	}

	trace := httpGet(t, srv.URL+"/debug/outliers/trace")
	var doc struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(trace, &doc); err != nil {
		t.Fatalf("/debug/outliers/trace not valid JSON: %v", err)
	}
	if len(doc.TraceEvents) == 0 {
		t.Fatal("outlier trace has no events")
	}

	index := string(httpGet(t, srv.URL+"/"))
	if !strings.Contains(index, "/debug/outliers") {
		t.Fatalf("index does not list /debug/outliers:\n%s", index)
	}

	// The flight series ride the normal scrape.
	metrics := string(httpGet(t, srv.URL+"/metrics"))
	for _, want := range []string{
		"memif_realtime_flight_breaches_total",
		"memif_realtime_flight_captured_total",
		"memif_realtime_flight_threshold_ns",
		"memif_realtime_slo_objective_ns",
		"memif_realtime_slo_requests_total",
		"memif_realtime_slo_burn_rate",
	} {
		if !strings.Contains(metrics, want) {
			t.Errorf("scrape missing %s", want)
		}
	}
	if err := ParseExposition([]byte(metrics)); err != nil {
		t.Fatalf("scrape with flight series invalid: %v", err)
	}
}

// TestScrapeWhileSubmittingOutliers hammers the outlier JSON, the
// outlier trace and /metrics concurrently with live submitters on a
// flight-armed device — every render must stay valid and race-free
// (run under -race) while captures land mid-scan.
func TestScrapeWhileSubmittingOutliers(t *testing.T) {
	opts := realtime.DefaultOptions()
	opts.Flight = aggressiveFlight() // the watchdog runs: stall records may interleave too
	d := realtime.Open(opts)
	defer d.Close()

	h := NewHandler()
	h.Register(RealtimeCollector("rt0", d))
	h.RegisterOutliers("realtime", d.FlightSnapshot)

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
					// Hand the core to the worker: on GOMAXPROCS=1 a
					// hot alloc-retry spin starves the very pipeline it
					// is waiting on.
					runtime.Gosched()
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
			var reports []OutlierReport
			if err := json.Unmarshal(mustJSON(t, h.OutliersJSON), &reports); err != nil {
				t.Fatalf("outliers render %d invalid mid-traffic: %v", scrapes, err)
			}
			mustJSON(t, h.OutliersTraceJSON)
			if err := ParseExposition(h.MetricsText()); err != nil {
				t.Fatalf("scrape %d invalid mid-traffic: %v", scrapes, err)
			}
			scrapes++
		}
	}
	close(stop)
	wg.Wait()
	if scrapes == 0 {
		t.Fatal("no scrapes completed")
	}
	if fs := d.FlightSnapshot(); fs.Breaches == 0 {
		t.Error("no breaches captured during the storm")
	}
	for got := d.RetrieveCompleted(); got != nil; got = d.RetrieveCompleted() {
		d.FreeRequest(got)
	}
}

func mustJSON(t *testing.T, render func() ([]byte, error)) []byte {
	t.Helper()
	body, err := render()
	if err != nil {
		t.Fatalf("render failed: %v", err)
	}
	return body
}

// TestOutliersParentFixtureRoundTrips pins the /debug/outliers wire
// format across the captured-record refactor: testdata/outliers_parent.json
// was rendered through Handler.OutliersJSON by the code at 50dcc92 from
// a hand-built snapshot — all three kinds, watchdog and domain reasons,
// a tenant lane, windowed and cumulative SLO burn, a disarmed source —
// and today's types must decode it and re-encode it byte for byte: no
// field renamed, retyped, reordered or dropped.
func TestOutliersParentFixtureRoundTrips(t *testing.T) {
	want, err := os.ReadFile("testdata/outliers_parent.json")
	if err != nil {
		t.Fatal(err)
	}
	var reports []OutlierReport
	if err := json.Unmarshal(want, &reports); err != nil {
		t.Fatalf("fixture does not decode: %v", err)
	}
	got, err := json.MarshalIndent(reports, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if got = append(got, '\n'); !bytes.Equal(got, want) {
		t.Fatalf("re-encoded document differs from the parent's rendering:\n%s", got)
	}
}
