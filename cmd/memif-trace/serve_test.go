package main

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"

	"memif/internal/obs/lifecycle"
	"memif/internal/obs/obshttp"
)

func get(t *testing.T, url string) []byte {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: %s, %v", url, resp.Status, err)
	}
	return body
}

// spanEvents decodes a Chrome trace_event document and returns how many
// complete ("X") events it holds, none with a negative time.
func spanEvents(t *testing.T, what string, body []byte) int {
	t.Helper()
	var doc struct {
		TraceEvents []struct {
			Name  string  `json:"name"`
			Phase string  `json:"ph"`
			TS    float64 `json:"ts"`
			Dur   float64 `json:"dur"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(body, &doc); err != nil {
		t.Fatalf("%s is not trace_event JSON: %v", what, err)
	}
	spans := 0
	for _, ev := range doc.TraceEvents {
		if ev.Phase != "X" {
			continue
		}
		if ev.TS < 0 || ev.Dur < 0 {
			t.Errorf("%s: event %s has negative ts/dur (%f/%f)", what, ev.Name, ev.TS, ev.Dur)
		}
		spans++
	}
	return spans
}

// TestServeEndpoints is the observability acceptance gate: the handler
// -serve would listen with — a realtime burst with chaos-delayed
// stragglers, a swap-out scenario and a two-stream engine run, all
// real — is served over HTTP and every endpoint is scraped and held to
// what it promises. The stragglers sleep 4 x 25 ms and the simulated
// scenarios take about a second, so -short skips it.
func TestServeEndpoints(t *testing.T) {
	if testing.Short() {
		t.Skip("populates three engines, including 25 ms chaos stragglers")
	}
	h, stop, err := populate(8, 64<<10)
	if err != nil {
		t.Fatal(err)
	}
	defer stop()
	srv := httptest.NewServer(h)
	defer srv.Close()

	// /metrics: a valid exposition in which all three pipelines have
	// attributed every stage a request must pass at least once.
	metrics := get(t, srv.URL+"/metrics")
	if err := obshttp.ParseExposition(metrics); err != nil {
		t.Fatalf("/metrics exposition invalid: %v", err)
	}
	lines := strings.Split(string(metrics), "\n")
	for _, fam := range []string{
		"memif_realtime_stage_latency_ns",
		"memif_swapd_stage_latency_ns",
		"memif_stream_stage_latency_ns",
	} {
		for _, stage := range []string{"staging_wait", "dispatch_wait", "copy", "completion_dwell"} {
			var n float64
			for _, ln := range lines {
				if !strings.HasPrefix(ln, fam+"_count{") || !strings.Contains(ln, `stage="`+stage+`"`) {
					continue
				}
				v, err := strconv.ParseFloat(ln[strings.LastIndexByte(ln, ' ')+1:], 64)
				if err != nil {
					t.Fatalf("%s stage %s: bad count in %q", fam, stage, ln)
				}
				n += v
			}
			if n == 0 {
				t.Errorf("%s has no samples for stage %s", fam, stage)
			}
		}
	}

	// /trace and /debug/outliers/trace: Chrome trace JSON with at least
	// one complete span event each.
	for _, path := range []string{"/trace", "/debug/outliers/trace"} {
		if spanEvents(t, path, get(t, srv.URL+path)) == 0 {
			t.Errorf("%s has no complete events", path)
		}
	}

	// /debug/outliers: every armed source's counters conserve, every
	// retained latency record is a real breach with a complete monotone
	// stamp vector, and a source that counted breaches retains evidence.
	var reports []obshttp.OutlierReport
	if err := json.Unmarshal(get(t, srv.URL+"/debug/outliers"), &reports); err != nil {
		t.Fatalf("/debug/outliers does not decode: %v", err)
	}
	if len(reports) != 3 {
		t.Fatalf("%d flight sources, want realtime, swapd and streams", len(reports))
	}
	latRecords := 0
	for _, rep := range reports {
		fs := rep.Flight
		if !fs.Enabled {
			t.Errorf("source %s: recorder disarmed", rep.Source)
			continue
		}
		if fs.Captured != fs.Breaches+fs.Stalls+fs.Events {
			t.Errorf("source %s: captured %d != breaches %d + stalls %d + events %d",
				rep.Source, fs.Captured, fs.Breaches, fs.Stalls, fs.Events)
		}
		retained := 0
		for _, o := range fs.Outliers {
			if o.Kind != lifecycle.KindLatency {
				continue
			}
			retained++
			if o.LatencyNs <= o.ThresholdNs {
				t.Errorf("source %s seq %d: latency %d within threshold %d — not a breach",
					rep.Source, o.Seq, o.LatencyNs, o.ThresholdNs)
			}
			prev := int64(0)
			for st, ts := range o.TS {
				if ts == 0 {
					t.Errorf("source %s seq %d: missing stage %s stamp", rep.Source, o.Seq, lifecycle.Stage(st))
				}
				if ts < prev {
					t.Errorf("source %s seq %d: stage %s stamp %d before %d",
						rep.Source, o.Seq, lifecycle.Stage(st), ts, prev)
				}
				prev = ts
			}
		}
		if fs.Breaches > 0 && retained == 0 {
			t.Errorf("source %s: %d breaches counted but no latency records retained", rep.Source, fs.Breaches)
		}
		latRecords += retained
	}
	if latRecords == 0 {
		t.Error("no latency outliers retained by any source")
	}

	// The -outliers table renders the scraped document.
	var table bytes.Buffer
	if err := showOutliers(&table, srv.URL+"/debug/outliers", 5); err != nil {
		t.Fatalf("-outliers: %v", err)
	}
	for _, want := range []string{"source realtime", "source swapd", "source streams", "latency outliers (of", "dominant stage"} {
		if !strings.Contains(table.String(), want) {
			t.Errorf("-outliers table lacks %q:\n%s", want, table.String())
		}
	}
}

// TestCheckFlags pins the up-front flag check: every value a mode can
// run passes, and each out-of-range -reqs, -pages or -top is refused
// with a message naming the flag.
func TestCheckFlags(t *testing.T) {
	for _, tc := range []struct {
		reqs, pages, top int
		want             string // "" = accepted, else a substring of the error
	}{
		{8, 16, 10, ""},
		{1, 1, 1, ""},
		{256, 1, 1, ""},
		{0, 16, 10, "-reqs 0 out of range [1, 256]"},
		{-1, 16, 10, "-reqs -1"},
		{257, 16, 10, "-reqs 257 out of range [1, 256]"},
		{300, 1, 10, "-reqs 300"},
		{8, 0, 10, "-pages 0"},
		{8, -3, 10, "-pages -3"},
		{8, 16, 0, "-top 0"},
		{8, 16, -1, "-top -1"},
	} {
		err := checkFlags(tc.reqs, tc.pages, tc.top)
		switch {
		case tc.want == "" && err != nil:
			t.Errorf("checkFlags(%d, %d, %d) = %v, want accepted", tc.reqs, tc.pages, tc.top, err)
		case tc.want != "" && (err == nil || !strings.Contains(err.Error(), tc.want)):
			t.Errorf("checkFlags(%d, %d, %d) = %v, want an error containing %q", tc.reqs, tc.pages, tc.top, err, tc.want)
		}
	}
}
