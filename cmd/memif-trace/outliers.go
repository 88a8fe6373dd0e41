package main

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"sort"
	"strings"
	"time"

	"memif/internal/obs/lifecycle"
	"memif/internal/obs/obshttp"
)

// The -outliers mode: fetch a /debug/outliers document (URL or a saved
// file) and print the top-K captured tail requests as a table with
// per-stage attribution — which pipeline edge ate the latency — plus a
// one-line summary of stall and domain-event records per source.

// stageEdge is one attributable edge of the seven-stage stamp vector.
type stageEdge struct {
	name     string
	from, to lifecycle.Stage
}

// outlierEdges attributes the full submit→retrieved window; unlike the
// histogram spans it includes the dispatch→copy-start and
// copy-end→completion gaps so the columns sum to the total latency.
var outlierEdges = []stageEdge{
	{"staging_wait", lifecycle.StageSubmit, lifecycle.StageFlushed},
	{"dispatch_wait", lifecycle.StageFlushed, lifecycle.StageDispatched},
	{"chunk_queue", lifecycle.StageDispatched, lifecycle.StageCopyStart},
	{"copy", lifecycle.StageCopyStart, lifecycle.StageCopyEnd},
	{"post", lifecycle.StageCopyEnd, lifecycle.StageCompleted},
	{"completion_dwell", lifecycle.StageCompleted, lifecycle.StageRetrieved},
}

// edgeDurations extracts each edge's duration from a stamp vector;
// edges with a missing endpoint come back -1 (rendered as "-").
func edgeDurations(ts [lifecycle.NumStages]int64) []int64 {
	out := make([]int64, len(outlierEdges))
	for i, e := range outlierEdges {
		if ts[e.from] == 0 || ts[e.to] == 0 {
			out[i] = -1
			continue
		}
		d := ts[e.to] - ts[e.from]
		if d < 0 {
			d = 0
		}
		out[i] = d
	}
	return out
}

// fetchOutliers loads the outlier document from an http(s) URL or a
// local file path.
func fetchOutliers(from string) ([]obshttp.OutlierReport, error) {
	var body []byte
	if strings.HasPrefix(from, "http://") || strings.HasPrefix(from, "https://") {
		resp, err := http.Get(from)
		if err != nil {
			return nil, err
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			return nil, fmt.Errorf("%s: %s", from, resp.Status)
		}
		if body, err = io.ReadAll(resp.Body); err != nil {
			return nil, err
		}
	} else {
		var err error
		if body, err = os.ReadFile(from); err != nil {
			return nil, err
		}
	}
	var reports []obshttp.OutlierReport
	if err := json.Unmarshal(body, &reports); err != nil {
		return nil, fmt.Errorf("not a /debug/outliers document: %w", err)
	}
	return reports, nil
}

// sourcedRecord pairs a captured record with the ring it came from.
type sourcedRecord struct {
	source string
	lc     lifecycle.Lifecycle
}

// printRecords is the one table of captured requests, whichever ring
// they came from: identity, latency against the threshold in force,
// the edge that ate most of it, then every edge — the edge columns sum
// to the latency.
func printRecords(w io.Writer, rows []sourcedRecord) {
	fmt.Fprintf(w, "%-10s %5s %5s %6s %7s %10s %9s %6s %12s %12s  %-22s",
		"source", "seq", "slot", "class", "tenant", "bytes", "outcome", "flags", "latency", "threshold", "dominant stage")
	for _, e := range outlierEdges {
		fmt.Fprintf(w, " %16s", e.name)
	}
	fmt.Fprintln(w)
	for _, r := range rows {
		lc := r.lc
		durs := edgeDurations(lc.TS)
		domIdx, domDur := -1, int64(-1)
		for i, d := range durs {
			if d > domDur {
				domIdx, domDur = i, d
			}
		}
		dom := "-"
		if domIdx >= 0 && domDur >= 0 && lc.LatencyNs > 0 {
			dom = fmt.Sprintf("%s (%2.0f%%)", outlierEdges[domIdx].name,
				100*float64(domDur)/float64(lc.LatencyNs))
		}
		fmt.Fprintf(w, "%-10s %5d %5d %6d %7d %10d %9v %#6x %12v %12v  %-22s",
			r.source, lc.Seq, lc.Slot, lc.Class, lc.Tenant, lc.Bytes, lc.Outcome, lc.Flags,
			time.Duration(lc.LatencyNs), time.Duration(lc.ThresholdNs), dom)
		for _, d := range durs {
			if d < 0 {
				fmt.Fprintf(w, " %16s", "-")
			} else {
				fmt.Fprintf(w, " %16v", time.Duration(d))
			}
		}
		fmt.Fprintln(w)
	}
}

// showOutliers renders the top-K latency outliers across every source.
func showOutliers(w io.Writer, from string, topK int) error {
	reports, err := fetchOutliers(from)
	if err != nil {
		return err
	}
	var rows []sourcedRecord
	for _, rep := range reports {
		fs := rep.Flight
		armed := "armed"
		if !fs.Enabled {
			armed = "disarmed"
		}
		fmt.Fprintf(w, "source %-10s %s  ring %d  breaches %d  stalls %d  events %d  captured %d\n",
			rep.Source, armed, fs.RingDepth, fs.Breaches, fs.Stalls, fs.Events, fs.Captured)
		for _, o := range fs.Outliers {
			if o.Kind == lifecycle.KindLatency {
				rows = append(rows, sourcedRecord{rep.Source, o})
				continue
			}
			fmt.Fprintf(w, "  %-8s %-18s at %12dns  depth %d  inflight %v\n",
				o.Kind, o.Reason, o.Nano, o.Ambient.SubmissionDepth, o.Ambient.ClassInFlight)
		}
	}
	if len(rows) == 0 {
		fmt.Fprintln(w, "\nno latency outliers captured")
		return nil
	}
	sort.Slice(rows, func(i, j int) bool { return rows[i].lc.LatencyNs > rows[j].lc.LatencyNs })
	total := len(rows)
	if len(rows) > topK {
		rows = rows[:topK]
	}
	fmt.Fprintf(w, "\ntop %d latency outliers (of %d retained), worst first:\n\n", len(rows), total)
	printRecords(w, rows)
	return nil
}
