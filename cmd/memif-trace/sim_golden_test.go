package main

import (
	"encoding/json"
	"flag"
	"os"
	"testing"

	"memif/internal/obs/obshttp"
)

var update = flag.Bool("update", false, "rewrite testdata/sim.golden from this run instead of comparing")

// TestSimGolden pins the simulated half of the -serve handler: the full
// /metrics exposition of the swapd0 and eng0 sources runSimScenario
// builds, then swapd's /debug/outliers document. Both run on virtual
// time, so every digit, label and record repeats run to run; a change
// meant to leave the recorders' arithmetic alone leaves this file
// byte-identical (-update rewrites it instead). The streams engine's
// outlier records are left out: which of them its ring retains depends
// on the ring's depth, not on what the recorder decided.
func TestSimGolden(t *testing.T) {
	sw, eng, err := runSimScenario()
	if err != nil {
		t.Fatal(err)
	}
	h := obshttp.NewHandler()
	h.Register(func() []obshttp.Metric { return obshttp.SwapdMetrics("swapd0", sw) })
	h.Register(func() []obshttp.Metric { return obshttp.StreamEngineMetrics("eng0", eng) })
	// The /debug/outliers body, as OutliersJSON renders it.
	outliers, err := json.MarshalIndent([]obshttp.OutlierReport{{Source: "swapd", Flight: sw.Flight}}, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	got := string(h.MetricsText()) + "\n" + string(outliers) + "\n"

	const path = "testdata/sim.golden"
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		t.Errorf("simulated sources moved from %s:\n--- got\n%s--- want\n%s", path, got, want)
	}
}
