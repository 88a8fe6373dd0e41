package main

import (
	"encoding/json"
	"os"
	"strings"
	"testing"
)

// smokeConfig is the reduced run the tests use: one window or
// repetition, small pools, short windows. Its numbers mean nothing; it
// exercises every workload, the checks and the emitter.
func smokeConfig(t *testing.T, workload string, trace bool) config {
	return config{workload: workload, seed: 7, seconds: 1, trace: trace, check: true, windows: 2, small: true, outDir: t.TempDir()}
}

// runAndReport runs one workload and returns the parsed final line.
func runAndReport(t *testing.T, cfg config) (final struct {
	Correct   bool
	Attempted int64
	Failed    int64
	Metrics   map[string]metricValue
}) {
	t.Helper()
	var def workloadDef
	for _, d := range workloadDefs() {
		if d.name == cfg.workload {
			def = d
		}
	}
	if def.run == nil {
		t.Fatalf("no workload %q", cfg.workload)
	}
	res, err := def.run(cfg)
	if err != nil {
		t.Fatalf("%s: %v", cfg.workload, err)
	}
	// The tail rule needs a full-size window; everything else must hold.
	res.invalid = nil
	f, err := os.CreateTemp(t.TempDir(), "report")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if code := report(f, cfg, res); code != 0 {
		b, _ := os.ReadFile(f.Name())
		t.Fatalf("%s: exit code %d\n%s", cfg.workload, code, b)
	}
	b, err := os.ReadFile(f.Name())
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(string(b)), "\n")
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &final); err != nil {
		t.Fatalf("last line is not the result object: %v\n%s", err, lines[len(lines)-1])
	}
	if cfg.trace && res.tracer != nil {
		path, err := res.tracer.write(cfg.outDir, cfg.workload, cfg.seed)
		if err != nil {
			t.Fatal(err)
		}
		tb, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		var tf struct {
			Columns []string
			Spans   [][]any
		}
		if err := json.Unmarshal(tb, &tf); err != nil {
			t.Fatalf("trace file does not parse: %v", err)
		}
		if len(tf.Spans) == 0 || len(tf.Spans[0]) != len(tf.Columns) {
			t.Fatalf("trace file has %d spans, %d columns", len(tf.Spans), len(tf.Columns))
		}
	}
	return final
}

func TestEveryWorkloadEndToEnd(t *testing.T) {
	for _, d := range workloadDefs() {
		t.Run(d.name, func(t *testing.T) {
			got := runAndReport(t, smokeConfig(t, d.name, false))
			if !got.Correct || got.Failed != 0 || got.Attempted < 1 {
				t.Fatalf("correct=%t attempted=%d failed=%d", got.Correct, got.Attempted, got.Failed)
			}
			if len(got.Metrics) != len(endToEnd) {
				t.Fatalf("untraced run reported %d metrics, want the %d end-to-end ones", len(got.Metrics), len(endToEnd))
			}
			for _, m := range endToEnd {
				v, ok := got.Metrics[m.Name]
				if !ok || v.Unit != m.Unit || !(v.Value > 0) {
					t.Errorf("%s = %+v (present %t), want a positive value in %s", m.Name, v, ok, m.Unit)
				}
			}
		})
	}
}

func TestEveryWorkloadTraced(t *testing.T) {
	// Layer metrics the workload must have moved off zero: its own
	// layers did work. (Bypassed layers report 0.)
	mustMove := map[string][]string{
		"rt_small":    {"realtime.submit_ns_per_op", "realtime.batches_per_op", "trace.span_coverage_frac", "floor.memmove_gb_s", "rbq.roundtrip_ns"},
		"rt_large":    {"realtime.chunks_per_op", "realtime.poll_wait_frac", "realtime.copy_frac_of_floor"},
		"rt_mixed":    {"realtime.inline_frac", "realtime.chunks_per_op", "realtime.dwell_p50_us"},
		"sim_move":    {"core.phase_remap_us_virt", "core.phase_copy_us_virt", "uapi.prep_p50_us_virt", "dma.desc_reuse_frac", "linuxmig.gb_s_virt", "core.speedup_vs_linuxmig_2m1", "sim.host_ns_per_op", "sim.ops_s_allprocs"},
		"sim_streams": {"streamrt.fast_chunk_frac", "streamrt.fills_per_flush", "streamrt.speedup_vs_direct", "streamrt.fg_p99_ratio", "workloads.kernel_host_frac", "vm.mmap_host_ms", "dma.busy_frac_virt"},
	}
	for _, d := range workloadDefs() {
		t.Run(d.name, func(t *testing.T) {
			got := runAndReport(t, smokeConfig(t, d.name, true))
			if !got.Correct || got.Failed != 0 {
				t.Fatalf("correct=%t failed=%d", got.Correct, got.Failed)
			}
			if len(got.Metrics) != len(perLayer) {
				t.Fatalf("traced run reported %d metrics, want the %d per-layer ones", len(got.Metrics), len(perLayer))
			}
			for _, m := range perLayer {
				if v, ok := got.Metrics[m.Name]; !ok || v.Unit != m.Unit {
					t.Errorf("%s = %+v (present %t), want unit %s", m.Name, v, ok, m.Unit)
				}
			}
			for _, name := range mustMove[d.name] {
				if got.Metrics[name].Value == 0 {
					t.Errorf("%s is 0 on %s, whose layers it measures", name, d.name)
				}
			}
			for _, m := range endToEnd {
				if _, ok := got.Metrics[m.Name]; ok {
					t.Errorf("traced run reported the end-to-end metric %s", m.Name)
				}
			}
		})
	}
}

// TestBenchmarkJSONMatches keeps BENCHMARK.json, which the driver reads,
// in step with the tables the program reports from.
func TestBenchmarkJSONMatches(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skipf("no BENCHMARK.json beside the benchmark: %v", err)
	}
	var doc struct {
		Paths     []string
		Workloads []struct{ Name, Why string }
		EndToEnd  []metricDef `json:"end_to_end"`
		PerLayer  []metricDef `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &doc); err != nil {
		t.Fatal(err)
	}
	defs := workloadDefs()
	if len(doc.Workloads) != len(defs) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the program has %d", len(doc.Workloads), len(defs))
	}
	for i, d := range defs {
		if doc.Workloads[i].Name != d.name || doc.Workloads[i].Why != d.why {
			t.Errorf("workload %d: BENCHMARK.json has %q, the program %q", i, doc.Workloads[i].Name, d.name)
		}
	}
	same := func(kind string, got, want []metricDef) {
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json lists %d metrics, the program reports %d", kind, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Errorf("%s %d: BENCHMARK.json has %+v, the program %+v", kind, i, got[i], want[i])
			}
		}
	}
	same("end_to_end", doc.EndToEnd, endToEnd)
	same("per_layer", doc.PerLayer, perLayer)
}
