// Command benchmark is the repository's ruler: five closed-loop
// workloads over the three engines (realtime on the wall clock; core
// and streamrt on the simulated KeyStone II), six end-to-end metrics
// reported as medians over measured windows, and a separate traced run
// that derives per-layer metrics from spans recorded around each call
// into a layer. It claims no gain. README.md explains every choice.
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics; everything before it is for
// people.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"
	"time"
)

// config is one invocation's settings.
type config struct {
	workload string
	seed     int64
	seconds  int
	trace    bool
	check    bool
	windows  int  // overrides the count derived from seconds (tests)
	small    bool // reduced pools and op counts (tests)
	outDir   string
}

// windowLen is the length of one realtime window. It is never cut: a
// tighter time budget means fewer windows.
func (c config) windowLen() time.Duration {
	if c.small {
		return 50 * time.Millisecond
	}
	return time.Second
}

// windowCount is how many realtime windows the run measures.
func (c config) windowCount() int {
	if c.windows > 0 {
		return c.windows
	}
	return max(c.seconds, 1)
}

// result is what one run measured.
type result struct {
	attempted, failed int64
	checkErrs         []string // output checks that failed
	invalid           []string // validity rules the run broke
	notes             []string // printed above the table
	setups            []float64
	e2e               map[string][]float64 // per-window values by metric
	layer             map[string]float64   // traced run only
	tracer            *tracer
}

func newResult() *result {
	return &result{e2e: make(map[string][]float64), layer: make(map[string]float64)}
}

// window records one window's value of an end-to-end metric.
func (r *result) window(name string, v float64) { r.e2e[name] = append(r.e2e[name], v) }

type workloadDef struct {
	name, why string
	run       func(cfg config) (*result, error)
}

func workloadDefs() []workloadDef {
	rt := func(name string) func(config) (*result, error) {
		return func(cfg config) (*result, error) { return runRT(cfg, rtSpecs(cfg.small)[name]) }
	}
	return []workloadDef{
		{"rt_small", "realtime, 4 KiB copies, 32 outstanding in batches of 8: staging, flush/kick, dispatch, completion rings and obs stamping do the work, the copy is under a tenth of an op", rt("rt_small")},
		{"rt_large", "realtime, 1 MiB chunked copies, 8 outstanding, pool above the last-level cache: chunk rings, controllers and memmove do the work, per-op overhead is under 1%", rt("rt_large")},
		{"rt_mixed", "realtime, 32 foreground 4 KiB beside 2 background 1 MiB on one device: priority pop, inline completion and aging beside chunked transfers; head-of-line blocking shows here", rt("rt_mixed")},
		{"sim_move", "core+dma+vm+pagetable on the simulated KeyStone II: migrate 4K x16, replicate 64K x4, migrate 2M x1 with 4 in flight (Fig 8 shape); bypasses realtime and streamrt", runSimMove},
		{"sim_streams", "streamrt engine over core: four 64 MiB streams through one default ring while a foreground prober ping-pongs a page on a sibling device; credits, refill batching and slow-node fallback", runSimStreams},
	}
}

func main() {
	var cfg config
	var trace int
	flag.StringVar(&cfg.workload, "workload", "", "workload to run (see -list)")
	flag.Int64Var(&cfg.seed, "seed", 1, "seed for buffer contents, pool rotation, region layout and compute gaps")
	flag.IntVar(&cfg.seconds, "seconds", 20, "seconds to measure: one 1 s window each (rt_*), or repetitions until spent (sim_*)")
	flag.IntVar(&trace, "trace", 0, "1: traced run, reports the per-layer metrics; 0: end-to-end metrics")
	flag.BoolVar(&cfg.check, "check", true, "verify moved bytes, slot audits, checksums and virtual-time determinism")
	flag.IntVar(&cfg.windows, "windows", 0, "measure exactly this many windows or repetitions (smoke tests)")
	flag.BoolVar(&cfg.small, "small", false, "reduced pools, op counts and window length (smoke tests; numbers are not comparable)")
	flag.StringVar(&cfg.outDir, "out", "benchmark/out", "directory the traced run writes <workload>.trace.json to")
	list := flag.Bool("list", false, "list workloads and exit")
	flag.Parse()
	cfg.trace = trace != 0

	defs := workloadDefs()
	if *list {
		for _, d := range defs {
			fmt.Printf("%-12s %s\n", d.name, d.why)
		}
		return
	}
	for _, d := range defs {
		if d.name != cfg.workload {
			continue
		}
		os.Exit(runOne(cfg, d))
	}
	fmt.Fprintf(os.Stderr, "benchmark: unknown workload %q (try -list)\n", cfg.workload)
	os.Exit(2)
}

// runOne runs one workload, prints the report and returns the exit code.
func runOne(cfg config, d workloadDef) int {
	fp := hostFingerprint()
	fmt.Printf("# memif benchmark workload=%s seed=%d seconds=%d trace=%t check=%t\n", d.name, cfg.seed, cfg.seconds, cfg.trace, cfg.check)
	fmt.Printf("# host %s\n", fp)
	res, err := d.run(cfg)
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchmark: %s: %v\n", d.name, err)
		return 1
	}
	if cfg.trace && res.tracer != nil {
		path, err := res.tracer.write(cfg.outDir, d.name, cfg.seed)
		if err != nil {
			fmt.Fprintf(os.Stderr, "benchmark: writing trace: %v\n", err)
			return 1
		}
		fmt.Printf("# trace %s (%d spans)\n", path, len(res.tracer.buf))
	}
	return report(os.Stdout, cfg, res)
}

// metricValue is one entry of the final JSON line's metrics object.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report prints the human-readable table and the final JSON line.
func report(w *os.File, cfg config, res *result) int {
	for _, n := range res.notes {
		fmt.Fprintf(w, "# %s\n", n)
	}
	metrics := make(map[string]metricValue)
	if cfg.trace {
		fmt.Fprintf(w, "%-42s %16s %-6s\n", "per-layer metric", "value", "unit")
		for _, m := range perLayer {
			v := res.layer[m.Name]
			metrics[m.Name] = metricValue{v, m.Unit}
			fmt.Fprintf(w, "%-42s %16.6g %-6s\n", m.Name, v, m.Unit)
		}
		// The end-to-end values of a traced run are printed for
		// orientation only; they are never reported as metrics.
		fmt.Fprintf(w, "# end-to-end values of this traced run's untraced windows (not reported):\n")
	}
	res.e2e["setup_s"] = res.setups
	fmt.Fprintf(w, "%-16s %14s %-5s %8s %14s %14s %8s  %s\n", "metric", "median", "unit", "windows", "q1", "q3", "iqr/med", "")
	for _, m := range endToEnd {
		sp := windowSpread(res.e2e[m.Name])
		flag := ""
		if sp.noisy(m.Bound) && m.Name != "setup_s" {
			flag = "noisy_host: true"
		}
		fmt.Fprintf(w, "%-16s %14.6g %-5s %8d %14.6g %14.6g %7.2f%%  %s\n", m.Name, sp.Median, m.Unit, sp.N, sp.Q1, sp.Q3, 100*sp.RelIQR, flag)
		if !cfg.trace {
			metrics[m.Name] = metricValue{sp.Median, m.Unit}
			if sp.N == 0 || sp.Median == 0 {
				res.invalid = append(res.invalid, fmt.Sprintf("%s has no value", m.Name))
			}
		}
	}
	for _, m := range endToEnd {
		fmt.Fprintf(w, "# windows %-14s %s\n", m.Name, joinf("%.5g", res.e2e[m.Name]))
	}
	for _, e := range res.checkErrs {
		fmt.Fprintf(w, "CHECK FAILED: %s\n", e)
	}
	for _, e := range res.invalid {
		fmt.Fprintf(w, "INVALID RUN: %s\n", e)
	}
	correct := res.failed == 0 && len(res.checkErrs) == 0 && len(res.invalid) == 0
	fmt.Fprintf(w, "attempted=%d failed=%d failed_share=%.3g correct=%t\n", res.attempted, res.failed,
		float64(res.failed)/float64(max(res.attempted, 1)), correct)
	out, err := json.Marshal(struct {
		Correct   bool                   `json:"correct"`
		Attempted int64                  `json:"attempted"`
		Failed    int64                  `json:"failed"`
		Metrics   map[string]metricValue `json:"metrics"`
	}{correct, max(res.attempted, 1), res.failed, metrics})
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchmark: %v\n", err)
		return 1
	}
	fmt.Fprintln(w, string(out))
	if !correct {
		return 1
	}
	return 0
}

// joinf formats each value and joins them with spaces.
func joinf(format string, vals []float64) string {
	parts := make([]string, len(vals))
	for i, v := range vals {
		parts[i] = fmt.Sprintf(format, v)
	}
	return strings.Join(parts, " ")
}
