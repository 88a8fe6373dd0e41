package bench

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"sync"
	"testing"

	"memif/internal/stats"
)

var update = flag.Bool("update", false, "rewrite the testdata goldens from this run instead of comparing")

// Runs shared by the shape tests, TestBenchGoldens and
// TestBusyProcessesWithinCores: each experiment runs once per test
// binary, and its first run also takes the busy audit.
var (
	fig6Run   = audited("fig6", Fig6Sweep)
	fig7Run   = audited("fig7", Fig7)
	fig8Run   = audited("fig8", Fig8Sweep)
	table4Run = audited("table4", Table4)
	ablateRun = audited("ablate", Ablations)
	ledgerRun = sync.OnceValue(Ledger)
)

// audits holds the busy audit of each shared run that has run.
var audits = map[string]*coreAudit{}

// audited returns fn run once, with the busy audit of every machine that
// run boots recorded under name.
func audited[T any](name string, fn func() T) func() T {
	return sync.OnceValue(func() T {
		audit = &coreAudit{}
		defer func() { audits[name], audit = audit, nil }()
		return fn()
	})
}

// checkGolden compares got with testdata/<name>.golden line by line
// (-update rewrites the file instead).
func checkGolden(t *testing.T, name, got string) {
	t.Helper()
	path := "testdata/" + name + ".golden"
	if *update {
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got == string(want) {
		return
	}
	gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
	if len(gl) != len(wl) {
		t.Fatalf("%s has %d lines, golden %d", name, len(gl), len(wl))
	}
	for i := range gl {
		if gl[i] != wl[i] {
			t.Errorf("%s line moved:\n got  %s\n want %s", name, gl[i], wl[i])
		}
	}
}

// TestFig6Golden pins all 63 Figure 6 cells (3 systems x 3 page sizes x
// 7 request sizes) to the nanosecond: latency, CPU time and every Table 1
// phase. A Fig 6 cell has one request outstanding, so nothing the worker
// does to overlap neighbouring requests may move it. testdata/fig6.golden
// was generated at the commit before the worker's polled path became a
// pipeline; a diff here means the single-outstanding timeline changed.
func TestFig6Golden(t *testing.T) {
	if testing.Short() {
		t.Skip("full sweep in long mode only")
	}
	var b strings.Builder
	for _, r := range fig6Run() {
		fmt.Fprintf(&b, "%s page=%d pages=%d elapsed=%d cpu=%d",
			r.System, r.PageBytes, r.Pages, int64(r.Elapsed), int64(r.CPUBusy))
		for _, ph := range stats.AllPhases {
			fmt.Fprintf(&b, " %s=%d", ph, int64(r.Breakdown.Get(ph)))
		}
		b.WriteByte('\n')
	}
	checkGolden(t, "fig6", b.String())
}

// TestBenchGoldens pins the rest of the paper's evaluation outputs —
// Figure 7, Figure 8, Table 4, the ablations and the beyond-the-paper
// extras, every number at full precision — to testdata/<name>.golden,
// each rendered at the commit before the change it first guarded.
// These are virtual-time results, so any change to the simulated driver
// that is meant to be behaviour-neutral must leave them byte-identical.
func TestBenchGoldens(t *testing.T) {
	for _, g := range []struct {
		name   string
		long   bool // skipped under -short
		render func(b *strings.Builder)
	}{
		{"fig7", false, func(b *strings.Builder) {
			for _, s := range fig7Run() {
				fmt.Fprintf(b, "%s syscalls=%d latency_ns", s.Name, s.Syscalls)
				for _, l := range s.Latency {
					fmt.Fprintf(b, " %d", int64(l))
				}
				b.WriteByte('\n')
			}
		}},
		{"fig8", true, func(b *strings.Builder) {
			for _, r := range fig8Run() {
				fmt.Fprintf(b, "%s page=%d pages=%d requests=%d gb_s=%v\n",
					r.System, r.PageBytes, r.Pages, r.Requests, r.GBs)
			}
		}},
		{"table4", false, func(b *strings.Builder) {
			for _, r := range table4Run() {
				fmt.Fprintf(b, "%s linux_mb_s=%v memif_mb_s=%v gain_pct=%v fast=%d slow=%d\n",
					r.Workload, r.LinuxMBs, r.MemifMBs, r.GainPct, r.FastChunks, r.SlowChunks)
			}
		}},
		{"ablate", false, func(b *strings.Builder) {
			for _, a := range append(ablateRun(), IrqVsPollThroughput()) {
				fmt.Fprintf(b, "%s metric=%q on=%v off=%v\n", a.Name, a.Metric, a.On, a.Off)
			}
		}},
		// memif-bench ledger: the benchmark's simulated shapes.
		{"ledger", false, func(b *strings.Builder) { ReportLedger(b, ledgerRun()) }},
		// memif-bench extra: the same calls and shapes as its report.
		{"extra", false, func(b *strings.Builder) {
			for _, r := range []MultiAppResult{MultiApp(2, 4<<10, 16), MultiApp(2, 2<<20, 4)} {
				fmt.Fprintf(b, "multiapp apps=%d per_app_gb_s=%v total_gb_s=%v solo_gb_s=%v\n",
					r.Apps, r.PerAppGBs, r.TotalGBs, r.SoloGBs)
			}
			for _, r := range Limitations() {
				fmt.Fprintf(b, "limitation %s linux_mb_s=%v memif_mb_s=%v gain_pct=%v\n",
					r.Workload, r.LinuxMBs, r.MemifMBs, r.GainPct)
			}
			for _, r := range Projection() {
				fmt.Fprintf(b, "projection %s today_gain=%v future_gain=%v today_mb_s=%v future_mb_s=%v\n",
					r.Workload, r.TodayGain, r.FutureGain, r.TodayMBs, r.FutureMBs)
			}
			r := TLBIndirect()
			fmt.Fprintf(b, "tlb misses_idle=%v misses_migrating=%v scan_idle_ns=%v scan_migrating_ns=%v overhead_pct=%v\n",
				r.MissesIdle, r.MissesMigrating, r.ScanIdleNS, r.ScanMigratingNS, r.OverheadPct)
		}},
	} {
		t.Run(g.name, func(t *testing.T) {
			if g.long && testing.Short() {
				t.Skip("full sweep in long mode only")
			}
			var b strings.Builder
			g.render(&b)
			checkGolden(t, g.name, b.String())
		})
	}
}
