// memif-bench regenerates the tables and figures of the memif paper's
// evaluation (Section 6) on the simulated KeyStone II machine.
//
// Usage:
//
//	memif-bench [command]
//
// Commands:
//
//	platform   print the test platform (Table 2)
//	sloc       count this repository's source lines (Table 3 analogue)
//	sec2       Linux page-migration throughput motivation (Section 2.2)
//	fig6       per-request time breakdown and CPU usage (Figure 6)
//	fig7       request latency, memif vs batched syscalls (Figure 7)
//	fig8       move throughput across page granularities (Figure 8)
//	table4     streaming workloads on the mini runtime (Table 4)
//	ablate     design-choice ablations (DESIGN.md section 5)
//	extra      beyond the paper: multi-app sharing, compute-bound limits
//	all        everything above (default)
//	ledger     every virtual value of the benchmark's two simulated shapes,
//	           sim_move and sim_streams, at seed 1 (not part of all)
//	migspeed   numactl's migspeed on the simulated machine, the Figure 8
//	           Linux baseline (not part of all):
//	           migspeed [-pages N] [-pagesize 4K|64K|2M] [-loops N] [-memif] [-xeon]
package main

import (
	"fmt"
	"os"
	"path/filepath"

	"memif/internal/bench"
)

func main() {
	cmd := "all"
	if len(os.Args) > 1 {
		cmd = os.Args[1]
	}
	if cmd == "migspeed" {
		migspeed(os.Args[2:])
		return
	}
	w := os.Stdout
	run := func(name string, fn func()) {
		if cmd == name || cmd == "all" {
			fn()
			fmt.Fprintln(w)
		}
	}
	known := map[string]bool{"platform": true, "sloc": true, "sec2": true,
		"fig6": true, "fig7": true, "fig8": true, "table4": true,
		"ablate": true, "extra": true, "all": true, "ledger": true}
	if !known[cmd] {
		fmt.Fprintf(os.Stderr, "memif-bench: unknown command %q\n", cmd)
		fmt.Fprintln(os.Stderr, "commands: platform sloc sec2 fig6 fig7 fig8 table4 ablate extra all ledger migspeed")
		os.Exit(2)
	}

	if cmd == "ledger" {
		bench.ReportLedger(w, bench.Ledger())
		return
	}
	run("platform", func() { bench.ReportPlatform(w) })
	run("sloc", func() {
		root := "."
		if _, err := os.Stat("go.mod"); err != nil {
			root = findRepoRoot()
		}
		if err := bench.ReportSLoC(w, root); err != nil {
			fmt.Fprintf(os.Stderr, "sloc: %v\n", err)
		}
	})
	run("sec2", func() { bench.ReportSec22(w, bench.Sec22()) })
	run("fig6", func() { bench.ReportFig6(w, bench.Fig6Sweep()) })
	run("fig7", func() { bench.ReportFig7(w, bench.Fig7()) })
	run("fig8", func() { bench.ReportFig8(w, bench.Fig8Sweep()) })
	run("table4", func() { bench.ReportTable4(w, bench.Table4()) })
	run("ablate", func() {
		bench.ReportAblations(w, append(bench.Ablations(), bench.IrqVsPollThroughput()))
	})
	run("extra", func() {
		rows := []bench.MultiAppResult{
			bench.MultiApp(2, 4<<10, 16),
			bench.MultiApp(2, 2<<20, 4),
		}
		bench.ReportMultiApp(w, rows, []string{"4KB x16 (CPU-bound)", "2MB x4 (DMA-bound)"})
		fmt.Fprintln(w)
		bench.ReportLimitations(w, bench.Limitations())
		fmt.Fprintln(w)
		bench.ReportProjection(w, bench.Projection())
		fmt.Fprintln(w)
		bench.ReportTLBIndirect(w, bench.TLBIndirect())
	})
}

// findRepoRoot walks up from the working directory to the module root.
func findRepoRoot() string {
	dir, err := os.Getwd()
	if err != nil {
		return "."
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "."
		}
		dir = parent
	}
}
