package bench

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"memif/internal/hw"
	"memif/internal/stats"
)

// sizeName renders a page size the way the paper labels it.
func sizeName(b int64) string {
	switch {
	case b >= 1<<20:
		return fmt.Sprintf("%dMB", b>>20)
	default:
		return fmt.Sprintf("%dKB", b>>10)
	}
}

// ReportPlatform prints Table 2.
func ReportPlatform(w io.Writer) {
	plat := hw.KeyStoneII()
	fmt.Fprintf(w, "Table 2: test platform\n")
	fmt.Fprintf(w, "  %-10s %s, %d cores\n", "CPU", plat.Name, plat.Cores)
	for _, n := range plat.Nodes {
		kind := "Slow"
		if n.ID == hw.NodeFast {
			kind = "Fast"
		}
		fmt.Fprintf(w, "  %-10s %s: %s, %d MB, measured bandwidth %.1f GB/s\n",
			"Memory", kind, n.Name, n.Capacity>>20, n.Bandwidth/1e9)
	}
	fmt.Fprintf(w, "  %-10s %d transfer controllers, %d descriptor entries, %.1f GB/s effective\n",
		"DMA", plat.DMA.Controllers, plat.DMA.ParamSlots, plat.DMA.Bandwidth/1e9)
}

// ReportFig6 prints the Figure 6 sweep: per-request time breakdown
// columns plus the CPU-usage line.
func ReportFig6(w io.Writer, results []Fig6Result) {
	fmt.Fprintf(w, "Figure 6: time breakdown and CPU usage, single mov_req\n")
	fmt.Fprintf(w, "%-6s %5s %-16s %9s %9s %9s %9s %9s %9s %9s | %9s %7s\n",
		"psize", "pages", "system", "iface", "prep", "remap", "dmacfg", "copy", "release", "notify", "total(µs)", "cpu%")
	for _, r := range results {
		b := r.Breakdown
		fmt.Fprintf(w, "%-6s %5d %-16s %9.1f %9.1f %9.1f %9.1f %9.1f %9.1f %9.1f | %9.1f %7.1f\n",
			sizeName(r.PageBytes), r.Pages, r.System,
			b.Get(stats.PhaseInterface).Micros(), b.Get(stats.PhasePrep).Micros(),
			b.Get(stats.PhaseRemap).Micros(), b.Get(stats.PhaseDMACfg).Micros(),
			b.Get(stats.PhaseCopy).Micros(), b.Get(stats.PhaseRelease).Micros(),
			b.Get(stats.PhaseNotify).Micros(),
			r.Elapsed.Micros(), r.CPUUsage*100)
	}
}

// ReportFig7 prints the Figure 7 latency series.
func ReportFig7(w io.Writer, series []Fig7Series) {
	fmt.Fprintf(w, "Figure 7: latency of 8 migration requests (16 x 4KB pages each)\n")
	fmt.Fprintf(w, "%-14s %9s", "series", "syscalls")
	for i := 1; i <= Fig7Requests; i++ {
		fmt.Fprintf(w, " %8s", fmt.Sprintf("req%d(µs)", i))
	}
	fmt.Fprintln(w)
	for _, s := range series {
		fmt.Fprintf(w, "%-14s %9d", s.Name, s.Syscalls)
		for _, l := range s.Latency {
			fmt.Fprintf(w, " %8.0f", l.Micros())
		}
		fmt.Fprintln(w)
	}
}

// ReportFig8 prints the Figure 8 throughput sweep.
func ReportFig8(w io.Writer, results []Fig8Result) {
	fmt.Fprintf(w, "Figure 8: memory move throughput (GB/s)\n")
	fmt.Fprintf(w, "%-6s %5s  %-16s %8s\n", "psize", "pages", "system", "GB/s")
	for _, r := range results {
		fmt.Fprintf(w, "%-6s %5d  %-16s %8.2f\n", sizeName(r.PageBytes), r.Pages, r.System, r.GBs)
	}
}

// ReportTable4 prints Table 4.
func ReportTable4(w io.Writer, rows []Table4Row) {
	fmt.Fprintf(w, "Table 4: streaming workload throughput (MB/s)\n")
	fmt.Fprintf(w, "%-8s", "")
	for _, r := range rows {
		fmt.Fprintf(w, " %22s", r.Workload)
	}
	fmt.Fprintln(w)
	fmt.Fprintf(w, "%-8s", "Linux")
	for _, r := range rows {
		fmt.Fprintf(w, " %22.1f", r.LinuxMBs)
	}
	fmt.Fprintln(w)
	fmt.Fprintf(w, "%-8s", "Memif")
	for _, r := range rows {
		fmt.Fprintf(w, " %14.1f (%+.1f%%)", r.MemifMBs, r.GainPct)
	}
	fmt.Fprintln(w)
}

// ReportSec22 prints the Section 2.2 motivation numbers.
func ReportSec22(w io.Writer, rows []Sec22Row) {
	fmt.Fprintf(w, "Section 2.2: Linux page migration throughput\n")
	fmt.Fprintf(w, "%-20s %10s %10s %10s\n", "platform", "pages", "GB/s", "paper")
	for _, r := range rows {
		fmt.Fprintf(w, "%-20s %10d %10.2f %10.2f\n", r.Platform, r.Pages, r.GBs, r.PaperGBs)
	}
}

// ReportAblations prints the design-choice ablations.
func ReportAblations(w io.Writer, rows []AblationResult) {
	fmt.Fprintf(w, "Ablations: optimization on vs off\n")
	fmt.Fprintf(w, "%-30s %-22s %10s %10s %8s\n", "choice", "metric", "on", "off", "off/on")
	for _, a := range rows {
		fmt.Fprintf(w, "%-30s %-22s %10.2f %10.2f %8.2fx\n", a.Name, a.Metric, a.On, a.Off, a.Factor())
	}
}

// ReportMultiApp prints the concurrent-applications experiment.
func ReportMultiApp(w io.Writer, rows []MultiAppResult, labels []string) {
	fmt.Fprintf(w, "Multiple applications sharing one DMA engine (Section 6.7 follow-up)\n")
	fmt.Fprintf(w, "%-24s %6s %10s %10s  %s\n", "config", "apps", "solo GB/s", "total GB/s", "per-app GB/s")
	for i, r := range rows {
		fmt.Fprintf(w, "%-24s %6d %10.2f %10.2f  ", labels[i], r.Apps, r.SoloGBs, r.TotalGBs)
		for _, g := range r.PerAppGBs {
			fmt.Fprintf(w, "%.2f ", g)
		}
		fmt.Fprintln(w)
	}
}

// ReportLimitations prints the Section 6.7 negative result.
func ReportLimitations(w io.Writer, rows []LimitationRow) {
	fmt.Fprintf(w, "Section 6.7: compute-bound workloads gain little (MB/s)\n")
	fmt.Fprintf(w, "%-12s %10s %10s %8s\n", "workload", "linux", "memif", "gain")
	for _, r := range rows {
		fmt.Fprintf(w, "%-12s %10.1f %10.1f %+7.1f%%\n", r.Workload, r.LinuxMBs, r.MemifMBs, r.GainPct)
	}
}

// ReportProjection prints the projected-platform experiment.
func ReportProjection(w io.Writer, rows []ProjectionRow) {
	fmt.Fprintf(w, "Projected platform (Section 6.7 outlook: 1 GB fast node, 64 KB pages)\n")
	fmt.Fprintf(w, "%-22s %14s %14s\n", "workload", "today", "projected")
	for _, r := range rows {
		fmt.Fprintf(w, "%-22s %6.0f (%+5.1f%%) %6.0f (%+5.1f%%)\n",
			r.Workload, r.TodayMBs, r.TodayGain, r.FutureMBs, r.FutureGain)
	}
}

// ReportTLBIndirect prints the indirect-TLB-cost measurement.
func ReportTLBIndirect(w io.Writer, r TLBIndirectResult) {
	fmt.Fprintf(w, "Indirect TLB cost of migration (Section 5.2): 256-page scan\n")
	fmt.Fprintf(w, "  misses/pass: idle %.1f, after migration %.1f\n", r.MissesIdle, r.MissesMigrating)
	fmt.Fprintf(w, "  scan time:   %.1f µs -> %.1f µs (%+.1f%%)\n",
		r.ScanIdleNS/1e3, r.ScanMigratingNS/1e3, r.OverheadPct)
}

// SLoC walks a source tree and counts non-blank Go source lines per
// top-level component, the shape of Table 3.
func SLoC(root string) (map[string]int, error) {
	counts := make(map[string]int)
	err := filepath.Walk(root, func(path string, info os.FileInfo, err error) error {
		if err != nil {
			return err
		}
		if info.IsDir() || !strings.HasSuffix(path, ".go") {
			return nil
		}
		rel, err := filepath.Rel(root, path)
		if err != nil {
			return err
		}
		component := "root"
		parts := strings.Split(rel, string(filepath.Separator))
		if len(parts) > 1 {
			component = parts[0]
			if component == "internal" && len(parts) > 2 {
				component = "internal/" + parts[1]
			}
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		n := 0
		for _, line := range strings.Split(string(data), "\n") {
			if strings.TrimSpace(line) != "" {
				n++
			}
		}
		counts[component] += n
		return nil
	})
	return counts, err
}

// ReportSLoC prints the Table 3 analogue for this repository.
func ReportSLoC(w io.Writer, root string) error {
	counts, err := SLoC(root)
	if err != nil {
		return err
	}
	keys := make([]string, 0, len(counts))
	total := 0
	for k, v := range counts {
		keys = append(keys, k)
		total += v
	}
	sort.Strings(keys)
	fmt.Fprintf(w, "Table 3 (this repository): source lines per component\n")
	for _, k := range keys {
		fmt.Fprintf(w, "  %-24s %7d\n", k, counts[k])
	}
	fmt.Fprintf(w, "  %-24s %7d\n", "total", total)
	return nil
}

// ReportLedger prints one ledger row per line: shape, metric and value at
// full precision, the form testdata/ledger.golden pins.
func ReportLedger(w io.Writer, rows []LedgerRow) {
	for _, r := range rows {
		fmt.Fprintf(w, "%s %s %v\n", r.Shape, r.Metric, r.Value)
	}
}
