package bench

import (
	"testing"

	"memif/internal/hw"
)

// The tests in this file assert the headline *shapes* of the paper's
// evaluation (who wins, by roughly what factor, where the crossovers
// fall) rather than absolute numbers. EXPERIMENTS.md records the full
// paper-vs-measured comparison.

func TestFig6SmallPageShape(t *testing.T) {
	linux := Fig6(SysLinux, hw.Page4K, 16)
	mig := Fig6(SysMemifMigrate, hw.Page4K, 16)
	rep := Fig6(SysMemifReplicate, hw.Page4K, 16)

	// Baseline is synchronous: 100% CPU.
	if linux.CPUUsage < 0.99 {
		t.Errorf("Linux CPU usage = %.2f, want ~1.0", linux.CPUUsage)
	}
	// memif uses less CPU time for the same work ("up to 15%" for small
	// pages — demand at least some saving and not an absurd one).
	if mig.CPUBusy >= linux.CPUBusy {
		t.Errorf("memif CPU %v >= Linux CPU %v at 4KB x16", mig.CPUBusy, linux.CPUBusy)
	}
	// Replication is cheaper than migration (no VM management).
	if rep.CPUBusy >= mig.CPUBusy {
		t.Errorf("replicate CPU %v >= migrate CPU %v", rep.CPUBusy, mig.CPUBusy)
	}
	// memif completes the request faster too (DMA copy + pipelining).
	if mig.Elapsed >= linux.Elapsed {
		t.Errorf("memif latency %v >= Linux %v at 4KB x16", mig.Elapsed, linux.Elapsed)
	}
}

func TestFig6SinglePageExtreme(t *testing.T) {
	// The paper: "memif loses its advantage over Linux only in the
	// extreme case where each request only targets one page."
	linux := Fig6(SysLinux, hw.Page4K, 1)
	mig := Fig6(SysMemifMigrate, hw.Page4K, 1)
	if float64(mig.Elapsed) < float64(linux.Elapsed)*0.9 {
		t.Errorf("single-page memif (%v) should not beat Linux (%v) clearly", mig.Elapsed, linux.Elapsed)
	}
}

func TestFig6LargePageShape(t *testing.T) {
	linux := Fig6(SysLinux, hw.Page2M, 16)
	mig := Fig6(SysMemifMigrate, hw.Page2M, 16)
	// CPU usage drops by more than an order of magnitude ("up to 38x").
	ratio := linux.CPUUsage / mig.CPUUsage
	if ratio < 10 {
		t.Errorf("2MB CPU-usage reduction = %.1fx, want >10x", ratio)
	}
	t.Logf("2MB x16: Linux usage %.1f%%, memif usage %.2f%% (%.0fx)",
		linux.CPUUsage*100, mig.CPUUsage*100, ratio)
	// Copy dominates at 2 MB and DMA wins on elapsed time.
	if mig.Elapsed >= linux.Elapsed {
		t.Errorf("memif 2MB latency %v >= Linux %v", mig.Elapsed, linux.Elapsed)
	}
}

func TestFig7Shape(t *testing.T) {
	series := fig7Run()
	byName := map[string]Fig7Series{}
	for _, s := range series {
		byName[s.Name] = s
	}
	memif, b1, b8 := byName["memif"], byName["linux-batch1"], byName["linux-batch8"]

	if memif.Syscalls != 1 {
		t.Errorf("memif used %d syscalls, want 1", memif.Syscalls)
	}
	// Batch-8 delivers every notification at the very end.
	for i := 1; i < Fig7Requests; i++ {
		if b8.Latency[i] != b8.Latency[0] {
			t.Errorf("batch8 notifications differ: %v vs %v", b8.Latency[i], b8.Latency[0])
		}
	}
	// memif notification latency is monotone per request and beats both
	// baseline strategies on the last request ("reduces latency by up to
	// 63%").
	last := Fig7Requests - 1
	if memif.Latency[last] >= b8.Latency[last] {
		t.Errorf("memif last latency %v >= batch8 %v", memif.Latency[last], b8.Latency[last])
	}
	if memif.Latency[last] >= b1.Latency[last] {
		t.Errorf("memif last latency %v >= batch1 %v", memif.Latency[last], b1.Latency[last])
	}
	reduction := 1 - float64(memif.Latency[last])/float64(b8.Latency[last])
	t.Logf("memif last-request latency reduction vs batch8: %.0f%%", reduction*100)
	if reduction < 0.3 {
		t.Errorf("latency reduction = %.0f%%, want >30%%", reduction*100)
	}
	// memif's first notification arrives far before batch8's.
	if float64(memif.Latency[0]) > float64(b8.Latency[0])*0.5 {
		t.Errorf("memif first notification %v not early vs batch8 %v", memif.Latency[0], b8.Latency[0])
	}
}

// fig8Cell finds one bar of the shared Figure 8 sweep.
func fig8Cell(t *testing.T, system string, pageBytes int64, pages int) Fig8Result {
	for _, r := range fig8Run() {
		if r.System == system && r.PageBytes == pageBytes && r.Pages == pages {
			return r
		}
	}
	t.Fatalf("no Figure 8 bar for %s %d x%d", system, pageBytes, pages)
	return Fig8Result{}
}

func TestFig8Shape(t *testing.T) {
	if testing.Short() {
		t.Skip("full sweep in long mode only")
	}
	// 4KB pages, 16-page requests: memif wins by >=40% (paper: "at
	// least 40% for small pages" outside the 1-page extreme).
	linux := fig8Cell(t, SysLinux, hw.Page4K, 16)
	mig := fig8Cell(t, SysMemifMigrate, hw.Page4K, 16)
	rep := fig8Cell(t, SysMemifReplicate, hw.Page4K, 16)
	if mig.GBs < linux.GBs*1.4 {
		t.Errorf("4KB x16: memif %.2f GB/s < 1.4x Linux %.2f GB/s", mig.GBs, linux.GBs)
	}
	if rep.GBs <= mig.GBs {
		t.Errorf("replication %.2f GB/s <= migration %.2f GB/s", rep.GBs, mig.GBs)
	}

	// 2MB pages: up to ~3x.
	linux2 := fig8Cell(t, SysLinux, hw.Page2M, 4)
	mig2 := fig8Cell(t, SysMemifMigrate, hw.Page2M, 4)
	factor := mig2.GBs / linux2.GBs
	t.Logf("2MB x4: Linux %.2f, memif %.2f (%.1fx)", linux2.GBs, mig2.GBs, factor)
	if factor < 2 || factor > 4.5 {
		t.Errorf("2MB advantage = %.1fx, want ~3x", factor)
	}

	// 1-page 4KB extreme: the paper excludes the leftmost columns from
	// its ">=40% better" claim — memif's win must collapse here. With
	// four requests in flight the worker prepares the next page under
	// the current copy, which hides the DMA start-up a lone 4 KB
	// transfer pays, so the collapse is relative: the 1-page advantage
	// stays below the 16-page one. The single-request extreme, where
	// nothing can overlap, is TestFig6SinglePageExtreme and the golden.
	linux1 := fig8Cell(t, SysLinux, hw.Page4K, 1)
	mig1 := fig8Cell(t, SysMemifMigrate, hw.Page4K, 1)
	ratio1, ratio16 := mig1.GBs/linux1.GBs, mig.GBs/linux.GBs
	t.Logf("4KB x1: Linux %.2f, memif %.2f (%.2fx); x16: %.2fx", linux1.GBs, mig1.GBs, ratio1, ratio16)
	if ratio1 >= ratio16 {
		t.Errorf("1-page extreme: memif advantage %.2fx did not collapse below the 16-page %.2fx", ratio1, ratio16)
	}
}

func TestTable4Shape(t *testing.T) {
	rows := table4Run()
	for _, r := range rows {
		t.Logf("%s: Linux %.0f MB/s, memif %.0f MB/s (%+.1f%%)", r.Workload, r.LinuxMBs, r.MemifMBs, r.GainPct)
		if r.GainPct < 10 {
			t.Errorf("%s: gain %.1f%%, want >10%% (paper: +23.5%%..+33.6%%)", r.Workload, r.GainPct)
		}
		if r.GainPct > 45 {
			t.Errorf("%s: gain %.1f%% suspiciously high", r.Workload, r.GainPct)
		}
	}
	// Relative Linux throughputs follow the paper's ordering.
	if !(rows[0].LinuxMBs < rows[1].LinuxMBs) {
		t.Errorf("pgain (%f) should be slower than triad (%f)", rows[0].LinuxMBs, rows[1].LinuxMBs)
	}
}

func TestSec22Shape(t *testing.T) {
	if testing.Short() {
		t.Skip("million-page run in long mode only")
	}
	for _, r := range Sec22() {
		ratio := r.GBs / r.PaperGBs
		t.Logf("%s %d pages: %.2f GB/s (paper %.2f)", r.Platform, r.Pages, r.GBs, r.PaperGBs)
		if ratio < 0.8 || ratio > 1.25 {
			t.Errorf("%s %d pages: %.2f GB/s vs paper %.2f (off by %.0f%%)",
				r.Platform, r.Pages, r.GBs, r.PaperGBs, (ratio-1)*100)
		}
	}
}

func TestAblationsAllMatter(t *testing.T) {
	for _, a := range ablateRun() {
		t.Logf("%s: %s on=%.2f off=%.2f (%.2fx)", a.Name, a.Metric, a.On, a.Off, a.Factor())
		if !a.Helps() {
			t.Errorf("%s: disabling the optimization did not hurt (%.2fx)", a.Name, a.Factor())
		}
	}
}

func TestMultiAppCPUBoundScales(t *testing.T) {
	// 4 KB x16 requests are bound by each device's worker CPU, and the
	// two workers run on separate cores: per-app throughput holds.
	res := MultiApp(2, hw.Page4K, 16)
	t.Logf("4KB: solo %.2f GB/s; 2 apps %v (total %.2f)", res.SoloGBs, res.PerAppGBs, res.TotalGBs)
	for i, g := range res.PerAppGBs {
		if g < res.SoloGBs*0.6 {
			t.Errorf("app %d got %.2f GB/s, <60%% of solo %.2f", i, g, res.SoloGBs)
		}
	}
}

func TestMultiAppDMABoundShares(t *testing.T) {
	// 2 MB x4 requests saturate the DMA engine: two apps split roughly
	// the solo throughput, and neither is starved.
	res := MultiApp(2, hw.Page2M, 4)
	t.Logf("2MB: solo %.2f GB/s; 2 apps %v (total %.2f)", res.SoloGBs, res.PerAppGBs, res.TotalGBs)
	if res.TotalGBs > res.SoloGBs*1.25 {
		t.Errorf("total %.2f GB/s exceeds the shared engine's solo %.2f", res.TotalGBs, res.SoloGBs)
	}
	if a, b := res.PerAppGBs[0], res.PerAppGBs[1]; a > 3*b || b > 3*a {
		t.Errorf("unfair sharing: %v", res.PerAppGBs)
	}
}

func TestLimitationsNegativeResult(t *testing.T) {
	for _, row := range Limitations() {
		t.Logf("%s: %.0f -> %.0f MB/s (%+.1f%%)", row.Workload, row.LinuxMBs, row.MemifMBs, row.GainPct)
		// Section 6.7: "many of them see little performance gain".
		if row.GainPct > 10 {
			t.Errorf("%s gained %.1f%%, expected little gain", row.Workload, row.GainPct)
		}
		if row.GainPct < -3 {
			t.Errorf("%s regressed %.1f%%", row.Workload, row.GainPct)
		}
	}
}

func TestSLoCCountsSomething(t *testing.T) {
	counts, err := SLoC("../..")
	if err != nil {
		t.Fatal(err)
	}
	total := 0
	for _, v := range counts {
		total += v
	}
	if total < 5000 {
		t.Errorf("SLoC total = %d, implausibly small", total)
	}
}
