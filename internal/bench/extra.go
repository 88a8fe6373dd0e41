package bench

import (
	"memif/internal/core"
	"memif/internal/hw"
	"memif/internal/sim"
	"memif/internal/stats"
	"memif/internal/streamrt"
	"memif/internal/workloads"
)

// The experiments in this file go beyond the paper's evaluation, covering
// the two items Section 6.7 explicitly leaves open: serving multiple
// concurrent applications ("we have not evaluated the feature") and the
// workloads that see little gain from memif.

// MultiAppResult reports the concurrent-applications experiment.
type MultiAppResult struct {
	Apps int
	// PerAppGBs is each application's achieved migration throughput;
	// TotalGBs their sum; SoloGBs a single app on an idle machine.
	PerAppGBs []float64
	TotalGBs  float64
	SoloGBs   float64
}

// MultiApp runs `apps` applications, each with its own address space and
// memif device, streaming `pages`-page migrations of `pageBytes` pages
// concurrently over the one shared DMA engine. The paper's isolation
// claim (Section 4.2) says the instances must not corrupt each other.
// With small pages the workload is CPU-bound in each device's worker, so
// per-app throughput holds as apps are added (they run on separate
// cores); with 2 MB pages the DMA engine is the bottleneck and the apps
// share its bandwidth.
func MultiApp(apps int, pageBytes int64, pages int) MultiAppResult {
	const (
		rounds  = 128
		regionN = 4
	)
	reqBytes := int64(pages) * pageBytes

	runApps := func(n int) []float64 {
		m := newEvalMachine()
		out := make([]float64, n)
		for a := 0; a < n; a++ {
			a := a
			as := m.NewAddressSpace(pageBytes)
			d := core.Open(m, as, core.DefaultOptions())
			m.Eng.Spawn("app", func(p *sim.Proc) {
				defer d.Close()
				submit := pingPong(p, d, regionN, reqBytes)
				start := p.Now()
				window(p, d, rounds, regionN, submit, nil)
				out[a] = stats.ThroughputGBs(int64(rounds)*reqBytes, p.Now()-start)
			})
		}
		run(m, audit)
		return out
	}

	res := MultiAppResult{Apps: apps, PerAppGBs: runApps(apps)}
	for _, g := range res.PerAppGBs {
		res.TotalGBs += g
	}
	res.SoloGBs = runApps(1)[0]
	return res
}

// LimitationRow reproduces the Section 6.7 observation: workloads with
// high compute intensity (wordcount, psearchy) see little gain from
// memif, because their throughput is not bound by memory bandwidth.
type LimitationRow struct {
	Workload string
	LinuxMBs float64
	MemifMBs float64
	GainPct  float64
}

// Compute-bound stand-ins for the Section 6.7 workloads. Their compute
// per byte dwarfs the slow node's access cost, so moving data to fast
// memory barely shifts the bottleneck.
var (
	// WordCount models the BigDataBench wordcount kernel.
	WordCount = workloads.Kernel{Name: "wordcount", ComputePerByteNS: 2.0}
	// Psearchy models the Mosbench psearchy indexing kernel.
	Psearchy = workloads.Kernel{Name: "psearchy", ComputePerByteNS: 3.2}
)

// Limitations measures the two compute-bound workloads through the same
// runtime as Table 4.
func Limitations() []LimitationRow {
	var out []LimitationRow
	for _, k := range []workloads.Kernel{WordCount, Psearchy} {
		direct, fast := directVsRing(hw.KeyStoneII(), hw.Page4K, streamrt.DefaultConfig(), k, 32<<20)
		out = append(out, LimitationRow{
			Workload: k.Name,
			LinuxMBs: direct.ThroughputMBs,
			MemifMBs: fast.ThroughputMBs,
			GainPct:  (fast.ThroughputMBs/direct.ThroughputMBs - 1) * 100,
		})
	}
	return out
}
