package bench

import (
	"memif/internal/hw"
	"memif/internal/streamrt"
	"memif/internal/workloads"
)

// Section 6.7 predicts its platform limitations "to disappear from
// emerging platforms as large fast memory and medium/large pages become
// pervasive": fast memory around 1/8 of main memory, and 64 KB pages.
// This experiment runs the Table 4 workloads on such a projected
// platform and shows the memif gains widening toward the
// bandwidth-ratio ideal.

// FuturePlatform is KeyStone II evolved per the paper's expectations:
// a 1 GB fast node (1/8 of the 8 GB main memory) and the same DMA
// engine; workloads run on 64 KB pages, cutting the per-page costs of
// the move pipeline 16-fold per byte.
func FuturePlatform() *hw.Platform {
	plat := hw.KeyStoneII()
	for i := range plat.Nodes {
		if plat.Nodes[i].ID == hw.NodeFast {
			plat.Nodes[i].Capacity = 1 << 30
			plat.Nodes[i].Name = "HBM-projected"
		}
	}
	plat.Name = "KeyStone II projected (Section 6.7)"
	return plat
}

// ProjectionRow compares one workload's memif gain on the real platform
// against the projected one.
type ProjectionRow struct {
	Workload   string
	TodayGain  float64 // percent, KeyStone II with 4 KB pages
	FutureGain float64 // percent, projected platform with 64 KB pages
	TodayMBs   float64
	FutureMBs  float64
}

// Projection runs the comparison for every Table 4 workload.
func Projection() []ProjectionRow {
	var out []ProjectionRow
	for _, k := range workloads.All {
		today := Table4Run(k)
		// Larger buffers: the fast node is 1 GB now.
		future := streamrt.Config{BufBytes: 4 << 20, NumBufs: 16}
		direct, fast := directVsRing(FuturePlatform(), hw.Page64K, future, k, table4InputBytes)
		out = append(out, ProjectionRow{
			Workload:   k.Name,
			TodayGain:  today.GainPct,
			FutureGain: (fast.ThroughputMBs/direct.ThroughputMBs - 1) * 100,
			TodayMBs:   today.MemifMBs,
			FutureMBs:  fast.ThroughputMBs,
		})
	}
	return out
}
