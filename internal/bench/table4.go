package bench

import (
	"memif/internal/core"
	"memif/internal/hw"
	"memif/internal/machine"
	"memif/internal/qos"
	"memif/internal/sim"
	"memif/internal/streamrt"
	"memif/internal/workloads"
)

// Table4Row is one column of Table 4: a streaming workload's throughput
// with data pinned on the slow node (Linux) and streamed through the mini
// runtime's fast-memory prefetch buffers (Memif).
type Table4Row struct {
	Workload string
	LinuxMBs float64
	MemifMBs float64
	// GainPct is the memif improvement in percent.
	GainPct float64
	// FastChunks/SlowChunks report the runtime's prefetch behaviour.
	FastChunks, SlowChunks int64
}

// table4InputBytes is the streamed working set: far larger than the 6 MB
// fast node, as in the paper's setup.
const table4InputBytes = 64 << 20

// streamWholeRing is the "Memif" cell of Table 4 and of the experiments
// shaped after it: an engine of cfg's geometry, one background stream
// holding every ring buffer, run to completion and torn down.
func streamWholeRing(p *sim.Proc, d *core.Device, k workloads.Kernel, base, length int64, cfg streamrt.Config) streamrt.Result {
	e, err := streamrt.OpenEngine(p, d, streamrt.EngineOptions{Config: cfg})
	if err != nil {
		panic(err)
	}
	defer e.Close(p)
	s, err := e.OpenStream(p, streamrt.StreamSpec{
		Kernel:  k,
		Base:    base,
		Length:  length,
		Class:   qos.Background,
		Credits: cfg.NumBufs,
	})
	if err != nil {
		panic(err)
	}
	res, err := s.Run(p)
	if err != nil {
		panic(err)
	}
	return res
}

// directVsRing streams input bytes through kernel k on a fresh
// dataless machine of plat with pageBytes pages, twice: straight out of
// the slow node (the "Linux" cell of Table 4) and through a whole ring of
// cfg's geometry (the "Memif" cell).
func directVsRing(plat *hw.Platform, pageBytes int64, cfg streamrt.Config, k workloads.Kernel, input int64) (direct, fast streamrt.Result) {
	m := machine.New(plat)
	m.Mem.DisableData()
	as := m.NewAddressSpace(pageBytes)
	d := core.Open(m, as, core.DefaultOptions())
	runApp(m, func(p *sim.Proc) {
		defer d.Close()
		base := mmapOrDie(p, as, input, hw.NodeSlow, "input")
		var err error
		if direct, err = streamrt.RunDirect(p, as, k, base, input, cfg); err != nil {
			panic(err)
		}
		fast = streamWholeRing(p, d, k, base, input, cfg)
	})
	return direct, fast
}

// Table4Run measures one workload on the real KeyStone II memory layout:
// the 6 MB fast node holds only the prefetch buffers.
func Table4Run(k workloads.Kernel) Table4Row {
	direct, fast := directVsRing(hw.KeyStoneII(), hw.Page4K, streamrt.DefaultConfig(), k, table4InputBytes)
	return Table4Row{
		Workload:   k.Name,
		LinuxMBs:   direct.ThroughputMBs,
		MemifMBs:   fast.ThroughputMBs,
		GainPct:    (fast.ThroughputMBs/direct.ThroughputMBs - 1) * 100,
		FastChunks: fast.FastChunks,
		SlowChunks: fast.SlowChunks,
	}
}

// Table4 runs all three workloads in the paper's column order.
func Table4() []Table4Row {
	rows := make([]Table4Row, 0, len(workloads.All))
	for _, k := range workloads.All {
		rows = append(rows, Table4Run(k))
	}
	return rows
}
