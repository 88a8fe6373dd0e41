package bench

import (
	"memif/internal/core"
	"memif/internal/hw"
	"memif/internal/linuxmig"
	"memif/internal/sim"
	"memif/internal/stats"
	"memif/internal/uapi"
)

// Fig6PageSizes and Fig6PageCounts are the sweep axes of Figure 6: three
// page granularities, each across request sizes in pages.
var (
	Fig6PageSizes  = []int64{hw.Page4K, hw.Page64K, hw.Page2M}
	Fig6PageCounts = []int{1, 2, 4, 8, 16, 32, 64}
)

// Fig6Result is one column (+ line point) of Figure 6: the time
// breakdown of fulfilling a single mov_req and the CPU usage over its
// latency.
type Fig6Result struct {
	System    string
	PageBytes int64
	Pages     int

	// Breakdown holds per-request time per Table 1 phase.
	Breakdown *stats.Breakdown
	// Elapsed is the request's completion latency.
	Elapsed sim.Time
	// CPUBusy is the CPU time spent by all contexts serving the request.
	CPUBusy sim.Time
	// CPUUsage is CPUBusy / Elapsed (the right-axis lines of Figure 6).
	CPUUsage float64
}

// Fig6 measures one (system, page size, pages-per-request) cell. A
// warm-up request of the same shape runs first so the measurement sees
// the steady state (descriptor chains configured, kernel worker awake),
// matching how the paper profiles repeated requests.
func Fig6(system string, pageBytes int64, pages int) Fig6Result {
	m := newEvalMachine()
	as := m.NewAddressSpace(pageBytes)
	length := int64(pages) * pageBytes

	res := Fig6Result{System: system, PageBytes: pageBytes, Pages: pages}

	switch system {
	case SysLinux:
		mg := linuxmig.New(m, as)
		runApp(m, func(p *sim.Proc) {
			warm := mmapOrDie(p, as, length, hw.NodeSlow, "warm")
			if err := mg.MBind(p, warm, length, hw.NodeFast); err != nil {
				panic(err)
			}
			base := mmapOrDie(p, as, length, hw.NodeSlow, "meas")
			mg.Breakdown.Reset()
			mg.Meter.Reset()
			start := p.Now()
			if err := mg.MBind(p, base, length, hw.NodeFast); err != nil {
				panic(err)
			}
			res.Elapsed = p.Now() - start
			res.CPUBusy = mg.Meter.Busy()
			res.Breakdown = mg.Breakdown.Clone()
		})

	case SysMemifMigrate, SysMemifReplicate:
		d := core.Open(m, as, core.DefaultOptions())
		runApp(m, func(p *sim.Proc) {
			defer d.Close()
			run := func() (lat sim.Time) {
				src := mmapOrDie(p, as, length, hw.NodeSlow, "src")
				op, dst := uapi.OpMigrate, int64(0)
				if system == SysMemifReplicate {
					op, dst = uapi.OpReplicate, mmapOrDie(p, as, length, hw.NodeFast, "dst")
				}
				start := p.Now()
				window(p, d, 1, 1, func(slot int) {
					submitMove(p, d, op, src, dst, length, hw.NodeFast, uint64(slot))
				}, func(r *uapi.MovReq) { lat = r.Completed - start })
				return lat
			}
			run() // warm up chains and worker
			d.Breakdown.Reset()
			d.UserMeter.Reset()
			d.KernMeter.Reset()
			res.Elapsed = run()
			res.CPUBusy = sim.MeterGroup{d.UserMeter, d.KernMeter}.Busy()
			res.Breakdown = d.Breakdown.Clone()
		})
	default:
		panic("bench: unknown system " + system)
	}

	if res.Elapsed > 0 {
		res.CPUUsage = float64(res.CPUBusy) / float64(res.Elapsed)
	}
	return res
}

// Fig6Sweep runs the full figure: every system at every page size and
// request size.
func Fig6Sweep() []Fig6Result {
	var out []Fig6Result
	for _, size := range Fig6PageSizes {
		for _, n := range Fig6PageCounts {
			for _, sys := range Systems {
				out = append(out, Fig6(sys, size, n))
			}
		}
	}
	return out
}
