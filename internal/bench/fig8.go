package bench

import (
	"memif/internal/core"
	"memif/internal/hw"
	"memif/internal/linuxmig"
	"memif/internal/machine"
	"memif/internal/sim"
	"memif/internal/stats"
	"memif/internal/uapi"
	"memif/internal/vm"
)

// Fig8PageSizes and Fig8PageCounts are the sweep axes of Figure 8.
var (
	Fig8PageSizes  = []int64{hw.Page4K, hw.Page64K, hw.Page2M}
	Fig8PageCounts = []int{1, 4, 16, 64}
)

// fig8TargetBytes is how much data each throughput measurement streams
// (after one warm-up round).
const fig8TargetBytes = 64 << 20

// Fig8Result is one bar of Figure 8.
type Fig8Result struct {
	System    string
	PageBytes int64
	Pages     int
	// GBs is the sustained move throughput.
	GBs float64
	// Requests is how many move requests the measurement issued.
	Requests int
}

// Fig8 measures sustained move throughput for one configuration:
// requests of `pages` pages of `pageBytes` each are streamed until
// fig8TargetBytes have moved. memif keeps a submission window open so the
// DMA engine and kernel worker pipeline; the baseline (migspeed-style)
// issues one synchronous syscall per request.
func Fig8(system string, pageBytes int64, pages int) Fig8Result {
	m := newEvalMachine()
	as := m.NewAddressSpace(pageBytes)
	reqBytes := int64(pages) * pageBytes
	nReqs := int(fig8TargetBytes / reqBytes)
	if nReqs < 8 {
		nReqs = 8
	}
	res := Fig8Result{System: system, PageBytes: pageBytes, Pages: pages, Requests: nReqs}

	// Ping-pong regions: each request migrates a region to the other
	// node (or replicates it into a peer buffer), so requests are
	// independent and the mover streams continuously like migspeed.
	const depth = 4

	switch system {
	case SysLinux:
		virt, _ := linuxPingPong(m, as, depth, reqBytes, nReqs)
		res.GBs = stats.ThroughputGBs(int64(nReqs)*reqBytes, virt)

	case SysMemifMigrate, SysMemifReplicate:
		d := core.Open(m, as, core.DefaultOptions())
		runApp(m, func(p *sim.Proc) {
			defer d.Close()
			var submit func(slot int)
			if system == SysMemifMigrate {
				submit = pingPong(p, d, depth, reqBytes)
			} else {
				srcs := make([]int64, depth)
				dsts := make([]int64, depth)
				for i := range srcs {
					srcs[i] = mmapOrDie(p, as, reqBytes, hw.NodeSlow, "src")
					dsts[i] = mmapOrDie(p, as, reqBytes, hw.NodeFast, "dst")
				}
				submit = func(i int) {
					submitMove(p, d, uapi.OpReplicate, srcs[i], dsts[i], reqBytes, hw.NodeFast, uint64(i))
				}
			}
			window(p, d, depth, depth, submit, nil) // warm up
			start := p.Now()
			window(p, d, nReqs, depth, submit, nil)
			res.GBs = stats.ThroughputGBs(int64(nReqs)*reqBytes, p.Now()-start)
		})
	default:
		panic("bench: unknown system " + system)
	}
	return res
}

// linuxPingPong is the migspeed-style baseline: it maps depth regions of
// reqBytes on the slow node of m and moves them to the other node with
// synchronous mbind() calls, one each to warm up, then n round-robin. It
// returns the virtual time and the syscall CPU time of the n.
func linuxPingPong(m *machine.Machine, as *vm.AddressSpace, depth int, reqBytes int64, n int) (virt, cpu sim.Time) {
	mg := linuxmig.New(m, as)
	runApp(m, func(p *sim.Proc) {
		regions := make([]int64, depth)
		loc := make([]hw.NodeID, depth)
		for i := range regions {
			regions[i] = mmapOrDie(p, as, reqBytes, hw.NodeSlow, "r")
			loc[i] = hw.NodeSlow
		}
		flip := func(i int) {
			dst := hw.NodeFast
			if loc[i] == hw.NodeFast {
				dst = hw.NodeSlow
			}
			if err := mg.MBind(p, regions[i], reqBytes, dst); err != nil {
				panic(err)
			}
			loc[i] = dst
		}
		for i := range regions { // warm up
			flip(i)
		}
		start, busy0 := p.Now(), mg.Meter.Busy()
		for r := 0; r < n; r++ {
			flip(r % depth)
		}
		virt, cpu = p.Now()-start, mg.Meter.Busy()-busy0
	})
	return virt, cpu
}

// Fig8Sweep runs the full figure.
func Fig8Sweep() []Fig8Result {
	var out []Fig8Result
	for _, size := range Fig8PageSizes {
		for _, n := range Fig8PageCounts {
			for _, sys := range Systems {
				out = append(out, Fig8(sys, size, n))
			}
		}
	}
	return out
}
