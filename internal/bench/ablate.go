package bench

import (
	"memif/internal/core"
	"memif/internal/hw"
	"memif/internal/machine"
	"memif/internal/sim"
	"memif/internal/stats"
	"memif/internal/streamrt"
	"memif/internal/uapi"
)

// AblationResult compares one design choice on vs off.
type AblationResult struct {
	Name string
	// On and Off are the metric with the optimization enabled/disabled;
	// Metric names what is measured.
	On, Off float64
	Metric  string
	// HigherIsBetter: the metric is a throughput (Off/On < 1 means the
	// optimization helps) rather than a cost.
	HigherIsBetter bool
}

// Factor returns Off/On — how much worse the system gets without the
// optimization.
func (a AblationResult) Factor() float64 {
	if a.On == 0 {
		return 0
	}
	return a.Off / a.On
}

// ablationMigrate runs a burst of 4 KB-page migrations through a device
// with the given options and returns the per-request CPU cost in
// microseconds, the phase breakdown, and the burst's throughput.
func ablationMigrate(opts core.Options, reqs int, pagesPerReq int) (cpuPerReqUS float64, bd *stats.Breakdown, gbs float64) {
	m := newEvalMachine()
	as := m.NewAddressSpace(hw.Page4K)
	d := core.Open(m, as, opts)
	reqBytes := int64(pagesPerReq) * hw.Page4K
	runApp(m, func(p *sim.Proc) {
		defer d.Close()
		base := mmapOrDie(p, as, int64(reqs+1)*reqBytes, hw.NodeSlow, "w")
		// burst migrates regions first..first+n-1 at once.
		burst := func(first, n int) {
			window(p, d, n, n, func(i int) {
				submitMove(p, d, uapi.OpMigrate, base+int64(first+i)*reqBytes, 0, reqBytes, hw.NodeFast, uint64(i))
			}, nil)
		}
		burst(0, 1) // warm up one request, then measure the rest
		d.Breakdown.Reset()
		d.UserMeter.Reset()
		d.KernMeter.Reset()
		start := p.Now()
		burst(1, reqs)
		gbs = stats.ThroughputGBs(int64(reqs)*reqBytes, p.Now()-start)
	})
	cpu := sim.MeterGroup{d.UserMeter, d.KernMeter}.Busy()
	return float64(cpu) / float64(reqs) / 1e3, d.Breakdown, gbs
}

// AblateGangLookup compares gang page lookup against per-page vertical
// walks (Section 5.1): metric is Prep-phase time per request.
func AblateGangLookup() AblationResult {
	const reqs, pages = 32, 64
	on := core.DefaultOptions()
	off := on
	off.GangLookup = false
	_, bdOn, _ := ablationMigrate(on, reqs, pages)
	_, bdOff, _ := ablationMigrate(off, reqs, pages)
	return AblationResult{
		Name:   "gang-page-lookup",
		Metric: "prep µs/request",
		On:     float64(bdOn.Get(stats.PhasePrep)) / reqs / 1e3,
		Off:    float64(bdOff.Get(stats.PhasePrep)) / reqs / 1e3,
	}
}

// AblateDescReuse compares descriptor-chain reuse against full descriptor
// writes (Section 5.3): metric is DMA-configuration time per request.
func AblateDescReuse() AblationResult {
	const reqs, pages = 32, 64
	on := core.DefaultOptions()
	off := on
	off.DescReuse = false
	_, bdOn, _ := ablationMigrate(on, reqs, pages)
	_, bdOff, _ := ablationMigrate(off, reqs, pages)
	return AblationResult{
		Name:   "descriptor-chain-reuse",
		Metric: "dmacfg µs/request",
		On:     float64(bdOn.Get(stats.PhaseDMACfg)) / reqs / 1e3,
		Off:    float64(bdOff.Get(stats.PhaseDMACfg)) / reqs / 1e3,
	}
}

// AblateRaceHandling compares lightweight race detection against
// baseline-style race prevention (Section 5.2): metric is Release-phase
// time per request (prevention pays a PTE replace + TLB flush per page
// where detection pays one CAS).
func AblateRaceHandling() AblationResult {
	const reqs, pages = 32, 64
	on := core.DefaultOptions() // RaceDetect
	off := on
	off.RaceMode = core.RacePrevent
	_, bdOn, _ := ablationMigrate(on, reqs, pages)
	_, bdOff, _ := ablationMigrate(off, reqs, pages)
	return AblationResult{
		Name:   "race-detection-vs-prevention",
		Metric: "release µs/request",
		On:     float64(bdOn.Get(stats.PhaseRelease)) / reqs / 1e3,
		Off:    float64(bdOff.Get(stats.PhaseRelease)) / reqs / 1e3,
	}
}

// irqVsPoll runs the same 16-page burst with the kernel thread's adaptive
// completion (below 512 KB: poll when nothing else waits or the channel
// is busy, else take the interrupt) and with the interrupt path forced
// for everything.
func irqVsPoll() (cpuOn, cpuOff, gbsOn, gbsOff float64) {
	const reqs, pages = 64, 16
	on := core.DefaultOptions()
	off := on
	off.PollThresholdBytes = 0
	cpuOn, _, gbsOn = ablationMigrate(on, reqs, pages)
	cpuOff, _, gbsOff = ablationMigrate(off, reqs, pages)
	return
}

// AblateIrqVsPoll compares the kernel thread's adaptive completion
// against forcing the interrupt path for everything: metric is total CPU
// per 16-page request (the IRQ path pays interrupt entry and a kthread
// wake per request). This burst is bound by the worker's CPU, not the
// channel, so the adaptive rule itself takes the interrupt for every
// request but the burst's last, and the two differ by that one poll.
func AblateIrqVsPoll() AblationResult {
	cpuOn, cpuOff, _, _ := irqVsPoll()
	return AblationResult{
		Name:   "adaptive-polling-vs-irq",
		Metric: "CPU µs/request",
		On:     cpuOn,
		Off:    cpuOff,
	}
}

// IrqVsPollThroughput is the other axis of AblateIrqVsPoll, reported
// beside it and not part of Ablations. On a worker-bound burst the
// interrupt path moves more bytes, because Release and Notify run in
// interrupt context on another core, concurrently with the worker; the
// adaptive rule takes it there too, so the two now read the same.
// Polling is kept for where it costs no bandwidth: a lone request and a
// busy channel.
func IrqVsPollThroughput() AblationResult {
	_, _, gbsOn, gbsOff := irqVsPoll()
	return AblationResult{
		Name:           "adaptive-polling-vs-irq",
		Metric:         "GB/s",
		On:             gbsOn,
		Off:            gbsOff,
		HigherIsBetter: true,
	}
}

// AblateAdaptiveLinger compares the worker's adaptive idle linger
// against a fixed grace on a slow, steady request stream (a compute-
// bound consumer refilling prefetch buffers): without adaptation, every
// refill that misses the fixed grace pays a kick-start syscall plus the
// inline serve in the consumer's context.
func AblateAdaptiveLinger() AblationResult {
	run := func(adaptive bool) float64 {
		m := machine.New(hw.KeyStoneII())
		m.Mem.DisableData()
		as := m.NewAddressSpace(hw.Page4K)
		opts := core.DefaultOptions()
		opts.AdaptiveLinger = adaptive
		d := core.Open(m, as, opts)
		var mbs float64
		runApp(m, func(p *sim.Proc) {
			defer d.Close()
			const input = 32 << 20
			base := mmapOrDie(p, as, input, hw.NodeSlow, "input")
			mbs = streamWholeRing(p, d, WordCount, base, input, streamrt.DefaultConfig()).ThroughputMBs
		})
		return mbs
	}
	return AblationResult{
		Name:           "adaptive-linger",
		Metric:         "wordcount MB/s",
		On:             run(true),
		Off:            run(false),
		HigherIsBetter: true,
	}
}

// Ablations runs the sim-side ablations (the red-blue queue one is a
// real-time microbenchmark and lives in bench_test.go).
func Ablations() []AblationResult {
	return []AblationResult{
		AblateGangLookup(),
		AblateDescReuse(),
		AblateRaceHandling(),
		AblateIrqVsPoll(),
		AblateAdaptiveLinger(),
	}
}
