package bench

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sort"

	"memif/internal/core"
	"memif/internal/dma"
	"memif/internal/hw"
	"memif/internal/machine"
	"memif/internal/sim"
	"memif/internal/stats"
	"memif/internal/streamrt"
	"memif/internal/uapi"
	"memif/internal/vm"
	"memif/internal/workloads"
)

// The ledger runs the two simulated shapes of the benchmark module
// (benchmark/sim_move.go, benchmark/sim_streams.go) as their -small
// repetition at seed 1 and reports every virtual value they report, under
// the benchmark's metric names: the same machines, seeded draws, virtual
// CPU charges and wait orders, without the host timing and the byte
// checks. A change to the simulated driver shows as a diff of
// testdata/ledger.golden.

// LedgerRow is one value of the ledger: a shape and a metric name.
type LedgerRow struct {
	Shape, Metric string
	Value         float64
}

const (
	ledgerSeed   = 1
	ledgerWindow = 4     // sim_move's requests in flight
	ledgerGapNS  = 2_000 // sim_move's compute gap bound
)

// Ledger runs both shapes and returns their rows, sorted by metric name
// within each shape.
func Ledger() []LedgerRow {
	var rows []LedgerRow
	for _, s := range []struct {
		name string
		run  func(au *coreAudit) map[string]float64
	}{{"sim_move", ledgerMove}, {"sim_streams", ledgerStreams}} {
		au := &coreAudit{}
		vals := s.run(au)
		vals["sim.busy_procs_max"], vals["sim.over_cores_frac"] = float64(au.maxBusy), float64(au.over)/float64(au.total)
		keys := make([]string, 0, len(vals))
		for k := range vals {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			rows = append(rows, LedgerRow{s.name, k, vals[k]})
		}
	}
	return rows
}

// coreAudit sums the busy audit (sim.Engine.BusyTime) of the machines a
// shape ran: the most processes ever inside Busy at once, and the virtual
// time during which more were than the platform has cores.
type coreAudit struct {
	maxBusy     int
	over, total sim.Time
}

// audit, when a test sets it, collects every machine run by runApp and run.
var audit *coreAudit

func (a *coreAudit) add(m *machine.Machine) {
	for k, t := range m.Eng.BusyTime() {
		if t > 0 {
			a.maxBusy = max(a.maxBusy, k)
		}
		if k > m.Plat.Cores {
			a.over += t
		}
	}
	a.total += m.Eng.Now()
}

// run runs m to completion and feeds the busy audit.
func run(m *machine.Machine, au *coreAudit) {
	m.Eng.Run()
	if au != nil {
		au.add(m)
	}
}

// nearestRank is the benchmark's percentile: the smallest sample with at
// least q·n samples at or below it.
func nearestRank(sorted []int64, q float64) float64 {
	return float64(sorted[min(max(int(math.Ceil(q*float64(len(sorted))))-1, 0), len(sorted)-1)])
}

// layerAcc is the benchmark's coreLayerAcc: deltas of a device's and the
// engine's counters over the measured stream, and the five uapi stage
// spans of the observed requests.
type layerAcc struct {
	at0, total []float64
	spans      [5][]int64
}

func layerCounters(d *core.Device, e *dma.Engine) []float64 {
	var c []float64
	for _, name := range stats.AllPhases {
		c = append(c, float64(d.Breakdown.Get(name)))
	}
	st, ds := d.Stats(), e.Stats()
	return append(c, float64(d.UserMeter.Busy()), float64(d.KernMeter.Busy()), float64(e.Meter.Busy()),
		float64(st.Syscalls), float64(st.WorkerWakes), float64(ds.IRQs), float64(ds.PriorityBypasses),
		float64(ds.Transfers), float64(ds.BytesMoved), float64(ds.DescWritesFull), float64(ds.DescWritesReused))
}

func (a *layerAcc) start(d *core.Device, e *dma.Engine) { a.at0 = layerCounters(d, e) }

func (a *layerAcc) stop(d *core.Device, e *dma.Engine) {
	if a.total == nil {
		a.total = make([]float64, len(a.at0))
	}
	for i, v := range layerCounters(d, e) {
		a.total[i] += v - a.at0[i]
	}
}

func (a *layerAcc) observe(r *uapi.MovReq) {
	s := [...]sim.Time{r.Submitted, r.Flushed, r.Dispatched, r.CopyStart, r.Completed, r.Retrieved}
	for i := range a.spans {
		a.spans[i] = append(a.spans[i], int64(s[i+1]-s[i]))
	}
}

func (a *layerAcc) report(out map[string]float64, ops, virt int64) {
	n, v, t := float64(ops), float64(virt), a.total
	np := len(stats.AllPhases)
	for i, name := range stats.AllPhases {
		out["core.phase_"+name+"_us_virt"] = t[i] / n / 1e3
	}
	out["core.cpu_user_frac_virt"], out["core.cpu_kern_frac_virt"] = t[np]/v, t[np+1]/v
	out["core.syscalls_per_req"], out["core.worker_wakes_per_req"] = t[np+3]/n, t[np+4]/n
	for i, name := range [...]string{"staging_wait", "dispatch_wait", "prep", "copy_release", "dwell"} {
		slices.Sort(a.spans[i])
		out["uapi."+name+"_p50_us_virt"] = nearestRank(a.spans[i], 0.5) / 1e3
	}
	out["dma.busy_frac_virt"], out["dma.irqs_per_req"], out["dma.priority_bypasses"] = t[np+2]/v, t[np+5]/n, t[np+6]
	out["dma.bytes_per_transfer"] = t[np+8] / t[np+7]
	out["dma.desc_reuse_frac"] = t[np+10] / (t[np+9] + t[np+10])
}

// endToEnd adds the shape's virtual end-to-end metrics.
func endToEnd(out map[string]float64, bytes, virt int64, lat []int64) {
	slices.Sort(lat)
	out["gb_s"] = float64(bytes) / float64(virt)
	out["lat_p50_us"], out["lat_p99_us"] = nearestRank(lat, 0.5)/1e3, nearestRank(lat, 0.99)/1e3
}

// ledgerMove is sim_move: three Fig 8-shaped phases, each on a fresh
// machine, ledgerWindow requests in flight, the caller stamping each
// source before it submits and reading the stamp back after retrieving.
func ledgerMove(au *coreAudit) map[string]float64 {
	out, acc := map[string]float64{}, &layerAcc{}
	var ops, bytes, virt, linuxBytes, linuxVirt, linuxCPU int64
	var lat []int64
	for pi, ph := range []struct {
		name      string
		op        uapi.Op
		pageBytes int64
		pages     int
		reqs      int
	}{{"4k16", uapi.OpMigrate, hw.Page4K, 16, 200}, {"64k4", uapi.OpReplicate, hw.Page64K, 4, 100}, {"2m1", uapi.OpMigrate, hw.Page2M, 1, 100}} {
		rng := rand.New(rand.NewSource(ledgerSeed*31 + int64(pi)))
		n := ph.reqs + rng.Intn(ph.reqs/32+1)
		reqBytes := int64(ph.pages) * ph.pageBytes
		m := machine.New(evalPlatform())
		as := m.NewAddressSpace(ph.pageBytes)
		opts := core.DefaultOptions()
		opts.NumReqs = 256
		d := core.Open(m, as, opts)
		var phaseVirt int64
		m.Eng.Spawn("app", func(p *sim.Proc) {
			defer d.Close()
			fill, word := make([]byte, reqBytes), make([]byte, 8)
			rng.Read(fill)
			src, dst, loc := make([]int64, ledgerWindow), make([]int64, ledgerWindow), make([]hw.NodeID, ledgerWindow)
			at := src // where a retrieved request's stamp is read back
			if ph.op == uapi.OpReplicate {
				at = dst
			}
			for i := range src {
				if pad := rng.Int63n(4); pad > 0 {
					mmapOrDie(p, as, pad*ph.pageBytes, hw.NodeSlow, "pad")
				}
				src[i], loc[i] = mmapOrDie(p, as, reqBytes, hw.NodeSlow, "src"), hw.NodeSlow
				if ph.op == uapi.OpReplicate {
					dst[i] = mmapOrDie(p, as, reqBytes, hw.NodeFast, "dst")
				}
				for off := int64(8); off+8 <= reqBytes; off += 4 << 10 {
					rng.Uint64() // the benchmark's per-region stamps
				}
				must(as.Write(p, src[i], fill))
			}
			issued, measured := 0, false
			submit := func(i int) {
				if issued++; measured && issued > ledgerWindow {
					p.SleepNS(rng.Int63n(ledgerGapNS)) // the caller computes, then reuses the buffer
				}
				must(as.Write(p, src[i], word))
				node := hw.NodeFast
				if ph.op == uapi.OpMigrate && loc[i] == hw.NodeFast {
					node = hw.NodeSlow
				}
				loc[i] = node
				submitMove(p, d, ph.op, src[i], dst[i], reqBytes, node, uint64(i))
			}
			done := func(r *uapi.MovReq) {
				must(as.Read(p, at[r.Cookie], word))
				if measured {
					ops, bytes = ops+1, bytes+r.Length
					lat = append(lat, int64(r.Completed-r.Submitted))
					acc.observe(r)
				}
			}
			window(p, d, ledgerWindow, ledgerWindow, submit, done) // warm-up
			issued, measured = 0, true
			acc.start(d, m.DMA)
			virt0 := p.Now()
			window(p, d, n, ledgerWindow, submit, done)
			phaseVirt = int64(p.Now() - virt0)
			acc.stop(d, m.DMA)
		})
		run(m, au)
		virt += phaseVirt
		lm := newEvalMachine()
		ln := max(ph.reqs/10, 8)
		lv, lc := linuxPingPong(lm, lm.NewAddressSpace(ph.pageBytes), ledgerWindow, reqBytes, ln)
		lb := int64(ln) * reqBytes
		out["core.speedup_vs_linuxmig_"+ph.name] = float64(int64(n)*reqBytes) / float64(phaseVirt) / (float64(lb) / float64(lv))
		linuxBytes, linuxVirt, linuxCPU = linuxBytes+lb, linuxVirt+int64(lv), linuxCPU+int64(lc)
	}
	out["linuxmig.gb_s_virt"] = float64(linuxBytes) / float64(linuxVirt)
	out["linuxmig.cpu_frac_virt"] = float64(linuxCPU) / float64(linuxVirt)
	acc.report(out, ops, virt)
	endToEnd(out, bytes, virt, lat)
	return out
}

// must panics on an error: the ledger's shapes, like the paper's, are
// plumbing that cannot fail on a working driver.
func must(err error) {
	if err != nil {
		panic(fmt.Sprintf("bench: ledger: %v", err))
	}
}

// The sim_streams scenario: four streams, one per kernel, two passes
// each, through one engine, while a foreground prober ping-pongs a page
// through a sibling device every probePaceNS plus a seeded jitter.
var (
	ledgerKernels = [...]workloads.Kernel{workloads.Triad, workloads.Add, workloads.PGain, workloads.Copy}
	ledgerClasses = [...]uapi.Class{uapi.ClassBackground, uapi.ClassBackground, uapi.ClassScavenger, uapi.ClassScavenger}
)

const (
	ledgerPasses  = 2
	probePaceNS   = 10_000
	probeJitterNS = 2_000
	triadGainPct  = 33.6 // Table 4's STREAM.triad gain in the paper
)

// ledgerStreams is sim_streams on the real 6 MB fast node.
func ledgerStreams(au *coreAudit) map[string]float64 {
	eopts := streamrt.DefaultEngineOptions()
	perStream := 4<<20 + rand.New(rand.NewSource(ledgerSeed)).Int63n(8)*eopts.BufBytes
	rng := rand.New(rand.NewSource(ledgerSeed*31 + 7))
	m := machine.New(hw.KeyStoneII())
	as := m.NewAddressSpace(hw.Page4K)
	opts := core.DefaultOptions()
	opts.NumReqs = 256
	app, dev := core.Open(m, as, opts), core.Open(m, as, opts)
	out, acc := map[string]float64{}, &layerAcc{}
	var (
		storm, stormDone  bool
		baseLat, stormLat []int64
		runs              [len(ledgerKernels) * ledgerPasses]*streamrt.Stream // kernel-major
		runMBs            [len(runs)]float64
		virt              int64
		snap              streamrt.EngineSnapshot
	)
	m.Eng.Spawn("fg", func(p *sim.Proc) {
		defer app.Close()
		page := mmapOrDie(p, as, hw.Page4K, hw.NodeSlow, "fg-probe")
		want := make([]byte, hw.Page4K)
		rng.Read(want)
		must(as.Write(p, page, want))
		for dst := hw.NodeFast; !stormDone; p.SleepNS(probePaceNS + rng.Int63n(probeJitterNS)) {
			lat, during := &baseLat, storm
			if during {
				lat = &stormLat
			}
			submitMove(p, app, uapi.OpMigrate, page, 0, hw.Page4K, dst, 0) // a Foreground move
			workloads.Await(p, app, 1, func(got *uapi.MovReq) {
				if got.Status != uapi.StatusDone {
					panic(fmt.Sprintf("bench: ledger probe failed: %v", got))
				}
				*lat = append(*lat, int64(got.Completed-got.Submitted))
				if during {
					acc.observe(got)
				}
			})
			if dst == hw.NodeFast {
				dst = hw.NodeSlow
			} else {
				dst = hw.NodeFast
			}
		}
		must(as.Read(p, page, want))
	})
	m.Eng.Spawn("ingest", func(p *sim.Proc) {
		defer dev.Close()
		defer func() { stormDone = true }()
		bases, sums := ledgerInputs(p, as, perStream)
		acc.start(dev, m.DMA)
		virt0 := p.Now()
		storm = true
		e, err := streamrt.OpenEngine(p, dev, eopts)
		must(err)
		producers := len(ledgerKernels)
		for i, k := range ledgerKernels {
			m.Eng.Spawn(fmt.Sprintf("producer-%d", i), func(cp *sim.Proc) {
				defer func() { producers-- }()
				for pass := 0; pass < ledgerPasses; pass++ {
					s, err := e.OpenStream(cp, streamrt.StreamSpec{Kernel: k, Base: bases[i], Length: perStream,
						Class: ledgerClasses[i], Credits: 2, Name: fmt.Sprintf("producer-%d.%d", i, pass)})
					must(err)
					start := cp.Now()
					for done := false; !done; {
						done, err = s.Consume(cp)
						must(err)
					}
					if s.Checksum() != sums[i] {
						panic(fmt.Sprintf("bench: ledger stream %d: checksum %x, input %x", i, s.Checksum(), sums[i]))
					}
					runs[i*ledgerPasses+pass], runMBs[i*ledgerPasses+pass] = s, float64(perStream)/1e6/(cp.Now()-start).Seconds()
					s.Close(cp)
				}
			})
		}
		for producers > 0 {
			p.SleepNS(500_000)
		}
		virt = int64(p.Now() - virt0)
		acc.stop(dev, m.DMA)
		snap = e.Snapshot()
		e.Close(p)
	})
	run(m, au)

	directMBs, gainPct := ledgerReference(perStream)
	var fast, slow, tailWaits int64
	var fillP50 []float64
	var engMBs, dirMBs float64
	for ri, s := range runs {
		st := s.Stats()
		fast, slow, tailWaits = fast+st.FastChunks, slow+st.SlowChunks, tailWaits+st.TailWaits
		fillP50 = append(fillP50, st.FillLatency.QuantileInterp(0.5)/1e3)
		engMBs, dirMBs = engMBs+runMBs[ri], dirMBs+directMBs[ri/ledgerPasses]
	}
	st := dev.Stats()
	acc.report(out, st.Completed+st.Failed, virt)
	endToEnd(out, int64(len(runs))*perStream, virt, stormLat)
	slices.Sort(baseLat)
	slices.Sort(fillP50)
	out["streamrt.fast_chunk_frac"] = float64(fast) / float64(fast+slow)
	out["streamrt.fills_per_flush"] = float64(snap.Fills) / float64(snap.FillBatches)
	out["streamrt.stalls"], out["streamrt.tail_waits"] = float64(snap.Stalls), float64(tailWaits)
	out["streamrt.fill_lat_p50_us_virt"] = (fillP50[len(fillP50)/2-1] + fillP50[len(fillP50)/2]) / 2 // an even count
	out["streamrt.speedup_vs_direct"] = engMBs / dirMBs
	out["streamrt.fg_p99_ratio"] = nearestRank(stormLat, 0.99) / nearestRank(baseLat, 0.99)
	out["streamrt.table4_gain_err_pts"] = gainPct - triadGainPct
	return out
}

// ledgerInputs maps and fills the four stream inputs on the slow node and
// returns their bases and checksums.
func ledgerInputs(p *sim.Proc, as *vm.AddressSpace, perStream int64) (bases []int64, sums []uint64) {
	bases, sums = make([]int64, len(ledgerKernels)), make([]uint64, len(ledgerKernels))
	for i := range bases {
		bases[i] = mmapOrDie(p, as, perStream, hw.NodeSlow, fmt.Sprintf("stream-%d", i))
		var err error
		sums[i], err = workloads.FillInput(p, as, bases[i], perStream, ledgerSeed<<8+uint64(i)+1)
		must(err)
	}
	return bases, sums
}

// ledgerReference is what sim_streams divides by: each kernel streamed
// straight from the slow node (the benchmark's unmeasured repetition
// takes it), and Table 4's triad gain, on a machine of its own, through a
// one-stream engine that holds the whole ring.
func ledgerReference(perStream int64) (directMBs [len(ledgerKernels)]float64, gainPct float64) {
	direct := func(p *sim.Proc, as *vm.AddressSpace, k workloads.Kernel, base int64) float64 {
		dr, err := streamrt.RunDirect(p, as, k, base, perStream, streamrt.DefaultConfig())
		must(err)
		return dr.ThroughputMBs
	}
	m := machine.New(hw.KeyStoneII())
	as := m.NewAddressSpace(hw.Page4K)
	runApp(m, func(p *sim.Proc) {
		bases, _ := ledgerInputs(p, as, perStream)
		for i, k := range ledgerKernels {
			directMBs[i] = direct(p, as, k, bases[i])
		}
	})
	m = machine.New(hw.KeyStoneII())
	as = m.NewAddressSpace(hw.Page4K)
	d := core.Open(m, as, core.DefaultOptions())
	runApp(m, func(p *sim.Proc) {
		defer d.Close()
		base := mmapOrDie(p, as, perStream, hw.NodeSlow, "triad")
		_, err := workloads.FillInput(p, as, base, perStream, 1)
		must(err)
		linux := direct(p, as, workloads.Triad, base)
		e, err := streamrt.OpenEngine(p, d, streamrt.DefaultEngineOptions())
		must(err)
		defer e.Close(p)
		s, err := e.OpenStream(p, streamrt.StreamSpec{Kernel: workloads.Triad, Base: base, Length: perStream, Credits: 8})
		must(err)
		er, err := s.Run(p)
		must(err)
		gainPct = (er.ThroughputMBs/linux - 1) * 100
	})
	return directMBs, gainPct
}
