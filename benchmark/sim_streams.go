package main

import (
	"fmt"
	"math/rand"
	"slices"
	"time"

	"memif/internal/core"
	"memif/internal/hw"
	"memif/internal/machine"
	"memif/internal/sim"
	"memif/internal/streamrt"
	"memif/internal/uapi"
	"memif/internal/workloads"
)

const (
	streamPage = hw.Page4K
	// probePaceNS is the foreground prober's think time between two
	// page moves, to which a seeded jitter below probeJitterNS is
	// added. It is short enough that the ingest storm sees well over a
	// thousand probes, so the storm p99 has ten samples beyond it.
	probePaceNS   = 10_000
	probeJitterNS = 2_000
	// paperTriadGainPct is Table 4's STREAM.triad gain of memif over
	// Linux (3184.4 vs 2384.1 MB/s), the repository's reference for the
	// streaming runtime (EXPERIMENTS.md).
	paperTriadGainPct = 33.6
)

// The four streams of the scenario, as in membench's streams section.
var (
	streamKernels = [...]workloads.Kernel{workloads.Triad, workloads.Add, workloads.PGain, workloads.Copy}
	streamClasses = [...]uapi.Class{uapi.ClassBackground, uapi.ClassBackground, uapi.ClassScavenger, uapi.ClassScavenger}
)

// streamPasses is how many times each producer streams its input, one
// stream handle per pass: two passes make the storm long enough for a
// valid prober p99 without doubling the inputs every repetition has to
// fill, and exercise stream retirement and ring recycling.
const streamPasses = 2

// streamRun is one pass of one producer.
type streamRun struct {
	s       *streamrt.Stream
	elapsed sim.Time // open → last chunk, virtual
	sum     uint64
}

// streamsRef is the ground truth of one seed's inputs, taken once by
// an independent RunDirect pass in the unmeasured repetition.
type streamsRef struct {
	taken     bool
	checksum  [len(streamKernels)]uint64
	directMBs [len(streamKernels)]float64
}

func runSimStreams(cfg config) (*result, error) {
	perStream := int64(64 << 20)
	if cfg.small {
		perStream = 4 << 20
	}
	// The seed lengthens the streams by up to seven chunks, so no two
	// seeds ingest exactly the same amount of work.
	bufBytes := streamrt.DefaultEngineOptions().BufBytes
	perStream += rand.New(rand.NewSource(cfg.seed)).Int63n(8) * bufBytes
	var ref streamsRef
	res, err := runSimReps(cfg, "core", func(tr *tracer, repIdx int) (simRep, error) {
		return streamsRep(cfg, perStream, &ref, tr, repIdx)
	})
	if err != nil || !cfg.trace {
		return res, err
	}
	gain, err := triadGain(perStream)
	if err != nil {
		return nil, err
	}
	res.layer["streamrt.table4_gain_err_pts"] = gain - paperTriadGainPct
	// Kernel compute on equal-size host buffers, as a share of one
	// repetition's host time: the part of cpu_us_per_op no simulator
	// change can remove.
	buf := make([]byte, perStream)
	t0 := time.Now()
	for range [streamPasses]struct{}{} {
		for _, k := range streamKernels {
			k.Reduce(0, buf)
		}
	}
	kernel := time.Since(t0).Seconds()
	chunks := float64(len(streamKernels)*streamPasses) * float64(perStream/bufBytes)
	res.layer["workloads.kernel_host_frac"] = kernel / (chunks * res.layer["sim.host_ns_per_op"] / 1e9)
	return res, nil
}

// streamsRep runs the scenario once on a fresh machine: a foreground
// prober ping-pongs one page through its own device, first alone, then
// while four streams ingest through one engine on a sibling device.
func streamsRep(cfg config, perStream int64, ref *streamsRef, tr *tracer, repIdx int) (simRep, error) {
	rep := simRep{layer: make(map[string]float64)}
	setupStart := time.Now()
	tr.begin(tr.now(), uint64(max(repIdx, 0)))
	rng := rand.New(rand.NewSource(cfg.seed*31 + 7))
	eopts := streamrt.DefaultEngineOptions()
	m := machine.New(hw.KeyStoneII()) // the real 6 MB fast node: Table 4's geometry
	as := m.NewAddressSpace(streamPage)
	opts := core.DefaultOptions()
	opts.NumReqs = 256
	app := core.Open(m, as, opts) // the prober's device
	dev := core.Open(m, as, opts) // the engine's device
	n := len(streamKernels)

	var (
		runErr                 error
		storm, stormDone       bool // the engine is open; every producer finished
		baseLat, stormLat      []int64
		runs                   = make([]streamRun, n*streamPasses) // kernel-major
		expect                 = make([]uint64, n)
		acc                    *coreLayerAcc
		engSnap                streamrt.EngineSnapshot
		host0                  time.Time
		cpu0                   time.Duration
		probesTried, probesBad int64
	)
	if tr != nil {
		acc = &coreLayerAcc{}
	}
	fail := func(format string, args ...any) {
		rep.failed++
		if len(rep.errs) < 8 {
			rep.errs = append(rep.errs, fmt.Sprintf(format, args...))
		}
	}
	mmap := func(p *sim.Proc, length int64, node hw.NodeID, name string) (int64, error) {
		ts := tr.now()
		base, err := as.Mmap(p, length, node, name)
		tr.add(spanMmap, ts, tr.now(), 0, 1)
		return base, err
	}

	m.Eng.Spawn("fg", func(p *sim.Proc) {
		defer app.Close()
		page, err := mmap(p, streamPage, hw.NodeSlow, "fg-probe")
		if err != nil {
			runErr = err
			return
		}
		want := make([]byte, streamPage)
		rng.Read(want)
		if err := as.Write(p, page, want); err != nil {
			runErr = err
			return
		}
		dst := hw.NodeFast
		// probe migrates the page to the other node and back, one
		// request at a time, and records submit→complete latency.
		probe := func() {
			lat, observe := &baseLat, false
			if storm {
				lat, observe = &stormLat, true
			}
			probesTried++
			r := app.AllocRequest(p)
			if r == nil {
				probesBad++
				return
			}
			r.Op, r.SrcBase, r.Length, r.DstNode, r.Class = uapi.OpMigrate, page, streamPage, dst, uapi.ClassForeground
			if err := app.Submit(p, r); err != nil {
				app.FreeRequest(p, r)
				probesBad++
				return
			}
			for {
				got := app.RetrieveCompleted(p)
				if got == nil {
					app.Poll(p, 0)
					continue
				}
				if got.Status != uapi.StatusDone || !stampsClose(got) || as.FrameAt(page).Node != dst {
					probesBad++
				} else {
					*lat = append(*lat, int64(got.Completed-got.Submitted))
					if observe {
						acc.observe(got)
					}
					if dst == hw.NodeFast {
						dst = hw.NodeSlow
					} else {
						dst = hw.NodeFast
					}
				}
				app.FreeRequest(p, got)
				return
			}
		}
		// Probes before the engine opens are the uncontended baseline
		// (the ingest proc is filling its inputs, which uses no DMA).
		for !stormDone && runErr == nil {
			probe()
			p.SleepNS(probePaceNS + rng.Int63n(probeJitterNS))
		}
		// The page went there and back many times; its bytes must not
		// have changed.
		got := make([]byte, streamPage)
		if err := as.Read(p, page, got); err != nil || !slices.Equal(got, want) {
			fail("prober page changed while migrating (%v)", err)
		}
	})

	m.Eng.Spawn("ingest", func(p *sim.Proc) {
		defer dev.Close()
		defer func() { stormDone = true }()
		bases := make([]int64, n)
		for i := range bases {
			b, err := mmap(p, perStream, hw.NodeSlow, fmt.Sprintf("stream-%d", i))
			if err != nil {
				runErr = err
				return
			}
			bases[i] = b
			ts := tr.now()
			expect[i], err = workloads.FillInput(p, as, b, perStream, uint64(cfg.seed)<<8+uint64(i)+1)
			tr.add(spanFill, ts, tr.now(), uint64(i), 1)
			if err != nil {
				runErr = err
				return
			}
		}
		if !ref.taken && cfg.check {
			dcfg := streamrt.DefaultConfig()
			for i, k := range streamKernels {
				dr, err := streamrt.RunDirect(p, as, k, bases[i], perStream, dcfg)
				if err != nil {
					runErr = err
					return
				}
				ref.checksum[i], ref.directMBs[i] = dr.Checksum, dr.ThroughputMBs
			}
			ref.taken = true
		}
		if runErr != nil {
			return
		}

		// The measured stream: open the engine, run every producer's
		// passes to completion.
		acc.start(dev, m.DMA)
		rep.setupHost = time.Since(setupStart)
		host0, cpu0 = time.Now(), cpuTime()
		virt0 := p.Now()
		storm = true
		e, err := streamrt.OpenEngine(p, dev, eopts)
		if err != nil {
			runErr = err
			return
		}
		producers := n
		for i := 0; i < n; i++ {
			i := i
			m.Eng.Spawn(fmt.Sprintf("producer-%d", i), func(cp *sim.Proc) {
				defer func() { producers-- }()
				for pass := 0; pass < streamPasses; pass++ {
					run := &runs[i*streamPasses+pass]
					s, err := e.OpenStream(cp, streamrt.StreamSpec{
						Kernel: streamKernels[i], Base: bases[i], Length: perStream,
						Class: streamClasses[i], Credits: 2, Name: fmt.Sprintf("producer-%d.%d", i, pass),
					})
					if err != nil {
						fail("stream %d pass %d: %v", i, pass, err)
						return
					}
					run.s = s
					start := cp.Now()
					for chunk := uint64(0); ; chunk++ {
						ts := tr.now()
						done, err := s.Consume(cp)
						tr.add(spanConsume, ts, tr.now(), uint64(i)<<32|chunk, 1)
						if err != nil {
							fail("stream %d pass %d: %v", i, pass, err)
							s.Close(cp)
							return
						}
						if done {
							break
						}
					}
					run.elapsed, run.sum = cp.Now()-start, s.Checksum()
					s.Close(cp)
				}
			})
		}
		for producers > 0 {
			p.SleepNS(500_000)
		}
		rep.host, rep.cpu = time.Since(host0), cpuTime()-cpu0
		rep.virtNS = int64(p.Now() - virt0)
		acc.stop(dev, m.DMA)
		engSnap = e.Snapshot()
		e.Close(p)
		if cfg.check {
			if err := dev.Area.Audit(nil); err != nil {
				fail("engine device area audit: %v", err)
			}
		}
	})

	ts := tr.now()
	m.Eng.Run()
	tr.add(spanRun, ts, tr.now(), 0, 0)
	tr.end(tr.now(), int(rep.ops))
	if runErr != nil {
		return rep, fmt.Errorf("sim_streams: %w", runErr)
	}

	chunks := perStream / eopts.BufBytes
	var tailWaits, fast, slow int64
	var fillP50 []float64
	var engMBs, directMBs float64 // summed over stream runs: through the engine, in place
	for ri, run := range runs {
		i := ri / streamPasses
		rep.attempted += chunks
		if run.s == nil {
			continue // its producer already reported why
		}
		st := run.s.Stats()
		switch {
		case run.sum != expect[i]:
			fail("%s: checksum %x, input was %x", st.Name, run.sum, expect[i])
		case cfg.check && run.sum != ref.checksum[i]:
			fail("%s: checksum %x, RunDirect saw %x", st.Name, run.sum, ref.checksum[i])
		case st.FastChunks+st.SlowChunks != chunks || !st.Done:
			fail("%s: consumed %d+%d of %d chunks", st.Name, st.FastChunks, st.SlowChunks, chunks)
		case st.Stalls != 0 || st.FillFailures != 0:
			fail("%s: %d stalls, %d fill failures", st.Name, st.Stalls, st.FillFailures)
		default:
			rep.ops += chunks
			rep.bytes += perStream
		}
		tailWaits += st.TailWaits
		fast, slow = fast+st.FastChunks, slow+st.SlowChunks
		if st.FillLatency.Count > 0 {
			fillP50 = append(fillP50, st.FillLatency.QuantileInterp(0.5)/1e3)
		}
		rep.digest = fold(fold(rep.digest, int64(run.elapsed)), st.FastChunks)
		if run.elapsed > 0 {
			engMBs += float64(perStream) / 1e6 / run.elapsed.Seconds()
			directMBs += ref.directMBs[i]
		}
	}
	rep.attempted += probesTried
	if probesBad > 0 {
		rep.failed += probesBad
		rep.errs = append(rep.errs, fmt.Sprintf("%d of %d foreground probes failed", probesBad, probesTried))
	}
	if cfg.check {
		rep.attempted++
		if err := app.Area.Audit(nil); err != nil {
			fail("prober device area audit: %v", err)
		}
	}
	rep.digest = fold(rep.digest, rep.virtNS)
	for _, l := range stormLat {
		rep.digest = fold(rep.digest, l)
	}
	slices.Sort(stormLat)
	slices.Sort(baseLat)
	rep.samples = len(stormLat)
	if rep.samples > 0 {
		rep.p50, rep.p99 = percentile(stormLat, 0.50), percentile(stormLat, 0.99)
	}

	if tr != nil {
		st := dev.Stats()
		acc.report(rep.layer, st.Completed+st.Failed, rep.virtNS)
		rep.layer["streamrt.fast_chunk_frac"] = float64(fast) / float64(fast+slow)
		if engSnap.FillBatches > 0 {
			rep.layer["streamrt.fills_per_flush"] = float64(engSnap.Fills) / float64(engSnap.FillBatches)
		}
		rep.layer["streamrt.stalls"] = float64(engSnap.Stalls)
		rep.layer["streamrt.tail_waits"] = float64(tailWaits)
		rep.layer["streamrt.fill_lat_p50_us_virt"] = median(fillP50)
		if directMBs > 0 {
			rep.layer["streamrt.speedup_vs_direct"] = engMBs / directMBs
		}
		if len(baseLat) > 0 && rep.samples > 0 {
			rep.layer["streamrt.fg_p99_ratio"] = float64(rep.p99) / float64(percentile(baseLat, 0.99))
		}
		rep.layer["vm.mmap_host_ms"] = float64(tr.ns[spanMmap]) / 1e6
	}
	return rep, nil
}

// triadGain streams STREAM.triad alone, once in place and once through
// a single-stream engine, and returns the engine's gain in percent —
// the Table 4 experiment the repository validates against.
func triadGain(length int64) (float64, error) {
	m := machine.New(hw.KeyStoneII())
	as := m.NewAddressSpace(streamPage)
	d := core.Open(m, as, core.DefaultOptions())
	var direct, engine float64
	var runErr error
	m.Eng.Spawn("triad", func(p *sim.Proc) {
		defer d.Close()
		base, err := as.Mmap(p, length, hw.NodeSlow, "triad")
		if err != nil {
			runErr = err
			return
		}
		if _, err := workloads.FillInput(p, as, base, length, 1); err != nil {
			runErr = err
			return
		}
		dr, err := streamrt.RunDirect(p, as, workloads.Triad, base, length, streamrt.DefaultConfig())
		if err != nil {
			runErr = err
			return
		}
		e, err := streamrt.OpenEngine(p, d, streamrt.DefaultEngineOptions())
		if err != nil {
			runErr = err
			return
		}
		defer e.Close(p)
		// All eight ring buffers: the one-shot Table 4 runtime gave its
		// single stream the whole ring.
		s, err := e.OpenStream(p, streamrt.StreamSpec{Kernel: workloads.Triad, Base: base, Length: length, Credits: 8})
		if err != nil {
			runErr = err
			return
		}
		er, err := s.Run(p)
		if err != nil {
			runErr = err
			return
		}
		if er.Checksum != dr.Checksum {
			runErr = fmt.Errorf("triad checksum %x through the engine, %x direct", er.Checksum, dr.Checksum)
			return
		}
		direct, engine = dr.ThroughputMBs, er.ThroughputMBs
	})
	m.Eng.Run()
	if runErr != nil {
		return 0, fmt.Errorf("table 4 reference run: %w", runErr)
	}
	return (engine/direct - 1) * 100, nil
}
