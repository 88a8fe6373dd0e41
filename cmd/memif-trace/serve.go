package main

import (
	"fmt"
	"net/http"
	"os"
	"sync/atomic"
	"time"

	"memif/internal/core"
	"memif/internal/hw"
	"memif/internal/machine"
	"memif/internal/obs/lifecycle"
	"memif/internal/obs/obshttp"
	"memif/internal/qos"
	"memif/internal/realtime"
	"memif/internal/sim"
	"memif/internal/streamrt"
	"memif/internal/swapd"
	"memif/internal/uapi"
	"memif/internal/workloads"
)

// runServe serves the populated handler on addr until killed.
func runServe(addr string, reqs, bytesPer int) error {
	h, stop, err := populate(reqs, bytesPer)
	if err != nil {
		return err
	}
	defer stop()
	fmt.Fprintf(os.Stderr, "memif-trace: serving http://%s/{metrics,trace,debug/outliers,debug/pprof/}\n", addr)
	return http.ListenAndServe(addr, h)
}

// populate runs all three instrumented subsystems — the realtime
// device (wall clock, full lifecycle capture), the swap daemon and the
// streaming runtime (virtual clock, stage stamps) — and returns the
// handler serving their combined observability: /metrics, /trace,
// /debug/outliers, /debug/pprof/*. The realtime device stays open
// behind the handler until stop is called.
func populate(reqs, bytesPer int) (h *obshttp.Handler, stop func(), err error) {
	// Realtime: a burst of real copies with every lifecycle captured.
	// The chaos hook injects a delay into a few designated requests
	// after the burst so the flight recorder always holds outliers.
	var delayCopies atomic.Bool
	opts := realtime.DefaultOptions()
	opts.TraceFullCapture = true
	// The warmup burst below is only `reqs` (default 8) requests; the
	// recorder's default warmup gate (16) would leave the foreground
	// lane cold and the provoked stragglers breach-proof. Serve mode is
	// a smoke demo, so warm the lane on half the burst.
	opts.Flight.Warmup = max(1, int64(reqs)/2)
	opts.Chaos = &realtime.ChaosHooks{
		BeforeChunkCopy: func(idx uint32, off, end int) {
			if delayCopies.Load() {
				time.Sleep(25 * time.Millisecond)
			}
		},
	}
	d := realtime.Open(opts)
	defer func() {
		if err != nil {
			d.Close()
		}
	}()
	src := make([]byte, bytesPer)
	if err := copyBurst(d, reqs, src, nil); err != nil {
		return nil, nil, err
	}
	// The burst above trained the flight recorder's adaptive
	// threshold; a few chaos-delayed stragglers now breach it far past
	// any plausible EWMA, so /debug/outliers always has forensic
	// records to show.
	delayCopies.Store(true)
	for i := 0; i < 4; i++ {
		if err := copyBurst(d, 1, src, nil); err != nil {
			return nil, nil, fmt.Errorf("straggler: %w", err)
		}
	}
	delayCopies.Store(false)

	swSnap, engSnap, err := runSimScenario()
	if err != nil {
		return nil, nil, err
	}

	h = obshttp.NewHandler()
	h.Register(obshttp.RealtimeCollector("rt0", d))
	h.Register(func() []obshttp.Metric { return obshttp.SwapdMetrics("swapd0", swSnap) })
	h.Register(func() []obshttp.Metric { return obshttp.StreamEngineMetrics("eng0", engSnap) })
	h.RegisterTrace("realtime", func() []lifecycle.Lifecycle {
		return d.Stats().Lifecycle.Captured
	})
	h.RegisterOutliers("realtime", d.FlightSnapshot)
	h.RegisterOutliers("swapd", func() lifecycle.FlightSnapshot { return swSnap.Flight })
	h.RegisterOutliers("streams", func() lifecycle.FlightSnapshot { return engSnap.Flight })
	return h, d.Close, nil
}

// runSimScenario exercises the simulated stack enough to populate the
// swap daemon's and streaming runtime's stage histograms: an
// over-committed working set forces evictions, then a stream engine
// runs Triad and Add concurrently through one prefetch ring, with its
// flight recorder set aggressive so /debug/outliers has stream-fill
// records to serve.
func runSimScenario() (swapd.MetricsSnapshot, streamrt.EngineSnapshot, error) {
	const bufBytes = 1 << 20
	// The scenarios run inside sim procs; the first failure is kept and
	// returned once both engines have run out.
	var firstErr error
	fail := func(format string, args ...any) {
		if firstErr == nil {
			firstErr = fmt.Errorf(format, args...)
		}
	}

	// Swap-out pressure: 10 x 1 MB promoted into the 6 MB fast node.
	m := machine.New(hw.KeyStoneII())
	as := m.NewAddressSpace(hw.Page4K)
	dev := core.Open(m, as, core.DefaultOptions())
	sd := swapd.New(dev, swapd.DefaultOptions())
	m.Eng.Spawn("app", func(p *sim.Proc) {
		defer dev.Close()
		defer sd.Stop()
		bases := make([]int64, 10)
		for i := range bases {
			b, err := as.Mmap(p, bufBytes, hw.NodeSlow, fmt.Sprintf("buf%d", i))
			if err != nil {
				fail("mmap: %w", err)
				return
			}
			bases[i] = b
		}
		for round := 0; round < 3; round++ {
			for _, base := range bases {
				if f := as.FrameAt(base); f == nil || f.Node != hw.NodeFast {
					if _, _, err := workloads.MoveSync(p, dev, uapi.OpMigrate, base, 0, bufBytes, hw.NodeFast); err != nil {
						continue
					}
				}
				sd.Register(base, bufBytes)
				sd.Touch(base, p.Now())
				p.SleepNS(2_000_000) // let daemon periods pass
			}
		}
	})
	m.Eng.Run()

	// Streaming: Triad and Add multiplexed over one engine's prefetch
	// ring. The flight thresholds are floored at 1 ns so ordinary fills
	// breach and the outlier ring fills with stream-fill forensics.
	m2 := machine.New(hw.KeyStoneII())
	as2 := m2.NewAddressSpace(hw.Page4K)
	dev2 := core.Open(m2, as2, core.DefaultOptions())
	eopts := streamrt.DefaultEngineOptions()
	eopts.Flight = lifecycle.FlightOptions{ThresholdFloorNs: 1, ThresholdMult: 1, Warmup: 4}
	var engSnap streamrt.EngineSnapshot
	m2.Eng.Spawn("app", func(p *sim.Proc) {
		defer dev2.Close()
		eng, err := streamrt.OpenEngine(p, dev2, eopts)
		if err != nil {
			fail("open engine: %w", err)
			return
		}
		length := int64(16) * eopts.BufBytes
		kernels := []workloads.Kernel{workloads.Triad, workloads.Add}
		done := 0
		var streams []*streamrt.Stream
		for i, k := range kernels {
			base, err := as2.Mmap(p, length, hw.NodeSlow, fmt.Sprintf("input%d", i))
			if err != nil {
				fail("mmap: %w", err)
				return
			}
			if _, err := workloads.FillInput(p, as2, base, length, uint64(i)+42); err != nil {
				fail("fill input: %w", err)
				return
			}
			s, err := eng.OpenStream(p, streamrt.StreamSpec{
				Kernel: k, Base: base, Length: length,
				Class: qos.Background, Credits: 2, Name: k.Name,
			})
			if err != nil {
				fail("open stream: %w", err)
				return
			}
			streams = append(streams, s)
			m2.Eng.Spawn(k.Name, func(cp *sim.Proc) {
				if _, err := s.Run(cp); err != nil {
					fail("stream %s: %w", k.Name, err)
				}
				done++
			})
		}
		for done < len(kernels) {
			p.SleepNS(500_000)
		}
		eng.Close(p)
		engSnap = eng.Snapshot()
		// Finished streams have left the engine's registry; their
		// handles still answer Stats, and the scrape wants their
		// per-stage histograms.
		for _, s := range streams {
			engSnap.Streams = append(engSnap.Streams, s.Stats())
		}
	})
	m2.Eng.Run()

	sw := sd.Metrics()
	if sw.Demotions == 0 {
		fail("sim scenario produced no evictions")
	}
	return sw, engSnap, firstErr
}
