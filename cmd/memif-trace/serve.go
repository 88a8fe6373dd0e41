package main

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"memif/internal/core"
	"memif/internal/hw"
	"memif/internal/machine"
	"memif/internal/obs/flight"
	"memif/internal/obs/lifecycle"
	"memif/internal/obs/obshttp"
	"memif/internal/realtime"
	"memif/internal/sim"
	"memif/internal/streamrt"
	"memif/internal/swapd"
	"memif/internal/uapi"
	"memif/internal/workloads"
)

// runServe populates all three instrumented subsystems — the realtime
// device (wall clock, full lifecycle capture), the swap daemon and the
// streaming runtime (virtual clock, stage stamps) — then serves their
// combined observability on addr: /metrics, /trace, /debug/pprof/*.
// A positive serveFor shuts the server down after that long (CI smoke);
// zero serves until killed.
func runServe(addr string, serveFor time.Duration, reqs, bytesPer int) {
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
	opts.Flight.Warmup = int64(reqs) / 2
	if opts.Flight.Warmup < 1 {
		opts.Flight.Warmup = 1
	}
	opts.Chaos = &realtime.ChaosHooks{
		BeforeChunkCopy: func(idx uint32, off, end int) {
			if delayCopies.Load() {
				time.Sleep(25 * time.Millisecond)
			}
		},
	}
	d := realtime.Open(opts)
	src := make([]byte, bytesPer)
	dsts := make([][]byte, reqs)
	for i := 0; i < reqs; i++ {
		dsts[i] = make([]byte, bytesPer)
		r := d.AllocRequest()
		if r == nil {
			fmt.Fprintln(os.Stderr, "memif-trace: out of request slots")
			os.Exit(1)
		}
		r.Src, r.Dst = src, dsts[i]
		if err := d.Submit(r); err != nil {
			fmt.Fprintf(os.Stderr, "memif-trace: submit %d: %v\n", i, err)
			os.Exit(1)
		}
	}
	for done := 0; done < reqs; {
		r := d.RetrieveCompleted()
		if r == nil {
			d.Poll(time.Second)
			continue
		}
		d.FreeRequest(r)
		done++
	}
	defer d.Close()

	// The burst above trained the flight recorder's adaptive
	// threshold; a few chaos-delayed stragglers now breach it far past
	// any plausible EWMA, so /debug/outliers always has forensic
	// records to show.
	delayCopies.Store(true)
	dst := make([]byte, bytesPer)
	for i := 0; i < 4; i++ {
		r := d.AllocRequest()
		if r == nil {
			break
		}
		r.Src, r.Dst = src, dst
		if err := d.Submit(r); err != nil {
			fmt.Fprintf(os.Stderr, "memif-trace: outlier submit: %v\n", err)
			os.Exit(1)
		}
		for {
			if got := d.RetrieveCompleted(); got != nil {
				d.FreeRequest(got)
				break
			}
			d.Poll(time.Second)
		}
	}
	delayCopies.Store(false)

	swSnap, engSnap := runSimScenario()

	h := obshttp.NewHandler()
	h.Register(obshttp.RealtimeCollector("rt0", d))
	h.Register(func() []obshttp.Metric { return obshttp.SwapdMetrics("swapd0", swSnap) })
	h.Register(func() []obshttp.Metric { return obshttp.StreamEngineMetrics("eng0", engSnap) })
	h.RegisterTrace("realtime", func() []lifecycle.Lifecycle {
		return d.Stats().Lifecycle.Captured
	})
	h.RegisterOutliers("realtime", d.FlightSnapshot)
	h.RegisterOutliers("swapd", func() flight.Snapshot { return swSnap.Flight })
	h.RegisterOutliers("streams", func() flight.Snapshot { return engSnap.Flight })

	srv := &http.Server{Addr: addr, Handler: h}
	fmt.Fprintf(os.Stderr, "memif-trace: serving http://%s/{metrics,trace,debug/outliers,debug/pprof/}\n", addr)
	if serveFor > 0 {
		go func() {
			time.Sleep(serveFor)
			ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
			defer cancel()
			srv.Shutdown(ctx)
		}()
	}
	if err := srv.ListenAndServe(); err != nil && err != http.ErrServerClosed {
		fmt.Fprintf(os.Stderr, "memif-trace: serve: %v\n", err)
		os.Exit(1)
	}
}

// runSimScenario exercises the simulated stack enough to populate the
// swap daemon's and streaming runtime's stage histograms: an
// over-committed working set forces evictions, then a stream engine
// runs Triad and Add concurrently through one prefetch ring, with its
// flight recorder set aggressive so /debug/outliers has stream-fill
// records to serve.
func runSimScenario() (swapd.MetricsSnapshot, streamrt.EngineSnapshot) {
	const bufBytes = 1 << 20

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
				fmt.Fprintf(os.Stderr, "memif-trace: mmap: %v\n", err)
				return
			}
			bases[i] = b
		}
		for round := 0; round < 3; round++ {
			for _, base := range bases {
				if f := as.FrameAt(base); f == nil || f.Node != hw.NodeFast {
					r := dev.AllocRequest(p)
					if r == nil {
						continue
					}
					r.Op = uapi.OpMigrate
					r.SrcBase, r.Length, r.DstNode = base, bufBytes, hw.NodeFast
					if err := dev.Submit(p, r); err != nil {
						dev.FreeRequest(p, r)
						continue
					}
					for {
						if got := dev.RetrieveCompleted(p); got != nil {
							dev.FreeRequest(p, got)
							break
						}
						dev.Poll(p, 0)
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
	eopts.Flight = flight.Options{ThresholdFloorNs: 1, ThresholdMult: 1, Warmup: 4, RingDepth: 64}
	var engSnap streamrt.EngineSnapshot
	m2.Eng.Spawn("app", func(p *sim.Proc) {
		defer dev2.Close()
		eng, err := streamrt.OpenEngine(p, dev2, eopts)
		if err != nil {
			fmt.Fprintf(os.Stderr, "memif-trace: open engine: %v\n", err)
			return
		}
		length := int64(16) * eopts.BufBytes
		kernels := []workloads.Kernel{workloads.Triad, workloads.Add}
		done := 0
		var streams []*streamrt.Stream
		for i, k := range kernels {
			base, err := as2.Mmap(p, length, hw.NodeSlow, fmt.Sprintf("input%d", i))
			if err != nil {
				fmt.Fprintf(os.Stderr, "memif-trace: mmap: %v\n", err)
				return
			}
			workloads.FillInput(p, as2, base, length, uint64(i)+42)
			s, err := eng.OpenStream(p, streamrt.StreamSpec{
				Kernel: k, Base: base, Length: length,
				Class: uapi.ClassBackground, Credits: 2, Name: k.Name,
			})
			if err != nil {
				fmt.Fprintf(os.Stderr, "memif-trace: open stream: %v\n", err)
				return
			}
			streams = append(streams, s)
			m2.Eng.Spawn(k.Name, func(cp *sim.Proc) {
				if _, err := s.Run(cp); err != nil {
					fmt.Fprintf(os.Stderr, "memif-trace: stream %s: %v\n", k.Name, err)
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
		fmt.Fprintln(os.Stderr, "memif-trace: warning: sim scenario produced no evictions")
	}
	return sw, engSnap
}

// stageFamilies are the per-subsystem stage-histogram families the
// acceptance checks require, with the spans every pipeline must have
// attributed at least once.
var stageFamilies = []string{
	"memif_realtime_stage_latency_ns",
	"memif_swapd_stage_latency_ns",
	"memif_stream_stage_latency_ns",
}

var requiredStages = []string{"staging_wait", "dispatch_wait", "copy", "completion_dwell"}

// checkMetrics validates a scraped /metrics body: well-formed
// Prometheus exposition carrying populated per-stage histograms for the
// realtime device, the swap daemon and the streaming runtime.
func checkMetrics(path string) error {
	body, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	if err := obshttp.ParseExposition(body); err != nil {
		return fmt.Errorf("exposition invalid: %w", err)
	}
	lines := strings.Split(string(body), "\n")
	for _, fam := range stageFamilies {
		for _, stage := range requiredStages {
			want := fmt.Sprintf("stage=%q", stage)
			found := false
			for _, ln := range lines {
				if !strings.HasPrefix(ln, fam+"_count{") || !strings.Contains(ln, want) {
					continue
				}
				val := ln[strings.LastIndexByte(ln, ' ')+1:]
				n, err := strconv.ParseFloat(val, 64)
				if err != nil {
					return fmt.Errorf("%s stage %s: bad count %q", fam, stage, val)
				}
				if n > 0 {
					found = true
				}
				break
			}
			if !found {
				return fmt.Errorf("%s has no samples for stage %s", fam, stage)
			}
		}
	}
	fmt.Printf("memif-trace: %s is a valid exposition with per-stage histograms for all subsystems\n", path)
	return nil
}

// checkTrace validates a downloaded /trace body: Chrome trace_event
// JSON with at least one complete ("X") span event.
func checkTrace(path string) error {
	body, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	var doc struct {
		TraceEvents []struct {
			Name  string  `json:"name"`
			Phase string  `json:"ph"`
			TS    float64 `json:"ts"`
			Dur   float64 `json:"dur"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(body, &doc); err != nil {
		return fmt.Errorf("not valid trace_event JSON: %w", err)
	}
	spans := 0
	for _, ev := range doc.TraceEvents {
		if ev.Phase == "X" {
			if ev.TS < 0 || ev.Dur < 0 {
				return fmt.Errorf("event %s has negative ts/dur (%f/%f)", ev.Name, ev.TS, ev.Dur)
			}
			spans++
		}
	}
	if spans == 0 {
		return fmt.Errorf("trace has no complete events (%d events total)", len(doc.TraceEvents))
	}
	fmt.Printf("memif-trace: %s is a valid Chrome trace with %d span events\n", path, spans)
	return nil
}
