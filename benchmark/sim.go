package main

import (
	"fmt"
	"runtime"
	"time"

	"memif/internal/hw"
)

// simPlatform is the paper's KeyStone II with the fast node enlarged,
// exactly as the repository's own evaluation does (internal/bench): the
// paper emulates medium and large pages by moving extra bytes per page,
// which sidesteps the 6 MB SRAM; the cost model does not depend on
// node size.
func simPlatform() *hw.Platform {
	plat := hw.KeyStoneII()
	for i := range plat.Nodes {
		if plat.Nodes[i].ID == hw.NodeFast {
			plat.Nodes[i].Capacity = 2 << 30
		}
	}
	return plat
}

// simRep is what one repetition of a simulated scenario measured. The
// virtual fields must be bit-identical across repetitions of a seed.
type simRep struct {
	ops, bytes        int64
	attempted, failed int64
	setupHost         time.Duration // repetition start → first measured request
	host, cpu         time.Duration // over the measured stream
	virtNS            int64         // virtual time of the measured stream
	p50, p99          int64         // virtual ns
	samples           int
	digest            uint64 // folds every virtual result of the repetition
	layer             map[string]float64
	errs              []string
}

// fold mixes v into a running FNV-1a style digest.
func fold(d uint64, v int64) uint64 {
	if d == 0 {
		d = 14695981039346656037
	}
	for i := 0; i < 8; i++ {
		d ^= uint64(v>>(8*i)) & 0xff
		d *= 1099511628211
	}
	return d
}

// runSimReps is the shared run loop of the simulated workloads: pin the
// process to one P, run one unmeasured repetition, then repetitions
// until the measuring time is spent. Each repetition builds its own
// machine (a sim engine runs once), so set-up is paid, and timed, every
// repetition; setup_s is the median.
//
// The simulator runs one goroutine at a time and hands control over
// channels; with two Ps the hand-offs cross OS threads and host ops/s
// medians spread ±8%, with one ±3%. The all-procs rate is kept as the
// per-layer metric sim.ops_s_allprocs.
//
// The host time of every repetition is calibrated (calib.go); the
// uncalibrated time is kept as sim.host_ns_per_op and
// sim.host_us_per_virt_ms.
func runSimReps(cfg config, layer string, rep func(tr *tracer, repIdx int) (simRep, error)) (*result, error) {
	prev := runtime.GOMAXPROCS(1)
	defer runtime.GOMAXPROCS(prev)
	res := newResult()
	if _, err := rep(nil, -1); err != nil { // warm-up: heap growth, page faults, code paths
		return nil, err
	}
	var tr *tracer
	if cfg.trace {
		tr = newTracer(layer)
	}
	cal := newCalibrator(cfg.small)
	defer cal.close()
	var (
		start        = time.Now()
		budget       = time.Duration(cfg.seconds) * time.Second
		longest      time.Duration
		first        simRep
		tracedOps    []float64 // calibrated
		untracedOps  []float64 // calibrated
		rawOps       []float64 // untraced repetitions, host clock as it ran
		lastUntraced simRep
	)
	for i := 0; ; i++ {
		if cfg.windows > 0 {
			if i >= cfg.windows {
				break
			}
		} else if i >= 3 && time.Since(start)+longest > budget {
			break
		}
		rtr := tr
		if i%2 == 1 {
			rtr = nil // traced runs alternate traced and untraced repetitions
		}
		if rtr != nil {
			rtr.resetTotals()
		}
		t0 := time.Now()
		r, err := rep(rtr, i)
		if err != nil {
			return nil, err
		}
		scale := cal.next()
		if d := time.Since(t0); d > longest {
			longest = d
		}
		res.attempted += r.attempted
		res.failed += r.failed
		res.checkErrs = append(res.checkErrs, r.errs...)
		if r.ops == 0 {
			return nil, fmt.Errorf("repetition %d completed no operation", i)
		}
		if i == 0 {
			first = r
		} else if cfg.check && (r.digest != first.digest || r.virtNS != first.virtNS || r.p50 != first.p50 || r.p99 != first.p99) {
			res.failed++
			res.checkErrs = append(res.checkErrs, fmt.Sprintf("repetition %d: virtual results differ from repetition 0 (digest %x vs %x, virt %d vs %d ns)",
				i, r.digest, first.digest, r.virtNS, first.virtNS))
		}
		if !tailOK(r.samples, 0.99) {
			res.invalid = append(res.invalid, fmt.Sprintf("repetition %d: only %d latency samples, p99 has fewer than %d beyond it", i, r.samples, minTailSamples))
		}
		opsS := float64(r.ops) / (r.host.Seconds() * scale)
		if rtr != nil {
			tracedOps = append(tracedOps, opsS)
			for k, v := range r.layer {
				res.layer[k] = v // virtual and count metrics repeat exactly; host ones take the last traced repetition
			}
			continue
		}
		untracedOps = append(untracedOps, opsS)
		rawOps = append(rawOps, opsS*scale)
		lastUntraced = r
		res.setups = append(res.setups, r.setupHost.Seconds())
		res.window("ops_s", opsS)
		res.window("gb_s", float64(r.bytes)/float64(r.virtNS))
		res.window("lat_p50_us", float64(r.p50)/1e3)
		res.window("lat_p99_us", float64(r.p99)/1e3)
		res.window("cpu_us_per_op", float64(r.cpu.Microseconds())*scale/float64(r.ops))
	}
	res.notes = cal.notes(rawOps)
	if cfg.trace {
		res.tracer = tr
		res.layer["trace.overhead_frac"] = 1 - median(tracedOps)/median(untracedOps)
		res.layer["host.calibration"] = median(cal.scales)
		res.layer["sim.host_ns_per_op"] = 1e9 / median(rawOps)
		res.layer["sim.host_us_per_virt_ms"] = lastUntraced.host.Seconds() * 1e6 / (float64(lastUntraced.virtNS) / 1e6)
		// The same repetition with every P the host has.
		runtime.GOMAXPROCS(prev)
		r, err := rep(nil, -1)
		runtime.GOMAXPROCS(1)
		if err != nil {
			return nil, err
		}
		res.layer["sim.ops_s_allprocs"] = float64(r.ops) / r.host.Seconds()
		if err := measureFloors(res, nil, cfg.small); err != nil {
			return nil, err
		}
	}
	return res, nil
}
