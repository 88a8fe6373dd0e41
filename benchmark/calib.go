package main

import (
	"fmt"
	"runtime"
	"time"
)

// The host the benchmark was sized on changes speed as a whole for half
// a minute to several minutes at a time (README.md, "Measured
// repeatability"): ten runs of one workload then spread by the height of
// that step, 25% and more, whatever a single run reports from its
// windows. So host time is calibrated on every workload. handoffRef, a
// miniature of what all three engines spend their time on (handing
// control to another goroutine and back, copying a page, allocating),
// runs for refSlice before and after every window, and the window's host
// seconds, wall and CPU, are multiplied by the reference's rate relative
// to its rate on the quiet sizing host. Over ten runs that cut the spread
// of ops_s from 16-17% to 3-5% on rt_small, 5-13% to 2-4% on rt_mixed,
// 7-10% to 3-5% on rt_large, 5-16% to 4% on sim_move and 12-32% to 5-11%
// on sim_streams; a register-only spin loop or a two-thread memmove as
// the reference did half as well or nothing. The reference is
// independent of the engines, so a faster engine still shows.

// Rates of handoffRef on the sizing host when it is quiet, in round
// trips per second: with one P the hand-off stays on one thread, with
// more it crosses threads. They only fix the scale of the calibrated
// seconds; on another host every host-time value is off by one constant
// factor, which a comparison of two commits on that host does not see.
const (
	refQuietRate1P = 1.55e6
	refQuietRateNP = 1.2e6
)

// refSlice is how long the reference runs beside each window.
const refSlice = 50 * time.Millisecond

// refSink keeps the reference loop's allocations on the heap.
var refSink []byte

// handoffRef is a miniature of the simulator's inner loop: control
// passes to a second goroutine and back over unbuffered channels, the
// other side copies a page, and every eighth round trip allocates.
type handoffRef struct {
	resume, parked chan struct{}
}

func newHandoffRef() *handoffRef {
	r := &handoffRef{resume: make(chan struct{}), parked: make(chan struct{})}
	go func() {
		page := make([]byte, 4096)
		frames := make([][]byte, 64)
		for i := range frames {
			frames[i] = make([]byte, 4096)
		}
		i := 0
		for range r.resume {
			copy(frames[i&63], page)
			i++
			r.parked <- struct{}{}
		}
	}()
	return r
}

// rate runs the reference for d and returns round trips per second.
func (r *handoffRef) rate(d time.Duration) float64 {
	t0 := time.Now()
	n := 0
	for time.Since(t0) < d {
		for k := 0; k < 200; k++ {
			r.resume <- struct{}{}
			<-r.parked
			if k%8 == 0 {
				refSink = make([]byte, 256)
			}
		}
		n += 200
	}
	return float64(n) / time.Since(t0).Seconds()
}

// close ends the reference goroutine.
func (r *handoffRef) close() { close(r.resume) }

// calibrator measures the reference between windows and hands out each
// window's scale: the factor that turns its host seconds into seconds
// of the quiet sizing host, below 1 while the host runs slow.
type calibrator struct {
	ref    *handoffRef
	slice  time.Duration
	quiet  float64
	before float64   // the reference's rate before the current window
	scales []float64 // every scale handed out, for the report
}

// newCalibrator starts the reference and takes the first measurement.
// It reads GOMAXPROCS, so the simulated workloads pin their P first.
func newCalibrator(small bool) *calibrator {
	c := &calibrator{ref: newHandoffRef(), slice: refSlice, quiet: refQuietRateNP}
	if runtime.GOMAXPROCS(0) == 1 {
		c.quiet = refQuietRate1P
	}
	if small {
		c.slice /= 10
	}
	c.before = c.ref.rate(c.slice)
	return c
}

// next measures the reference after the window that just ended and
// returns that window's scale, from the mean of the rates on both sides.
func (c *calibrator) next() float64 {
	after := c.ref.rate(c.slice)
	scale := (c.before + after) / 2 / c.quiet
	c.before = after
	c.scales = append(c.scales, scale)
	return scale
}

// notes are the report lines that let a reader undo the calibration.
func (c *calibrator) notes(rawOps []float64) []string {
	return []string{
		fmt.Sprintf("host calibration: reference at %.3f of the quiet sizing host (median over windows); uncalibrated ops_s %.6g", median(c.scales), median(rawOps)),
		"host calibration per window: " + joinf("%.3f", c.scales),
	}
}

func (c *calibrator) close() { c.ref.close() }
