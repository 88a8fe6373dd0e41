package core

import (
	"memif/internal/sim"
	"memif/internal/stats"
	"memif/internal/uapi"
)

// pipeDepth is how many transfers one producer keeps on the engine's
// single channel at once — the worker's polled requests, and the
// sub-transfers of one request's train (startTrain): one active plus one
// queued behind it, which the engine begins the instant the first ends
// with no CPU involved. That is exactly what keeps a single channel fed; a
// third would only sit in the queue (and hold a third descriptor chain).
const pipeDepth = 2

// channelQuantum is the most bytes a Background or Scavenger sub-transfer
// carries: the longest such a request holds the non-preemptible channel
// against a Foreground transfer that arrives behind it. 64 KiB is 12.8 µs
// of channel on KeyStone II (900 ns start-up + 65,536 B ÷ 5.5 GB/s), under
// the 18.6 µs its sixteen reused 4 KiB descriptors take to write, so the
// next sub-transfer is never configured before the current one is done
// and the split costs a fill only the start-ups (7 % of each quantum).
// Measured on sim_streams (EXPERIMENTS.md "PR 24"): 32 KiB halves the
// wait again but doubles the start-ups and lifts the prober's median by a
// fifth; at 128 KiB the p99 is a third higher. It is a property of the
// channel, not of a client, hence a constant and not an Options field.
const channelQuantum = 64 << 10

// worker is the memif kernel thread (Section 5.4). Once woken — by the
// completion interrupt of a kick-started request — it flushes the staging
// queue, serves every queued request, and only recolors the staging queue
// blue (handing flush duty back to the application) when everything is
// drained.
//
// As a schedulable kernel context it can sleep, which is what permits the
// polling completion mode for small transfers; and it runs on a core of
// its own, shielding the application from the driver's CPU work. It polls
// a small transfer only where polling costs no bandwidth; with work
// waiting on an idle channel the request takes the interrupt instead
// (serveReq has the rule).
//
// Polled requests form a two-stage software pipeline, NAPI-style: the
// worker polls between requests while there is work and never sleeps on
// one transfer while another request is queued. Each pass of the loop
//
//  1. reaps: every started request whose train has completed gets its
//     poll check and then Release+Notify;
//  2. prepares ahead: at most one more request is dequeued, prepared and
//     started (Prep/Remap/DMAcfg run under the transfer in flight);
//  3. waits for a started request to complete (waitPipe) only when the
//     pipeline is full or nothing else is queued.
//
// Reaping first keeps a finished request's notification from waiting
// behind the prepare of the next. With one request outstanding step 2
// finds the queues empty (a plain load, no queue operation) and the loop
// degenerates to prepare, start, wait, finish: the serial timeline.
func (d *Device) worker(p *sim.Proc) {
	for {
		d.reap(p)
		d.Area.Staging.Drain(func(idx uint32) { d.toSubmission(p, d.KernMeter, idx) })
		if len(d.pipe) > 0 && (len(d.pipe) == pipeDepth || d.Area.Submission.Empty()) {
			d.waitPipe(p)
			continue
		}
		if found, _ := d.serveNext(p, d.KernMeter, ctxKthread); found {
			continue
		}
		// Queues look empty and no polled transfer is in flight. Linger
		// in polling mode for the idle grace before going to sleep: a
		// steady request stream (e.g. the streaming runtime's refills)
		// keeps being served without a single further syscall.
		if d.linger(p) {
			continue
		}
		// Still idle. Try to hand flushing back to the application;
		// failure means the staging queue refilled under us, so keep
		// draining.
		if !d.Area.Staging.Park() {
			continue
		}
		if d.closed {
			return
		}
		p.WaitCond(d.workSignal)
		d.stats.WorkerWakes++
		if d.closed && d.Area.Staging.Empty() && d.Area.Submission.Empty() {
			return
		}
	}
}

// waitPipe sleeps until a started polled request has completed — any of
// them, not the oldest: a Foreground transfer bypasses the queued
// sub-transfers of an older bulk request at the channel, and its
// notification must not wait out the older train.
func (d *Device) waitPipe(p *sim.Proc) {
	var done [pipeDepth]*sim.Event
	for i, r := range d.pipe {
		done[i] = r.get().last().Done
	}
	p.WaitAnyEvent(done[:len(d.pipe)]...)
}

// reap is the polling half of the pipeline: every started polled request
// whose train has completed pays its poll check and gets Release and
// Notify (finish does nothing for one the recover handler already
// completed). Any finished entry is reaped, not only the oldest: transfers
// of different classes complete out of order. The entry is checked again
// after each yield, and its record recycled once it has left the pipeline.
func (d *Device) reap(p *sim.Proc) {
	for i := 0; i < len(d.pipe); {
		if !d.pipe[i].get().last().Done.Fired() {
			i++
			continue
		}
		d.busy(p, d.KernMeter, stats.PhaseInterface, d.M.Plat.Cost.PollCheck)
		d.finish(p, d.KernMeter, d.pipe[i].get())
		r := d.pipe[i]
		n := i + copy(d.pipe[i:], d.pipe[i+1:])
		d.pipe[n] = infRef{} // a recycled record must not stay reachable from here
		d.pipe = d.pipe[:n]
		d.retire(r.get())
	}
}

// linger polls the queues for the idle grace, checking every few
// microseconds, and reports whether work arrived. The grace adapts to
// the observed request inter-arrival gap (NAPI-style): a steady stream
// slower than the base grace still keeps the worker alive, up to 20x the
// configured grace.
func (d *Device) linger(p *sim.Proc) bool {
	grace := d.idleGrace
	if grace <= 0 || d.closed {
		return false
	}
	if adaptive := 4 * d.gapEWMA; d.opts.AdaptiveLinger && adaptive > grace {
		if max := 20 * grace; adaptive > max {
			adaptive = max
		}
		grace = adaptive
	}
	const pollEvery = 20_000 // 20 µs
	deadline := p.Now() + sim.Time(grace)
	for p.Now() < deadline {
		step := int64(deadline - p.Now())
		if step > pollEvery {
			step = pollEvery
		}
		p.WaitCondTimeout(d.workSignal, step)
		d.busy(p, d.KernMeter, stats.PhaseInterface, d.M.Plat.Cost.PollCheck)
		if !d.Area.Staging.Empty() || !d.Area.Submission.Empty() {
			return true
		}
		if d.closed {
			return false
		}
	}
	return false
}

// toSubmission is the one staging drain step, charging m: the
// application's rbq.Queue.Flush on the submit path (UserMeter) and the
// worker's Drain on every pass (KernMeter) both move each staged index to
// the submission queue through it. An index that fails validation is
// dropped, never trusted; a refused submission enqueue is ignored
// (DESIGN.md §5.4 says why).
func (d *Device) toSubmission(p *sim.Proc, m *sim.Meter, idx uint32) {
	d.busy(p, m, stats.PhaseInterface, 2*d.M.Plat.Cost.QueueOp)
	req, valid := d.Area.Req(idx)
	if !valid {
		return
	}
	req.Status = uapi.StatusSubmitted
	req.Flushed = p.Now()
	d.Area.Submission.Enqueue(idx)
}

// irq is the completion interrupt of a request's last sub-transfer,
// bound once per record (onIRQ) and armed for one generation by
// startTrain: it starts the interrupt handler process.
func (inf *inflight) irq() {
	infRef{inf, inf.irqGen}.get()
	inf.d.M.Eng.Spawn("memif-irq", inf.irqBody)
}

// handleIRQ is the interrupt path. The handler performs Release and
// Notify immediately — possible only because lightweight race detection
// needs no sleeping locks (Section 5.2); it never programs the engine, so
// descriptor backpressure cannot make it sleep — and wakes the kernel
// thread to serve whatever else queued up meanwhile. It holds the record's
// last reference and recycles it.
func (inf *inflight) handleIRQ(p *sim.Proc) {
	d, ref := inf.d, infRef{inf, inf.irqGen}
	inf.irqGen = 0
	cost := &d.M.Plat.Cost
	d.busy(p, d.KernMeter, stats.PhaseInterface, cost.IRQEntry)
	// Nothing to release if the recover handler took the request over
	// mid-flight (finish checks).
	d.finish(p, d.KernMeter, ref.get())
	// Wake the kernel thread: it takes charge of all queued requests
	// from here with no userspace involvement.
	d.busy(p, d.KernMeter, stats.PhaseInterface, cost.KthreadWake)
	d.workSignal.Signal()
	d.retire(ref.get())
}
