package core

import (
	"errors"
	"fmt"

	"memif/internal/machine"
	"memif/internal/rbq"
	"memif/internal/sim"
	"memif/internal/stats"
	"memif/internal/uapi"
	"memif/internal/vm"
)

// Errors returned by the user-library entry points.
var (
	ErrClosed    = errors.New("memif: device closed")
	ErrNoSlots   = errors.New("memif: no free mov_req slots")
	ErrQueueFull = errors.New("memif: interface queues full")
	ErrBadState  = errors.New("memif: request not in a submittable state")
)

// Device is one opened memif instance: the equivalent of the device file
// plus the mmap'ed shared area plus the in-kernel per-instance state.
type Device struct {
	M    *machine.Machine
	AS   *vm.AddressSpace
	Area *uapi.Area
	opts Options
	// maxChain (maxChainPages within the PaRAM slots) and idleGrace
	// (workerIdleGraceNS; 0 disables lingering) are set by Open.
	maxChain  int
	idleGrace int64

	// UserMeter accumulates CPU time spent in application context on
	// interface work: library calls and the MOV_ONE syscall path.
	UserMeter *sim.Meter
	// KernMeter accumulates CPU time of the kernel contexts: the worker
	// thread and interrupt handlers.
	KernMeter *sim.Meter
	// Breakdown charges every driver operation to its Table 1 phase.
	Breakdown *stats.Breakdown

	workSignal *sim.Cond // wakes the kernel worker
	notifySig  *sim.Cond // wakes poll()ers on any completion

	// Arrival tracking for the worker's adaptive linger: an EWMA of the
	// gap between served requests, so steady-but-slow streams (e.g. a
	// compute-bound consumer refilling prefetch buffers) keep the
	// worker alive instead of paying a kick-start syscall per request.
	lastArrival sim.Time
	gapEWMA     int64

	// pipe holds the polled requests the worker has started and not yet
	// reaped, oldest first; at most pipeDepth (worker.go).
	pipe []infRef

	// recoverMap resolves a faulting PTE slot back to its in-flight
	// migration (RaceRecover mode).
	recoverMap map[*slotKey]infRef

	// free holds recycled inflight records for take (driver.go).
	free []*inflight

	// subStarted, when a test sets it, observes every sub-transfer the
	// moment startTrain has put it on the channel.
	subStarted func(inf *inflight)

	// preparing is set while the worker serves a request it dequeued,
	// up to startTrain's return: half of the signal that lets a blocked
	// poller serve the next one (Poll).
	preparing bool

	closed bool
	stats  Stats
}

// slotKey aliases the PTE slot pointer type for map keys without
// importing pagetable here (kept in driver.go).
type slotKey = slotKeyImpl

// Open creates a memif instance for the process owning as and starts its
// kernel worker thread. It is the MemifOpen of the user API.
func Open(m *machine.Machine, as *vm.AddressSpace, opts Options) *Device {
	if opts.NumReqs <= 0 {
		panic("core: Options.NumReqs must be positive (start from DefaultOptions)")
	}
	if m.Plat.DMA.ParamSlots < 1 {
		panic(fmt.Sprintf("core: platform %q has no DMA descriptor slots: memif needs a DMA engine", m.Plat.Name))
	}
	d := &Device{
		M:          m,
		AS:         as,
		Area:       uapi.NewArea(opts.NumReqs),
		opts:       opts,
		maxChain:   min(maxChainPages, m.Plat.DMA.ParamSlots),
		idleGrace:  workerIdleGraceNS,
		UserMeter:  sim.NewMeter("memif-user"),
		KernMeter:  sim.NewMeter("memif-kernel"),
		Breakdown:  stats.NewBreakdown(),
		workSignal: sim.NewCond(m.Eng),
		notifySig:  sim.NewCond(m.Eng),
		recoverMap: make(map[*slotKey]infRef),
	}
	if opts.RaceMode == RaceRecover {
		as.SetFaultHandler(d.handleRecoverFault)
	}
	m.Eng.Spawn("memif-worker", d.worker)
	return d
}

// Close shuts the device down. Outstanding requests are still completed
// by the kernel contexts; the worker exits once idle.
func (d *Device) Close() { d.closed = true; d.workSignal.Broadcast() }

// Stats returns a snapshot of the device counters.
func (d *Device) Stats() Stats { return d.stats }

// AllocRequest takes a mov_req slot off the shared free list
// (AllocRequest of the user API). Returns nil when all slots are in use.
func (d *Device) AllocRequest(p *sim.Proc) *uapi.MovReq {
	d.busy(p, d.UserMeter, stats.PhaseInterface, d.M.Plat.Cost.QueueOp)
	return d.Area.AllocReq()
}

// FreeRequest returns a completed (or never-submitted) slot to the free
// list.
func (d *Device) FreeRequest(p *sim.Proc, r *uapi.MovReq) {
	d.busy(p, d.UserMeter, stats.PhaseInterface, d.M.Plat.Cost.QueueOp)
	d.Area.FreeReq(r)
}

// stage validates r and deposits it in the staging queue, returning the
// queue color the enqueue observed. Blue means the caller is responsible
// for flushing the staging queue.
func (d *Device) stage(p *sim.Proc, r *uapi.MovReq) (rbq.Color, error) {
	if d.closed {
		return rbq.Red, ErrClosed
	}
	switch r.Status {
	case uapi.StatusFree, uapi.StatusDone, uapi.StatusFailed:
	default:
		return rbq.Red, fmt.Errorf("%w: %v", ErrBadState, r)
	}
	r.Status = uapi.StatusStaged
	r.Err = uapi.ErrNone
	r.Submitted = p.Now()
	d.stats.Submitted++
	d.stats.BytesRequested += r.Length

	d.busy(p, d.UserMeter, stats.PhaseInterface, d.M.Plat.Cost.QueueOp)
	color, ok := d.Area.Staging.Enqueue(r.Index())
	if !ok {
		return rbq.Red, ErrQueueFull
	}
	return color, nil
}

// Submit implements SubmitRequest (Section 4.4): deposit the request in
// the staging queue; if the enqueue observed blue, flush the staging
// queue into the submission queue, recolor it red, and — if this thread
// won the recoloring — issue the MOV_ONE kick-start syscall. Non-blocking
// aside from the bounded syscall work. It is SubmitBatch of one request.
//
// Ordering: requests are dequeued in submission order, but one is
// prepared while earlier ones are still in flight, whatever their size —
// behind an interrupt-completed transfer or behind the worker's polled
// pipeline. Requests that touch the same pages are therefore not
// serialised by the device. A migration of pages
// that an unfinished migration still holds fails with ErrBusy (resubmit
// it after retrieving the first); a replication is not ordered against a
// migration of its source or destination that has not been notified yet
// and may copy the bytes of either side of the move. Wait for a request's
// notification before submitting one that depends on it.
func (d *Device) Submit(p *sim.Proc, r *uapi.MovReq) error {
	one := [1]*uapi.MovReq{r}
	return d.SubmitBatch(p, one[:])
}

// SubmitBatch submits a scatter/gather batch: every request is staged
// first, then the staging queue is flushed, recolored and kicked once
// for the whole batch — one syscall-equivalent per batch instead of per
// request, the same amortization the realtime device's SubmitBatch
// performs. A staging failure part-way leaves the already-staged prefix
// live (an active worker or the final flush still serves it) and
// returns the error for the rest; requests past the failure are
// untouched and remain submittable.
func (d *Device) SubmitBatch(p *sim.Proc, reqs []*uapi.MovReq) error {
	sawBlue := false
	var stageErr error
	for _, r := range reqs {
		color, err := d.stage(p, r)
		if err != nil {
			stageErr = err
			break
		}
		sawBlue = sawBlue || color == rbq.Blue
	}
	// An enqueue that observed red needs nothing more: an active kernel
	// worker will pick the request up. Otherwise flush (operations 2–3 of
	// the Section 4.4 protocol), and whoever turned the queue red issues
	// the MOV_ONE kick-start syscall.
	if sawBlue && d.Area.Staging.Flush(func(idx uint32) { d.toSubmission(p, d.UserMeter, idx) }) {
		d.ioctlMovOne(p)
	}
	return stageErr
}

// ioctlMovOne is the single syscall of the interface: enter the kernel,
// serve one queued request (operations 1–3 of Table 1), start its DMA,
// and return to userspace. Normally the transfer's completion interrupt
// hands control to the kernel worker; if no transfer started (the request
// failed validation, e.g. EAGAIN on a migration claim), the syscall wakes
// the worker directly so queued requests are never stranded behind a red
// staging queue.
func (d *Device) ioctlMovOne(p *sim.Proc) {
	cost := &d.M.Plat.Cost
	d.stats.Syscalls++
	d.busy(p, d.UserMeter, stats.PhaseInterface, cost.SyscallEnter)
	_, started := d.serveNext(p, d.UserMeter, ctxSyscall)
	if !started {
		d.busy(p, d.UserMeter, stats.PhaseInterface, cost.KthreadWake)
		d.workSignal.Signal()
	}
	d.busy(p, d.UserMeter, stats.PhaseInterface, cost.SyscallExit)
}

// pollServe serves the head of the submission queue from inside the
// poll(2) the caller is already making: operations 1–3 in syscall
// context, on the caller's CPU, with the request's completion armed on
// the interrupt. It is no MOV_ONE kick, so Syscalls does not count it;
// the syscall entry and exit it pays are interface time. The worker may
// take the head during the entry, so the queue can be empty by the
// dequeue. The worker is active, so nothing needs waking if the request
// completes inline.
func (d *Device) pollServe(p *sim.Proc) {
	cost := &d.M.Plat.Cost
	d.busy(p, d.UserMeter, stats.PhaseInterface, cost.SyscallEnter)
	if found, _ := d.serveNext(p, d.UserMeter, ctxSyscall); found {
		d.stats.PollServes++
	}
	d.busy(p, d.UserMeter, stats.PhaseInterface, cost.SyscallExit)
}

// RetrieveCompleted pops one completion notification, successful moves
// first, then failures. Returns nil when none is pending (never blocks).
func (d *Device) RetrieveCompleted(p *sim.Proc) *uapi.MovReq {
	d.busy(p, d.UserMeter, stats.PhaseInterface, d.M.Plat.Cost.QueueOp)
	idx, ok := d.Area.CompOK.Dequeue()
	if !ok {
		idx, ok = d.Area.CompFail.Dequeue()
	}
	if !ok {
		return nil
	}
	r, valid := d.Area.Req(idx)
	if !valid {
		return nil
	}
	r.Retrieved = p.Now()
	return r
}

// Poll blocks the calling process until a completion notification is
// pending, like poll(2) on the memif device file. A non-positive timeout
// means wait forever. It reports whether a notification is available.
//
// A caller about to block without a deadline first lends the driver its
// CPU, the way Linux's SO_BUSY_POLL runs the driver in the thread that
// would sleep in poll(2): while the worker is the bottleneck — it is
// preparing a request, another waits in the submission queue and the
// channel is idle — the caller serves that next request itself, in
// syscall context, and it completes by interrupt (DESIGN.md §5.4). A
// timed poll never serves: the ~100 µs of Prep, Remap and DMAcfg would
// overrun its deadline.
func (d *Device) Poll(p *sim.Proc, timeoutNS int64) bool {
	deadline := sim.Infinity
	if timeoutNS > 0 {
		deadline = p.Now() + sim.Time(timeoutNS)
	}
	for d.Area.CompOK.Empty() && d.Area.CompFail.Empty() {
		if d.closed {
			return false
		}
		if deadline == sim.Infinity {
			if d.preparing && !d.Area.Submission.Empty() && d.M.DMA.Idle() {
				d.pollServe(p)
			} else {
				p.WaitCond(d.notifySig)
			}
			continue
		}
		remain := int64(deadline - p.Now())
		if remain <= 0 || !p.WaitCondTimeout(d.notifySig, remain) {
			return !d.Area.CompOK.Empty() || !d.Area.CompFail.Empty()
		}
	}
	return true
}
