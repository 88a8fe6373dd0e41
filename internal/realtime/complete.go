package realtime

import (
	"context"
	"errors"
	"time"

	"memif/internal/obs/lifecycle"
)

// finish completes r exactly once: it resolves the terminal state,
// stamps the completion time, posts the completion (Release) and wakes
// a poller (Notify). forced supplies the outcome for requests failing
// off-protocol (the slab-exhaustion path) — but a cancel or deadline
// that already claimed the request wins over it, because Cancel's
// contract ("will complete with ErrCanceled") must hold no matter which
// path posts the completion.
func (d *Device) finish(r *Request, forced error) {
	old := r.state.Swap(stDone) & stateMask
	if old == stDone {
		// Completion already fired. This must never happen; count it
		// (the chaos suite asserts zero) and bail out rather than
		// posting the index to the completion queue twice.
		d.m.doubleCompletes.Inc()
		return
	}
	err := forced
	switch old {
	case stCanceled:
		err = ErrCanceled
	case stExpired:
		err = ErrDeadline
	}
	r.Err = err
	now := nanotime()
	r.completed.Store(now)
	ts := d.tenantOf(r)
	if s := r.submitted.Load(); s > 0 {
		lat := now - s
		d.m.classLatency[r.Class].Observe(lat) // Stats sums the classes
		ts.latency.Observe(lat)
		d.observeLatEWMA(lat)
	}
	switch {
	case err == nil:
	case errors.Is(err, ErrCanceled):
		d.m.canceled.Inc()
		ts.canceled.Inc()
	case errors.Is(err, ErrDeadline):
		d.m.expired.Inc()
	case errors.Is(err, ErrOverload):
		d.m.overloaded.Inc()
	default:
		d.m.failed.Inc()
	}
	d.m.completed.Inc()
	d.m.classCompleted[r.Class].Inc()
	ts.completed.Inc()
	if d.chaos != nil && d.chaos.OnFinish != nil {
		d.chaos.OnFinish(r.idx, err)
	}
	d.completions.push(r.idx)
	d.m.completionHW.Observe(d.completions.size())
	d.wake()
}

// wake posts the (single-token) completion edge for parked Polls.
func (d *Device) wake() {
	select {
	case d.notify <- struct{}{}:
	default:
	}
}

// RetrieveCompleted pops one completion notification without blocking;
// nil when none is pending: RetrieveCompletedBatch of one.
func (d *Device) RetrieveCompleted() *Request {
	var one [1]*Request
	if d.RetrieveCompletedBatch(one[:]) == 0 {
		return nil
	}
	return one[0]
}

// RetrieveCompletedBatch fills buf with completed requests without
// blocking and returns how many it retrieved (0 when none are pending).
// One call replaces up to len(buf) Poll/RetrieveCompleted round trips
// on the completion path.
func (d *Device) RetrieveCompletedBatch(buf []*Request) int {
	n := 0
	// One clock read and one accumulator flush serve the whole batch's
	// flight accounting: the retrieve timestamp is read at the first
	// completion (an empty call costs nothing) and every request's lane
	// and SLO arithmetic folds locally until Flush. Batch-level
	// staleness only shifts breach latencies by microseconds; a sampled
	// request reads a fresh clock inside lcEnd.
	var acc lifecycle.Acc
	acc.Init(d.rec)
	var nano int64
	for n < len(buf) {
		idx, ok := d.completions.tryPop()
		if !ok {
			break
		}
		if r, valid := d.req(idx); valid {
			d.m.retrieved.Inc()
			if nano == 0 && d.stampAll {
				nano = nanotime()
			}
			d.lcEnd(r, nano, &acc)
			buf[n] = r
			n++
		}
	}
	acc.Flush()
	if n > 0 && !d.completions.empty() {
		d.wake() // keep concurrent pollers from sleeping past the rest
	}
	return n
}

// lcOutcome classifies a retrieved request's error for the lifecycle
// and the outlier record.
func lcOutcome(err error) lifecycle.Outcome {
	switch {
	case err == nil:
		return lifecycle.OutcomeOK
	case errors.Is(err, ErrCanceled):
		return lifecycle.OutcomeCanceled
	case errors.Is(err, ErrDeadline):
		return lifecycle.OutcomeExpired
	default:
		return lifecycle.OutcomeFailed
	}
}

// stamps assembles r's seven-stage vector and path flags from its stamp
// fields, on the retrieval path, ending at retrieved (no earlier than
// its completed stamp). A field below the submitted stamp was last
// written for the slot's previous occupant: this request never reached
// that stage (it failed at the flush, or was canceled before any chunk
// ran) and the stage stays 0. A stage that was reached is clamped up to
// the stage before it, because an amortized clock can lag a fresher
// upstream stamp by microseconds. An inline request's copy began at its
// dispatch stamp — the worker copied right there and wrote no
// copy-start of its own. CopyEnd has no field: the finisher's one clock
// read is both the end of the last chunk and the completion.
func (r *Request) stamps(retrieved int64) (ts [lifecycle.NumStages]int64, flags uint32) {
	sub := r.submitted.Load()
	last := sub
	at := func(v int64) int64 {
		if v < sub {
			return 0
		}
		if v < last {
			v = last
		}
		last = v
		return v
	}
	fl := at(r.flushedNs)
	disp := at(r.dispatchedNs)
	cs := r.copyStartNs.Load()
	if disp != 0 && r.inlined {
		cs, flags = disp, lifecycle.FlagInline
	}
	cs = at(cs)
	comp := at(r.completed.Load())
	var ce int64
	if cs != 0 {
		ce = comp
	}
	return lifecycle.Stamps(sub, fl, disp, cs, ce, comp, retrieved), flags
}

// lcEnd closes r's lifecycle on the retrieval path: it hands the
// request's identity and latency to the recorder through the caller's
// batch accumulator. With the outlier half armed that happens for every
// retrieved request, so capture has no sampling holes; without it, only
// for sampled ones. The recorder asks for the stamp vector (stamps,
// through the probe Open gives it) only for a record it keeps.
//
// nano is the caller's batch-amortized retrieve timestamp (0 = read the
// clock here); a sampled request reads a fresh one regardless. The
// shared clock can predate a completion that landed while the batch was
// being drained, hence the clamp.
func (d *Device) lcEnd(r *Request, nano int64, acc *lifecycle.Acc) {
	sub := r.submitted.Load()
	if sub == 0 {
		// Shed before staging (admission or slot exhaustion): there is
		// no pipeline latency to attribute, nano-sub would read as an
		// epoch-sized breach, and r.sampled is a previous occupant's.
		return
	}
	if !r.sampled && !d.stampAll {
		return
	}
	if r.sampled || nano == 0 {
		nano = nanotime()
	}
	if comp := r.completed.Load(); nano < comp {
		nano = comp
	}
	// Field by field: a composite literal is built in a temporary and
	// copied, which costs more than everything else here.
	var lc lifecycle.Lifecycle
	lc.Nano, lc.LatencyNs = nano, nano-sub
	lc.Slot, lc.Class, lc.Tenant = int(r.idx), int(r.Class), int(r.tenant.Load())
	lc.Bytes = int64(len(r.Src))
	if r.Err != nil {
		lc.Outcome = lcOutcome(r.Err)
	}
	d.rec.Finish(acc, &lc, r.sampled)
}

// ready reports whether a completion is pending, re-arming the notify
// token when it is so concurrent pollers can't be starved by the single
// buffered edge.
func (d *Device) ready() bool {
	if d.completions.empty() {
		return false
	}
	d.wake()
	return true
}

// pollSpinBudget bounds the spin-before-sleep micro-wait in
// Poll/PollContext: enough yields that a completion landing within a
// few microseconds is caught without a timer or channel round trip,
// few enough (and all below backoff's sleep threshold) that a poller
// headed for a real wait gets there quickly.
const pollSpinBudget = 128

// spinWait is the poll-side micro-wait: spin through the shared
// backoff discipline watching for a completion, true when one arrived
// within the budget.
//
// Spinning only pays when a completer can make progress while this
// poller burns cycles: on GOMAXPROCS > 1 the worker/controllers run
// on other Ps. On a single-P device the yields are pure overhead — each
// backoff pass is a real context switch that delays the controllers
// the poller is waiting on (measured: ~3× overload throughput loss at
// GOMAXPROCS=1) — so there the poller goes straight to its timed
// sleep, which is itself the yield that lets copies proceed.
func (d *Device) spinWait() bool {
	if !d.completions.empty() {
		return true
	}
	if !d.pollSpin {
		return false
	}
	for attempt := 0; attempt < pollSpinBudget; attempt++ {
		if d.closed.Load() {
			return !d.completions.empty()
		}
		backoff(attempt)
		if !d.completions.empty() {
			d.m.pollerSpins.Inc()
			return true
		}
	}
	return false
}

// Poll blocks until a completion notification is pending or the timeout
// expires (timeout <= 0 waits forever). It reports whether a
// notification is available. Any number of goroutines may Poll the same
// device: a retired wakeup is re-armed whenever completions remain, so
// no poller sleeps past a retrievable completion. A bounded micro-wait
// runs before any blocking, so a completion landing within ~1 µs costs
// no timer or notify round trip.
func (d *Device) Poll(timeout time.Duration) bool { return d.wait(timeout, nil) }

// PollContext blocks until a completion notification is pending or ctx
// is done, whichever comes first, and reports whether a notification is
// available — poll(2) with a context instead of a hand-rolled timeout
// loop: the same wait as Poll, bounded by ctx.Done() instead of a timer.
// Like Poll, any number of goroutines may PollContext the same device
// concurrently.
func (d *Device) PollContext(ctx context.Context) bool { return d.wait(0, ctx.Done()) }

// wait is the one blocking wait behind Poll and PollContext: the
// micro-wait, then park on the notify edge until a completion is
// pending, the device closes, timeout (when positive) expires or cancel
// (when non-nil) fires; a nil expired or cancel is a case that never
// fires.
//
// The deadline is computed lazily — a wait that finds a completion
// pending (the common case on a loaded device) costs no clock read at
// all. One timer then serves every retry of the loop: each Reset below
// runs only after the timer was stopped and its channel drained, the
// precondition Timer.Reset documents. (A per-iteration NewTimer
// allocated on every spurious wakeup — measurable garbage on a device
// with thousands of Polls per second.)
func (d *Device) wait(timeout time.Duration, cancel <-chan struct{}) bool {
	if d.spinWait() {
		d.wake()
		return true
	}
	var deadline time.Time
	var timer *time.Timer
	var expired <-chan time.Time
	defer func() {
		if timer != nil {
			timer.Stop()
		}
	}()
	for d.completions.empty() {
		if d.closed.Load() {
			return d.ready()
		}
		select {
		case <-cancel: // already done: report without counting a park
			return d.ready()
		default:
		}
		if timeout > 0 {
			if deadline.IsZero() {
				deadline = time.Now().Add(timeout)
			}
			remain := time.Until(deadline)
			if remain <= 0 {
				return d.ready()
			}
			if timer == nil {
				timer = time.NewTimer(remain)
				expired = timer.C
			} else {
				timer.Reset(remain)
			}
		}
		d.m.pollerParks.Inc()
		select {
		case <-d.notify:
			if timer != nil && !timer.Stop() {
				<-timer.C
			}
		case <-d.done:
			return d.ready()
		case <-cancel:
			return d.ready()
		case <-expired:
			return d.ready()
		}
	}
	d.wake()
	return true
}
