package realtime

import (
	"fmt"
	"runtime"
	"time"

	"memif/internal/qos"
	"memif/internal/rbq"
)

// req validates an index off a queue.
func (d *Device) req(idx uint32) (*Request, bool) {
	if int(idx) >= len(d.reqs) {
		return nil, false
	}
	return d.reqs[idx], true
}

// AllocRequest takes a request slot off the free list; nil when
// exhausted.
func (d *Device) AllocRequest() *Request {
	idx, _, ok := d.freeList.Dequeue()
	if !ok {
		return nil
	}
	r := d.reqs[idx]
	r.Src, r.Dst, r.Cookie, r.Err = nil, nil, 0, nil
	r.Class = qos.Foreground
	r.Deadline = time.Time{}
	r.tenant.Store(0)
	r.state.Store(stIdle)
	r.submitted.Store(0)
	r.completed.Store(0)
	return r
}

// FreeRequest returns a slot to the free list, retrying until the
// enqueue succeeds: losing the index would leak the slot forever, and
// progress is guaranteed because AllocRequest frees a node per dequeue.
func (d *Device) FreeRequest(r *Request) {
	for attempt := 0; ; attempt++ {
		if _, ok := d.freeList.Enqueue(r.idx); ok {
			return
		}
		d.m.enqueueRetries.Inc()
		backoff(attempt)
	}
}

// shard picks the submitting goroutine's staging queue.
func (d *Device) shard() *rbq.Queue { return d.staging[d.shardOf.lane()] }

// stage marks r pending and enqueues it on sh, returning the color
// observed atomically with the enqueue. ok is false on slab exhaustion
// (or a forced chaos failure), with r left stPending for the caller to
// resolve. It also takes the submitted stamp and makes the request's
// sampling decision, slot-locally: both are published to every later
// stamping site by the staging enqueue.
func (d *Device) stage(sh *rbq.Queue, r *Request) (rbq.Color, bool) {
	r.submitted.Store(time.Now().UnixNano())
	r.stageSeq++
	r.sampled = d.lc.Sample(r.stageSeq)
	r.state.Store(r.word(stPending))
	if d.chaos != nil && d.chaos.StagingEnqueue != nil && d.chaos.StagingEnqueue(r.idx) {
		return 0, false // forced slab exhaustion
	}
	// Once enqueued the slot is the pipeline's: it can complete, be freed
	// and be resubmitted by another tenant before this call returns, so
	// whatever is accounted after the enqueue is read before it.
	class, ts, size := r.Class, d.tenantOf(r), int64(len(r.Src))
	color, ok := sh.Enqueue(r.idx)
	if !ok {
		return 0, false
	}
	d.accept(class, ts)
	d.m.sizes.Observe(size)
	return color, true
}

// accept does the accepted-submission accounting: the global, per-class
// and per-tenant submitted counters, each paired with the completed
// counter finish bumps — the in-flight occupancies admission and Stats
// read are the differences. Every path that will eventually reach
// finish must come through here exactly once, with the class and tenant
// read while the caller still owns the request.
func (d *Device) accept(class qos.Class, ts *tenantState) {
	d.m.submitted.Inc()
	d.m.classSubmitted[class].Inc()
	ts.submitted.Inc()
}

// unstage resolves a failed staging enqueue: return r to idle, unless a
// concurrent Cancel claimed the request inside the submission window
// and promised the caller an ErrCanceled completion — then honor it
// rather than silently un-submitting (the cancel-vs-failed-submit race
// the chaos suite pins). Reports whether a completion was posted.
func (d *Device) unstage(r *Request) bool {
	if !r.state.CompareAndSwap(r.word(stPending), stIdle) {
		d.accept(r.Class, d.tenantOf(r))
		d.finish(r, nil)
		return true
	}
	// The request never entered the pipeline: the caller gets the error
	// back and keeps the slot, so a sampled lifecycle ends here.
	if r.sampled {
		d.lc.Drop()
	}
	return false
}

// flushRetries bounds the transient-slab-exhaustion retry loop in the
// staging→submission flush. Exhaustion there is always transient — every
// request index occupies at most one queue node, and the slab carries
// slack beyond NumReqs — so a handful of yields is enough unless the
// slab is being starved externally.
const flushRetries = 64

// toSubmission is the one staging drain step, shared by the submitter's
// flush and the worker's round-robin sweep: move a staged index onto its
// submission queue, or — the retry budget spent — complete it with
// ErrNoSlots. The slot must not vanish, so the owner gets it back
// through the normal completion path.
func (d *Device) toSubmission(idx uint32, nano int64) {
	if !d.enqueueSubmission(idx, nano) {
		if r, valid := d.req(idx); valid {
			d.finish(r, ErrNoSlots)
		}
	}
}

// enqueueSubmission moves one request index onto its class's submission
// queue, retrying briefly across transient slab exhaustion. false means
// the retry budget ran out and the caller must fail the request rather
// than drop it. nano is the caller's flush-pass clock for the flushed
// stamp (0 with the flight recorder disarmed): flush loops read the
// clock once per pass instead of once per request, and only a sampled
// request reads its own.
func (d *Device) enqueueSubmission(idx uint32, nano int64) bool {
	class := qos.Foreground
	var ts *tenantState
	r, valid := d.req(idx)
	if valid {
		class = r.Class
		ts = d.tenantOf(r)
		if r.sampled {
			nano = time.Now().UnixNano()
		}
		if nano != 0 {
			// Plain field: written before the enqueue publishes idx, so
			// the retrieval-side reader is ordered behind it.
			r.flushedNs = max(nano, r.submitted.Load())
		}
	}
	q := d.submission[class]
	for attempt := 0; ; attempt++ {
		forced := d.chaos != nil && d.chaos.FlushEnqueue != nil && d.chaos.FlushEnqueue(idx)
		if !forced {
			if _, ok := q.Enqueue(idx); ok {
				if ts != nil {
					ts.queued.Add(1) // popSubmission decrements at dispatch
				}
				d.m.submissionHW.Observe(d.submissionDepth())
				return true
			}
		}
		if attempt >= flushRetries {
			if valid {
				r.flushedNs = 0 // never flushed: the caller fails it from here
			}
			return false
		}
		d.m.enqueueRetries.Inc()
		runtime.Gosched()
	}
}

// submissionDepth sums the per-class submission queue depths.
func (d *Device) submissionDepth() int64 {
	var n int64
	for _, q := range d.submission {
		n += int64(q.Size())
	}
	return n
}

// flushShard runs the blue side of the Section 4.4 protocol on one
// shard (rbq.Queue.Flush) and kicks the worker if this flush turned the
// shard red.
func (d *Device) flushShard(sh *rbq.Queue) {
	// One clock read covers the flushed stamp of every unsampled request
	// in this drain.
	var flushNano int64
	if d.fr != nil {
		flushNano = time.Now().UnixNano()
	}
	if !sh.Flush(func(idx uint32) { d.toSubmission(idx, flushNano) }) {
		return
	}
	// The kick-start "syscall".
	d.m.kicks.Inc()
	select {
	case d.kick <- struct{}{}:
	default: // worker already has a pending kick
	}
}

// Submit queues an asynchronous copy of r.Src into r.Dst, implementing
// the Section 4.4 protocol on the submitter's staging shard. It never
// blocks beyond the bounded flush. The request is submitted under the
// device's default tenant namespace; use Tenant.Submit for tenant
// quotas, weights and attribution.
func (d *Device) Submit(r *Request) error {
	r.tenant.Store(0)
	return d.submit(r)
}

// submit is the tenant-agnostic Submit body: r.tenant is already
// stamped by the caller-facing wrapper.
func (d *Device) submit(r *Request) error {
	// Submitter gate: the increment precedes the closing check, so
	// Close's active-wait cannot complete while this call is between
	// the check and its staging enqueue.
	d.active.Add(1)
	defer d.active.Add(-1)
	if d.closing.Load() || d.closed.Load() {
		return ErrClosed
	}
	if len(r.Src) != len(r.Dst) {
		return fmt.Errorf("%w: %d vs %d", ErrBadSizes, len(r.Src), len(r.Dst))
	}
	if err := d.admit(r); err != nil {
		return err
	}
	sh := d.shard()
	color, ok := d.stage(sh, r)
	if !ok {
		if d.unstage(r) {
			return nil
		}
		return ErrNoSlots
	}
	if color == rbq.Blue {
		d.flushShard(sh)
	}
	return nil
}

// SubmitBatch queues every request in reqs as one protocol round: all
// of them are staged on the submitter's shard, and the flush / recolor
// / kick sequence runs at most once for the whole batch — one color
// observation and at most one syscall-equivalent, the Figure 7
// amortization — while each request still gets its own completion.
//
// The whole batch is validated before anything is staged, against the
// same checks Submit makes: a size mismatch rejects the batch with
// ErrBadSizes, an undefined Class with ErrBadClass, and no request is
// submitted or counted. After validation every request is accepted:
// one that cannot be staged (slab exhaustion) surfaces through the
// completion queue with ErrNoSlots rather than as a return value, and
// one the admission controller sheds surfaces the same way with an
// *OverloadError (errors.Is ErrOverload) — so a batch caller always
// collects exactly len(reqs) completions — none stranded, none to
// special-case. A concurrent Cancel that claims a request in the window
// keeps its ErrCanceled promise.
func (d *Device) SubmitBatch(reqs []*Request) error {
	for _, r := range reqs {
		r.tenant.Store(0)
	}
	return d.submitBatch(reqs)
}

// submitBatch is the tenant-agnostic SubmitBatch body: every request's
// tenant is already stamped by the caller-facing wrapper.
func (d *Device) submitBatch(reqs []*Request) error {
	if len(reqs) == 0 {
		return nil
	}
	// Submitter gate, as in Submit: the increment precedes the closing
	// check so Close cannot complete while the batch is mid-staging.
	d.active.Add(1)
	defer d.active.Add(-1)
	if d.closing.Load() || d.closed.Load() {
		return ErrClosed
	}
	for i, r := range reqs {
		if len(r.Src) != len(r.Dst) {
			return fmt.Errorf("%w: request %d: %d vs %d", ErrBadSizes, i, len(r.Src), len(r.Dst))
		}
		if !r.Class.Valid() {
			return fmt.Errorf("%w: request %d: %d", ErrBadClass, i, uint8(r.Class))
		}
	}
	sh := d.shard()
	mustFlush := false
	for _, r := range reqs {
		if err := d.admit(r); err != nil {
			// Shed by admission mid-batch. The batch contract promises a
			// completion per request, so the rejection surfaces through
			// the completion queue instead of failing the whole batch.
			r.submitted.Store(0) // no pipeline latency to attribute
			r.state.Store(r.word(stPending))
			d.accept(r.Class, d.tenantOf(r))
			d.finish(r, err)
			continue
		}
		color, ok := d.stage(sh, r)
		if !ok {
			// Staging failed mid-batch. The request was accepted, so it
			// must surface as a completion: ErrNoSlots, or ErrCanceled
			// if a cancel already claimed it (finish resolves that).
			d.accept(r.Class, d.tenantOf(r))
			d.finish(r, ErrNoSlots)
			continue
		}
		if color == rbq.Blue {
			mustFlush = true
		}
	}
	d.m.batches.Inc()
	if mustFlush {
		// At least one enqueue observed blue: this batch owns the flush.
		// Running it once at the end drains everything staged above (and
		// anything a neighbor staged meanwhile) with a single recolor
		// and at most a single kick.
		d.flushShard(sh)
	}
	return nil
}

// Cancel attempts to cancel a submitted request. It reports whether the
// cancel won: true means the request will complete with ErrCanceled and
// no further bytes will be copied (chunks already moved leave Dst
// partially written). false means the request had already completed —
// or was never pending — and its result stands.
func (d *Device) Cancel(r *Request) bool {
	// One tenant load builds both sides of the CAS: the claim can only
	// succeed against the pending word of that same owner, so the
	// written canceled word always carries a consistent tenant id.
	ten := r.tenant.Load()
	return r.state.CompareAndSwap(packState(ten, stPending), packState(ten, stCanceled))
}
