package realtime

import (
	"fmt"
	"time"

	"memif/internal/qos"
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
	idx, ok := d.freeList.tryPop()
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

// FreeRequest returns a slot to the free list. It cannot fail: the
// list is a ring with room for every slot.
func (d *Device) FreeRequest(r *Request) { d.freeList.push(r.idx) }

// stage marks r pending and stages it (rbq.Queue.Stage), reporting
// whether this enqueue turned the staging queue red and so owes the
// worker a kick. ok is false on slab exhaustion (or a forced chaos
// failure), with r left stPending for the caller to resolve. It also
// takes the submitted stamp and makes the request's sampling decision,
// slot-locally: both are published to every later stamping site by the
// staging enqueue.
func (d *Device) stage(r *Request) (kick, ok bool) {
	r.submitted.Store(nanotime())
	r.stageSeq++
	r.sampled = d.rec.Sample(r.stageSeq)
	r.state.Store(r.word(stPending))
	if d.chaos != nil && d.chaos.StagingEnqueue != nil && d.chaos.StagingEnqueue(r.idx) {
		return false, false // forced slab exhaustion
	}
	// Once enqueued the slot is the pipeline's: it can complete, be freed
	// and be resubmitted by another tenant before this call returns, so
	// whatever is accounted after the enqueue is read before it.
	class, ts, size := r.Class, d.tenantOf(r), int64(len(r.Src))
	if kick, ok = d.staging.Stage(r.idx); !ok {
		return false, false
	}
	d.accept(class, ts)
	d.m.sizes.Observe(size)
	return kick, true
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
		d.rec.Drop()
	}
	return false
}

// flushed does what r owes on leaving staging, in the worker's drain:
// the flushed stamp (a sampled request reads its own clock) and the
// backlog count. Both happen before idx enters a bucket — the stamp is a
// plain field the retrieval side reads behind later handoffs, and the
// count is bumped before the worker's own decrement at dispatch
// (popSubmission), so the backlog never reads below zero.
func (d *Device) flushed(r *Request, nano int64) {
	if r.sampled {
		nano = nanotime()
	}
	if nano != 0 {
		r.flushedNs = max(nano, r.submitted.Load())
	}
	d.tenantOf(r).queued.Add(1)
}

// backlog counts the requests the worker took off staging but has not
// yet dispatched, in the scheduler's buckets: the sum of the tenants'
// queued counters (Stats sums its own tenant snapshot). It walks the
// tenant table, so only the monitor tick and outlier capture read it.
func (d *Device) backlog() int64 {
	var n int64
	for _, ts := range *d.tenants.Load() {
		n += ts.queued.Load()
	}
	return n
}

// kickWorker is the kick-start "syscall", owed by the submitter whose
// stage turned the staging queue red.
func (d *Device) kickWorker() {
	d.m.kicks.Inc()
	select {
	case d.kick <- struct{}{}:
	default: // worker already has a pending kick
	}
}

// Submit queues an asynchronous copy of r.Src into r.Dst: it stages r
// and kicks the worker if its stage turned the staging queue red (the
// submitter's half of the Section 4.4 protocol; the worker drains
// staging alone). It never blocks. The request is submitted under the
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
	kick, ok := d.stage(r)
	if !ok {
		if d.unstage(r) {
			return nil
		}
		return ErrNoSlots
	}
	if kick {
		d.kickWorker()
	}
	return nil
}

// SubmitBatch queues every request in reqs as one protocol round: all
// of them are staged, and the kick is made at most once, after the last
// — at most one syscall-equivalent for the batch, the Figure 7
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
	mustKick := false
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
		kick, ok := d.stage(r)
		if !ok {
			// Staging failed mid-batch. The request was accepted, so it
			// must surface as a completion: ErrNoSlots, or ErrCanceled
			// if a cancel already claimed it (finish resolves that).
			d.accept(r.Class, d.tenantOf(r))
			d.finish(r, ErrNoSlots)
			continue
		}
		mustKick = mustKick || kick
	}
	d.m.batches.Inc()
	if mustKick {
		// One stage turned the queue red: this batch owes the kick, and
		// making it once at the end wakes the worker to everything staged
		// above (and anything a neighbor staged meanwhile).
		d.kickWorker()
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
