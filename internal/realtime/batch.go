package realtime

import (
	"fmt"
	"time"

	"memif/internal/obs/flight"
	"memif/internal/rbq"
)

// SubmitBatch queues every request in reqs as one protocol round: all
// of them are staged on the submitter's shard, and the flush / recolor
// / kick sequence runs at most once for the whole batch — one color
// observation and at most one syscall-equivalent, the Figure 7
// amortization — while each request still gets its own completion.
//
// The whole batch is validated before anything is staged: a size
// mismatch rejects the batch with ErrBadSizes and no request is
// submitted. After validation every request is accepted: one that
// cannot be staged (slab exhaustion) surfaces through the completion
// queue with ErrNoSlots rather than as a return value, and one the
// admission controller sheds surfaces the same way with an
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

// RetrieveCompletedBatch fills buf with completed requests without
// blocking and returns how many it retrieved (0 when none are pending).
// One call replaces up to len(buf) Poll/RetrieveCompleted round trips
// on the completion path. Draining starts at this poller's home
// completion ring (local-first bias) and round-robins across the rest,
// so concurrent batch pollers spread over the rings instead of
// serializing on one head.
func (d *Device) RetrieveCompletedBatch(buf []*Request) int {
	n := 0
	start := d.pollerRing()
	// One clock read and one accumulator flush serve the whole batch's
	// flight accounting: the retrieve timestamp is read at the first
	// completion (an empty call costs nothing) and every request's lane
	// and SLO arithmetic folds locally until Flush. Batch-level
	// staleness only shifts breach latencies by microseconds; a sampled
	// request reads a fresh clock inside lcEnd.
	var acc flight.Acc
	acc.Init(d.fr)
	var nano int64
	for n < len(buf) {
		idx, ok := d.popCompletion(start)
		if !ok {
			break
		}
		if r, valid := d.req(idx); valid {
			d.m.retrieved.Inc()
			if nano == 0 && d.fr != nil {
				nano = time.Now().UnixNano()
			}
			d.lcEnd(r, nano, &acc)
			buf[n] = r
			n++
		}
	}
	acc.Flush()
	if n > 0 && !d.completionEmpty() {
		d.wake() // keep concurrent pollers from sleeping past the rest
	}
	return n
}
