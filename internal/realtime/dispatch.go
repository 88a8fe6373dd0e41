package realtime

import (
	"runtime"
	"time"
)

// chunk is one unit of controller work: a byte range of one request.
// nano carries the ring-push timestamp when the request is sampled (0
// otherwise), so the consumer can attribute the dispatch-ring wait
// without any per-chunk allocation.
type chunk struct {
	idx      uint32
	off, end int
	nano     int64
}

// workerClockEvery bounds how many unsampled stage stamps reuse one
// worker/controller clock read: staleness stays under ~16 op-times
// (microseconds) while the per-request clock cost drops to ~1/16 of a
// nanotime read (50–60 ns on a 2-vCPU Xeon VM, which per stamp would
// alone consume the recorder's whole overhead budget).
const workerClockEvery = 16

// coarseClock is a goroutine-local amortized clock for the stage stamps
// of unsampled requests — the worker's flushed and dispatched stamps,
// each controller's copy-start stamps. It is armed only with the flight
// recorder (disarmed it reads 0 and costs nothing: no stamp is stored)
// and refreshed at least every workerClockEvery reads, never per
// request. The stamps it feeds only ever surface in breach records,
// where millisecond latencies dwarf the microseconds of staleness; the
// sampled 1/2^shift requests read fresh clocks.
type coarseClock struct {
	armed bool
	nano  int64
	reads int
}

func (c *coarseClock) now() int64 {
	if !c.armed {
		return 0
	}
	if c.reads >= workerClockEvery || c.nano == 0 {
		c.nano, c.reads = nanotime(), 0
	}
	c.reads++
	return c.nano
}

// worker is the kernel thread and staging's only consumer: drain the
// staging queue straight into the scheduler's buckets, chunk and
// dispatch what it pops to the controllers, then recolor the staging
// queue blue and sleep. It starts asleep: the staging queue starts
// blue, so the first stage turns it red and kicks.
func (d *Device) worker() {
	defer func() {
		close(d.work) // controllers drain the chunk ring and exit
		d.wg.Done()
	}()
	clk := coarseClock{armed: d.stampAll}
	// Flushed stamps share the worker's coarse clock — under load a pass
	// often moves a single element before the next dispatch, so a
	// per-pass read would degenerate to per-request.
	staged := func(idx uint32) { d.flushed(d.reqs[idx], clk.now()) }
	for {
		<-d.kick
		d.m.wakes.Inc()
		for {
			d.sched.drain(staged)
			if idx, ok := d.popSubmission(); ok {
				d.dispatch(idx, clk.now())
				continue
			}
			// Before sleeping, recolor the staging queue blue; a queue
			// that refilled under us refuses the recolor and sends the
			// worker around again. This is the Section 4.4 invariant:
			// after the worker sleeps the queue is blue, so the first
			// submitter kicks exactly once.
			if !d.staging.Park() {
				continue
			}
			if !d.closed.Load() {
				break
			}
			// Close has waited out every submitter before setting closed,
			// so nothing can be staged from here on: go around until
			// staging and the buckets are dry.
			if !d.queuedWork() {
				return
			}
		}
	}
}

// dispatch splits one request into chunks and feeds the controllers —
// or, when the request is small enough for the adaptive inline
// threshold, copies it right here on the worker (the poll path: no ring
// push, no controller wakeup, no notify hop for the copy itself).
func (d *Device) dispatch(idx uint32, wNano int64) {
	r, ok := d.req(idx)
	if !ok {
		return
	}
	d.maybeRetune()
	d.m.dispatched.Inc()
	if d.chaos != nil && d.chaos.BeforeDispatch != nil {
		d.chaos.BeforeDispatch(idx)
	}
	// The dispatched stamp: a fresh clock for a sampled request (it also
	// serves as every chunk's ring-push stamp below), the worker's
	// amortized one otherwise. Plain fields, written before any handoff
	// publishes idx onward; inlined is set on the inline path below.
	stamp := wNano
	if r.sampled {
		stamp = nanotime()
	}
	if stamp != 0 {
		r.dispatchedNs = max(stamp, r.submitted.Load())
		r.inlined = false
	}
	// Observe cancellation and deadline before any byte moves.
	if !r.Deadline.IsZero() && time.Now().After(r.Deadline) {
		r.state.CompareAndSwap(r.word(stPending), r.word(stExpired))
	}
	if st := r.state.Load() & stateMask; st == stCanceled || st == stExpired {
		d.finish(r, nil)
		return
	}
	n := len(r.Src)
	nChunks := 1
	if d.chunkBytes > 0 && n > d.chunkBytes {
		nChunks = (n + d.chunkBytes - 1) / d.chunkBytes
	}
	// Adaptive completion, the paper's Section 5 poll/interrupt split:
	// a single-chunk request at or below the inline threshold is copied
	// by the worker itself. runChunk keeps the cancel check and the
	// exactly-once finish; the one chunk needs no countdown, so only
	// requests headed for the ring get one.
	if nChunks == 1 {
		if th := d.inline.Load(); th > 0 && int64(n) <= th {
			d.m.inlineCompleted.Inc()
			// The copy starts right here on the worker, so the dispatched
			// stamp is also the exact copy-start: no second stamp, just
			// the mark that makes a slow inline request legible as one.
			r.inlined = true
			d.runChunk(chunk{idx: idx, off: 0, end: n}, len(d.ctr)-1, 0)
			return
		}
	}
	r.chunksLeft.Store(int32(nChunks))
	// One ring-push stamp serves every chunk of a sampled request: the
	// pushes below are a tight loop, and the per-chunk ring wait is
	// measured against it on the consumer side (zero = unsampled —
	// deliberately 1/2^shift even with the flight recorder armed, so
	// controllers don't pay a clock read plus a histogram push per
	// chunk for every request; breach forensics needs stage stamps, not
	// ring-wait spans).
	var pushNano int64
	if r.sampled {
		pushNano = stamp
	}
	for i := 0; i < nChunks; i++ {
		c := chunk{idx: idx, off: 0, end: n, nano: pushNano}
		if nChunks > 1 {
			c.off = i * d.chunkBytes
			c.end = c.off + d.chunkBytes
			if c.end > n {
				c.end = n
			}
		}
		d.pushChunk(c)
	}
}

// pushChunk places one chunk on the chunk ring. Only when the ring is
// full does the worker back off — backpressure when the whole copy
// engine is saturated, never because one controller is slow (the others
// pop past it).
func (d *Device) pushChunk(c chunk) {
	for attempt := 0; !d.chunks.tryPush(c); attempt++ {
		d.m.dispatchRetries.Inc()
		backoff(attempt)
	}
	select {
	case d.work <- struct{}{}:
	default: // enough wake tokens buffered to rouse everyone
	}
}

// controller is transfer controller id: it pops chunks off the shared
// ring, and whichever controller retires a request's last chunk runs
// the completion path (the interrupt handler's Release+Notify).
func (d *Device) controller(id int) {
	defer d.wg.Done()
	spins := 0
	clk := coarseClock{armed: d.stampAll} // copy-start stamps of unsampled requests
	for {
		if c, ok := d.chunks.tryPop(); ok {
			spins = 0
			d.runChunk(c, id, clk.now())
			continue
		}
		// Nothing on the ring: spin briefly (work often lands within a
		// few scheduler quanta under load), then park on the work edge.
		// The check-empty-then-park order plus the buffered channel
		// makes the park lossless: a chunk pushed after our scan left
		// its wake token in the buffer for us.
		if spins < 8 {
			spins++
			runtime.Gosched()
			continue
		}
		spins = 0
		if _, open := <-d.work; !open {
			// Shutdown: the worker dispatched its last chunk before
			// closing the channel. Sweep the ring dry, then leave.
			for c, ok := d.chunks.tryPop(); ok; c, ok = d.chunks.tryPop() {
				d.runChunk(c, id, clk.now())
			}
			return
		}
	}
}

// runChunk copies one chunk (unless its request is already terminal)
// and fires the completion when it was the request's last chunk. slot
// selects the caller's private counter block: the controller id, or the
// worker's extra slot on the inline path. csNano is the caller's
// amortized clock for the copy-start stamp (0 with the flight recorder
// disarmed, and on the inline path, whose copy starts at its dispatched
// stamp).
func (d *Device) runChunk(c chunk, slot int, csNano int64) {
	r, ok := d.req(c.idx)
	if !ok {
		return
	}
	if c.nano != 0 {
		// A sampled request's chunk, off the ring: one fresh clock read
		// closes the chunk's ring wait and is its copy-start stamp.
		csNano = nanotime()
		d.rec.ObserveQueueWait(int(r.Class), csNano-c.nano)
	}
	if d.chaos != nil && d.chaos.BeforeChunkCopy != nil {
		d.chaos.BeforeChunkCopy(c.idx, c.off, c.end)
	}
	if csNano != 0 {
		// The copy window opens at the first chunk to reach any
		// controller and closes when the finisher retires the last one —
		// a canceled request still gets the stamp, bounding the time its
		// chunks occupied controllers. A value below the submitted stamp
		// is a leftover from the slot's previous life and loses to this
		// chunk's stamp; a failed CAS means a parallel chunk of the same
		// request won the race.
		sub := r.submitted.Load()
		if cs := r.copyStartNs.Load(); cs < sub {
			r.copyStartNs.CompareAndSwap(cs, max(csNano, sub))
		}
	}
	// A cancel or deadline that won after dispatch stops the
	// copying; the chunk countdown still runs so the completion
	// fires exactly once.
	if r.state.Load()&stateMask == stPending {
		copy(r.Dst[c.off:c.end], r.Src[c.off:c.end])
		d.ctr[slot].bytesMoved.Add(int64(c.end - c.off))
	}
	d.ctr[slot].chunks.Add(1)
	// The worker's inline copy (its slot is the last) is its request's
	// only chunk, never counted into chunksLeft; a ring chunk counts
	// down.
	if slot == len(d.ctr)-1 || r.chunksLeft.Add(-1) == 0 {
		d.finish(r, nil)
	}
}
