package streamrt

import (
	"errors"
	"fmt"

	"memif/internal/core"
	"memif/internal/obs/lifecycle"
	"memif/internal/sim"
	"memif/internal/uapi"
)

// Errors of the handle-based API (the facade re-exports them).
var (
	// ErrStreamClosed is returned by operations on a closed stream or
	// a closed engine.
	ErrStreamClosed = errors.New("streamrt: stream closed")
	// ErrBadStream flags a rejected StreamSpec or engine configuration.
	ErrBadStream = errors.New("streamrt: bad stream spec")
)

// tailPollQuantumNS bounds a tail wait: a stream waiting for its last
// in-flight fills wakes on the next device completion or after this
// many virtual ns, whichever is first — the re-check catches fills a
// sibling stream's proc drained and handed over while we slept.
const tailPollQuantumNS = 10_000

// maxStreams caps concurrently open streams: 64 streams over one ring
// is already far past the point where each can hold a buffer.
const maxStreams = 64

// EngineOptions configures OpenEngine.
type EngineOptions struct {
	// Config is the ring geometry: NumBufs pinned buffers of BufBytes
	// each, carved out of the fast node at open — the only mmaps the
	// engine ever performs.
	Config
	// Flight configures the always-on flight recorder. The engine
	// lives on the simulated clock, so it has no SLO burn windows and
	// no watchdog (the swapd convention); outlier capture and adaptive
	// thresholds run on virtual ns, with one tenant lane per stream.
	Flight lifecycle.FlightOptions
}

// DefaultEngineOptions mirrors the Table 4 geometry: eight 512 KB
// buffers, 4 MB of the 6 MB fast node.
func DefaultEngineOptions() EngineOptions {
	return EngineOptions{Config: DefaultConfig()}
}

// Engine is the long-lived stream orchestrator: one ring of pinned
// prefetch buffers over one memif device, multiplexed by any number of
// concurrent Stream handles. Buffers are mmap'd once at OpenEngine and
// recycled across streams until Close — never carved per run.
//
// Engine methods, Snapshot included, are called from a sim proc (any
// proc; streams commonly run on one proc each), or after sim.Engine.Run
// returns: the sim runs one process at a time, so the streams share the
// engine with no lock.
type Engine struct {
	d    *core.Device
	opts EngineOptions

	bufs     []int64 // ring buffer base addresses (len == NumBufs)
	bufChunk []int64 // chunk index a granted buffer is being filled with
	freeBufs []int   // free ring slots (LIFO)

	// streams holds every stream ever opened, indexed by id; order the
	// registered ones (open, or closed with fills draining) in
	// round-robin grant order.
	streams   []*Stream
	order     []*Stream
	openCount int
	rr        int

	outstanding int   // fills submitted, completion not yet retrieved
	bufMmaps    int64 // ring mmaps ever made
	fillBatches int64 // SubmitBatch flushes of fill grants

	closed bool
	err    error // sticky engine-fatal error (submit failure)

	// rec records every fill, one tenant row per stream: the stream's
	// stage spans and its outlier lane.
	rec *lifecycle.Recorder
}

// OpenEngine carves the buffer ring out of the fast node and returns
// the orchestrator. Close the engine (before closing the device) to
// drain in-flight fills and release the ring.
func OpenEngine(p *sim.Proc, d *core.Device, opts EngineOptions) (*Engine, error) {
	if opts.BufBytes <= 0 || opts.BufBytes%d.AS.PageBytes != 0 {
		return nil, fmt.Errorf("%w: BufBytes %d not a positive multiple of the page size", ErrBadStream, opts.BufBytes)
	}
	if opts.NumBufs < 1 {
		return nil, fmt.Errorf("%w: NumBufs %d", ErrBadStream, opts.NumBufs)
	}
	e := &Engine{
		d:        d,
		opts:     opts,
		bufs:     make([]int64, opts.NumBufs),
		bufChunk: make([]int64, opts.NumBufs),
		freeBufs: make([]int, 0, opts.NumBufs),
	}
	// Virtual clock: no SLO burn windows, no watchdog (the swapd
	// convention).
	e.rec = lifecycle.NewRecorder(lifecycle.Config{Flight: opts.Flight})
	for i := range e.bufs {
		b, err := d.AS.Mmap(p, opts.BufBytes, fastNode, fmt.Sprintf("stream-ring-%d", i))
		if err != nil {
			for _, prev := range e.bufs[:i] {
				_ = d.AS.Munmap(p, prev)
			}
			return nil, fmt.Errorf("streamrt: carving ring buffer %d: %w", i, err)
		}
		e.bufs[i] = b
		e.bufMmaps++
		e.freeBufs = append(e.freeBufs, i)
	}
	return e, nil
}

// OpenStream admits a stream and immediately offers it ring capacity
// (its first fills are granted and submitted as one batch before this
// returns). The handle must be driven from a sim proc; one proc per
// stream is the intended shape.
func (e *Engine) OpenStream(p *sim.Proc, spec StreamSpec) (*Stream, error) {
	if e.closed {
		return nil, ErrStreamClosed
	}
	if e.err != nil {
		return nil, e.err
	}
	if err := spec.Validate(e.opts.BufBytes); err != nil {
		return nil, err
	}
	if spec.Credits == 0 {
		spec.Credits = 2
	}
	if e.openCount >= maxStreams {
		return nil, fmt.Errorf("%w: engine at its stream cap (%d)", ErrBadStream, maxStreams)
	}
	id := len(e.streams)
	name := spec.Name
	if name == "" {
		name = fmt.Sprintf("stream-%d", id)
	}
	s := &Stream{
		eng:      e,
		id:       id,
		name:     name,
		spec:     spec,
		chunks:   spec.Length / e.opts.BufBytes,
		credits:  newCreditLedger(spec.Credits),
		openedAt: p.Now(),
	}
	e.rec.EnsureTenants(id + 1)
	e.streams = append(e.streams, s)
	e.order = append(e.order, s)
	e.openCount++
	e.refill(p)
	return s, nil
}

// releaseBuf returns a ring slot to the free list.
func (e *Engine) releaseBuf(buf int) { e.freeBufs = append(e.freeBufs, buf) }

// popBuf takes a ring slot off the free list (caller checked len > 0).
func (e *Engine) popBuf() int {
	buf := e.freeBufs[len(e.freeBufs)-1]
	e.freeBufs = e.freeBufs[:len(e.freeBufs)-1]
	return buf
}

// streamClosed handles a Close()d stream: retire it if nothing is in
// flight, and re-offer whatever capacity it released.
func (e *Engine) streamClosed(p *sim.Proc, s *Stream) {
	e.openCount--
	if s.credits.inFlight == 0 {
		e.retire(s)
	}
	if !e.closed {
		e.refill(p)
	}
}

// retire removes a fully drained, closed stream from the registry.
func (e *Engine) retire(s *Stream) {
	for i, x := range e.order {
		if x == s {
			e.order = append(e.order[:i], e.order[i+1:]...)
			break
		}
	}
}

// cookie packs (stream id, ring slot) into a fill request's cookie.
func cookie(sid, buf int) uint64 { return uint64(sid)<<32 | uint64(uint32(buf)) }

// drain retrieves every pending completion and dispatches it to its
// stream. Everything it needs of the request is copied out before
// FreeRequest — the slot may be reallocated and overwritten by another
// proc the moment FreeRequest yields, so reading r afterwards is a
// use-after-free (see TestFillFailureErrNotClobberedBySlotReuse).
func (e *Engine) drain(p *sim.Proc) {
	freed := false
	for {
		r := e.d.RetrieveCompleted(p)
		if r == nil {
			break
		}
		ck := r.Cookie
		ok := r.Status == uapi.StatusDone
		errCode := r.Err
		lc := lifecycle.Lifecycle{Slot: -1, LatencyNs: int64(r.Latency()), Bytes: r.Length, TS: r.Stamps()}
		lc.Nano = lc.TS[lifecycle.StageCompleted]
		e.d.FreeRequest(p, r) // yields; r is dead past this point

		// A fill holds its stream's credit until here, so its stream
		// cannot have retired.
		s, buf := e.streams[ck>>32], int(uint32(ck))
		e.outstanding--

		if ok {
			s.fillLatency.Observe(lc.LatencyNs)
			s.bytesPrefetched += lc.Bytes
			// One (class, tenant) lane per stream: a breach lets
			// /debug/outliers attribute the slow fill to staging wait,
			// dispatch wait, copy time or completion dwell.
			lc.Class, lc.Tenant = int(s.spec.Class), s.id
			lc.Ambient.SubmissionDepth = int64(e.outstanding)
			e.rec.Finish(nil, &lc, true)
		}

		switch {
		case !ok:
			s.fillFailures++
			s.fail(fmt.Errorf("streamrt: fill failed: %s", errCode))
			s.credits.put()
			e.releaseBuf(buf)
			freed = true
			if s.closed && s.credits.inFlight == 0 {
				e.retire(s)
			}
		case s.closed:
			// Completed after Close: hand the buffer straight back.
			s.credits.put()
			e.releaseBuf(buf)
			freed = true
			if s.credits.inFlight == 0 {
				e.retire(s)
			}
		default:
			s.ready = append(s.ready, readyFill{buf: buf, chunk: e.bufChunk[buf]})
		}
	}
	if freed && !e.closed {
		e.refill(p)
	}
}

// refill is the engine-level fair grant pass: while free buffers
// remain, offer one fill per eligible stream per round (starting at a
// rotating cursor so no stream is structurally first), then submit the
// whole grant set as one SubmitBatch — one flush/kick per pass instead
// of per chunk. A stream is eligible while it is open, healthy, has
// credits available, and has unassigned input left.
func (e *Engine) refill(p *sim.Proc) {
	if e.closed || e.err != nil || len(e.freeBufs) == 0 || len(e.order) == 0 {
		return
	}
	// The batch is per-invocation: AllocRequest yields, so another proc
	// may enter refill concurrently, and a batch slice shared across
	// calls would let the two passes clobber each other's grants.
	batch := make([]*uapi.MovReq, 0, len(e.freeBufs))
	for progress := true; progress && len(e.freeBufs) > 0; {
		progress = false
		n := len(e.order)
		for i := 0; i < n && len(e.freeBufs) > 0; i++ {
			s := e.order[(e.rr+i)%n]
			if s.closed || s.failed != nil || s.credits.available() == 0 || s.nextFill >= s.chunks {
				continue
			}
			r := e.d.AllocRequest(p) // yields: re-validate below
			if r == nil {
				// Slot pressure from other device users; the next
				// refill retries.
				progress = false
				break
			}
			if e.closed || s.closed || s.failed != nil || s.credits.available() == 0 ||
				s.nextFill >= s.chunks || len(e.freeBufs) == 0 {
				e.d.FreeRequest(p, r)
				continue
			}
			buf := e.popBuf()
			chunk := s.nextFill
			s.nextFill++
			s.credits.take()
			e.bufChunk[buf] = chunk
			r.Op = uapi.OpReplicate
			r.SrcBase = s.spec.Base + chunk*e.opts.BufBytes
			r.DstBase = e.bufs[buf]
			r.Length = e.opts.BufBytes
			r.Class = s.spec.Class
			r.Cookie = cookie(s.id, buf)
			batch = append(batch, r)
			progress = true
		}
	}
	e.rr++
	if len(batch) == 0 {
		return
	}
	e.fillBatches++
	e.outstanding += len(batch)
	if err := e.d.SubmitBatch(p, batch); err != nil && e.err == nil {
		e.err = fmt.Errorf("streamrt: submitting fill batch: %w", err)
	}
}

// Close shuts the engine down: closes every stream, drains in-flight
// fills back to the device, and releases the buffer ring. Call before
// closing the underlying device. Idempotent.
func (e *Engine) Close(p *sim.Proc) {
	if e.closed {
		return
	}
	e.closed = true
	for _, s := range append([]*Stream(nil), e.order...) { // Close may retire s
		s.Close(p)
	}
	for e.outstanding > 0 {
		e.drain(p)
		if e.outstanding > 0 {
			e.d.Poll(p, tailPollQuantumNS)
		}
	}
	for _, b := range e.bufs {
		_ = e.d.AS.Munmap(p, b)
	}
	e.freeBufs = e.freeBufs[:0]
}

// Snapshot captures the engine state: ring occupancy, engine totals,
// per-stream stats and the flight view. The totals sum every stream
// ever opened, so closed streams keep contributing.
func (e *Engine) Snapshot() EngineSnapshot {
	es := EngineSnapshot{
		RingBufs:      e.opts.NumBufs,
		BufBytes:      e.opts.BufBytes,
		FreeBufs:      len(e.freeBufs),
		BufMmaps:      e.bufMmaps,
		OpenStreams:   e.openCount,
		StreamsOpened: int64(len(e.streams)),
		StreamsClosed: int64(len(e.streams) - len(e.order)),
		FillBatches:   e.fillBatches,
	}
	for _, s := range e.streams {
		es.StreamNames = append(es.StreamNames, s.name)
		es.Fills += s.credits.granted
		es.FastChunks += s.fastChunks
		es.SlowChunks += s.slowChunks
		es.BytesPrefetched += s.bytesPrefetched
		es.Stalls += s.stalls
	}
	for _, s := range e.order {
		es.Streams = append(es.Streams, s.Stats())
	}
	es.Flight = e.rec.FlightSnapshot() // zero when disabled
	return es
}
