package streamrt

import (
	"errors"
	"fmt"
	"sync"

	"memif/internal/core"
	"memif/internal/obs"
	"memif/internal/obs/flight"
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
	Flight flight.Options
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
// Engine methods must be called from sim procs (any proc; streams
// commonly run on one proc each). Snapshot alone is goroutine-safe.
type Engine struct {
	d    *core.Device
	opts EngineOptions

	bufs     []int64 // ring buffer base addresses (len == NumBufs)
	bufChunk []int64 // chunk index a granted buffer is being filled with
	freeBufs []int   // free ring slots (LIFO)

	// Registry of live streams (open, or closed with fills draining).
	// mu guards it against concurrent Snapshot; sim procs serialize
	// among themselves.
	mu          sync.Mutex
	byID        map[int]*Stream
	order       []*Stream // round-robin grant order
	streamNames []string  // indexed by stream id, all streams ever opened
	nextID      int
	openCount   int
	rr          int

	outstanding int // fills submitted, completion not yet retrieved

	closed bool
	err    error // sticky engine-fatal error (submit failure)

	fr *flight.Recorder // nil when opts.Flight.Disable

	// Lock-free mirrors for Snapshot.
	bufMmaps                     obs.Counter
	fills, fillBatches           obs.Counter
	fastChunks, slowChunks       obs.Counter
	bytesPrefetched              obs.Counter
	stalls                       obs.Counter
	streamsOpened, streamsClosed obs.Counter
	freeBufsG, outstandingG      obs.Gauge
	openG                        obs.Gauge
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
		byID:     make(map[int]*Stream),
	}
	// Virtual clock: no SLO burn windows, no watchdog (the swapd
	// convention).
	e.fr = flight.New(opts.Flight, false)
	for i := range e.bufs {
		b, err := d.AS.Mmap(p, opts.BufBytes, fastNode, fmt.Sprintf("stream-ring-%d", i))
		if err != nil {
			for _, prev := range e.bufs[:i] {
				_ = d.AS.Munmap(p, prev)
			}
			return nil, fmt.Errorf("streamrt: carving ring buffer %d: %w", i, err)
		}
		e.bufs[i] = b
		e.bufMmaps.Inc()
		e.freeBufs = append(e.freeBufs, i)
	}
	e.freeBufsG.Set(int64(len(e.freeBufs)))
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
	id := e.nextID
	e.nextID++
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
		scratch:  make([]byte, e.opts.BufBytes),
		openedAt: p.Now(),
	}
	e.fr.EnsureTenants(id + 1) // nil-safe
	e.mu.Lock()
	e.byID[id] = s
	e.order = append(e.order, s)
	e.streamNames = append(e.streamNames, name)
	e.mu.Unlock()
	e.openCount++
	e.openG.Set(int64(e.openCount))
	e.streamsOpened.Inc()
	e.refill(p)
	return s, nil
}

// releaseBuf returns a ring slot to the free list.
func (e *Engine) releaseBuf(buf int) {
	e.freeBufs = append(e.freeBufs, buf)
	e.freeBufsG.Set(int64(len(e.freeBufs)))
}

// popBuf takes a ring slot off the free list (caller checked len > 0).
func (e *Engine) popBuf() int {
	buf := e.freeBufs[len(e.freeBufs)-1]
	e.freeBufs = e.freeBufs[:len(e.freeBufs)-1]
	e.freeBufsG.Set(int64(len(e.freeBufs)))
	return buf
}

// streamClosed handles a Close()d stream: retire it if nothing is in
// flight, and re-offer whatever capacity it released.
func (e *Engine) streamClosed(p *sim.Proc, s *Stream) {
	e.openCount--
	e.openG.Set(int64(e.openCount))
	if s.credits.inFlight == 0 {
		e.retire(s)
	}
	if !e.closed {
		e.refill(p)
	}
}

// retire removes a fully drained, closed stream from the registry.
func (e *Engine) retire(s *Stream) {
	e.mu.Lock()
	delete(e.byID, s.id)
	for i, x := range e.order {
		if x == s {
			e.order = append(e.order[:i], e.order[i+1:]...)
			break
		}
	}
	e.mu.Unlock()
	e.streamsClosed.Inc()
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
		length := r.Length
		lat := int64(r.Latency())
		ts := r.Stamps()
		e.d.FreeRequest(p, r) // yields; r is dead past this point

		sid, buf := int(ck>>32), int(uint32(ck))
		e.outstanding--
		e.outstandingG.Set(int64(e.outstanding))
		s := e.byID[sid]

		if ok && s != nil {
			s.fillLatency.Observe(lat)
			s.stages.ObserveStamps(&ts)
			s.bytesPrefetched.Add(length)
			e.bytesPrefetched.Add(length)
			// One (class, tenant) lane per stream: a breach lets
			// /debug/outliers attribute the slow fill to staging wait,
			// dispatch wait, copy time or completion dwell.
			e.fr.ObserveLane(lifecycle.ReasonNone, int(s.spec.Class), s.id, lat, length, &ts,
				lifecycle.Ambient{SubmissionDepth: int64(e.outstanding)})
		}

		switch {
		case s == nil:
			// Stream already retired (or unknown): recycle the slot.
			e.releaseBuf(buf)
			freed = true
		case !ok:
			s.fillFailures.Inc()
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
	// may enter refill concurrently, and a shared scratch slice would
	// let the two passes clobber each other's grants.
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
			s.fills.Inc()
			e.fills.Inc()
			batch = append(batch, r)
			progress = true
		}
	}
	e.rr++
	if len(batch) == 0 {
		return
	}
	e.fillBatches.Inc()
	e.outstanding += len(batch)
	e.outstandingG.Set(int64(e.outstanding))
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
	e.mu.Lock()
	live := append([]*Stream(nil), e.order...)
	e.mu.Unlock()
	for _, s := range live {
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
	e.freeBufsG.Set(0)
}

// Snapshot captures the engine state: ring occupancy, engine totals,
// per-stream stats and the flight view. Safe from any goroutine.
func (e *Engine) Snapshot() EngineSnapshot {
	es := EngineSnapshot{
		RingBufs:        e.opts.NumBufs,
		BufBytes:        e.opts.BufBytes,
		FreeBufs:        int(e.freeBufsG.Current()),
		BufMmaps:        e.bufMmaps.Load(),
		OpenStreams:     int(e.openG.Current()),
		StreamsOpened:   e.streamsOpened.Load(),
		StreamsClosed:   e.streamsClosed.Load(),
		Fills:           e.fills.Load(),
		FillBatches:     e.fillBatches.Load(),
		FastChunks:      e.fastChunks.Load(),
		SlowChunks:      e.slowChunks.Load(),
		BytesPrefetched: e.bytesPrefetched.Load(),
		Stalls:          e.stalls.Load(),
	}
	e.mu.Lock()
	for _, s := range e.order {
		es.Streams = append(es.Streams, s.Stats())
	}
	es.StreamNames = append([]string(nil), e.streamNames...)
	e.mu.Unlock()
	es.Flight = e.fr.Snapshot() // nil-safe: zero when disabled
	return es
}
