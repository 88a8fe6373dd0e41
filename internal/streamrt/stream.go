package streamrt

import (
	"fmt"

	"memif/internal/obs"
	"memif/internal/qos"
	"memif/internal/sim"
	"memif/internal/stats"
	"memif/internal/workloads"
)

// MaxCredits caps a single stream's credit allowance. Credits bound
// ring-buffer occupancy, and no ring is anywhere near this deep.
const MaxCredits = 1 << 16

// StreamSpec describes one stream to Engine.OpenStream.
type StreamSpec struct {
	// Kernel is the compute kernel invoked on each chunk.
	Kernel workloads.Kernel
	// Base/Length delimit the input range on the slow node. Length
	// must be a positive multiple of the engine's BufBytes.
	Base, Length int64
	// Class is the QoS class stamped on the stream's fill requests
	// (qos.Foreground/Background/Scavenger).
	Class qos.Class
	// Credits is the stream's backpressure allowance: the maximum
	// number of ring buffers it may hold (fills in flight plus filled
	// buffers awaiting consumption). Zero defaults to 2.
	Credits int
	// Name labels the stream in metrics and /debug/outliers tenant
	// lanes. Empty defaults to "stream-<id>". Must be label-safe:
	// letters, digits, '.', '_', '-'.
	Name string
}

// labelSafe reports whether s can be embedded in a metric label and a
// flight tenant name without escaping.
func labelSafe(s string) bool {
	for i := 0; i < len(s); i++ {
		c := s[i]
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9',
			c == '.', c == '_', c == '-':
		default:
			return false
		}
	}
	return true
}

// Validate checks the spec against an engine buffer size. It is the
// single gate OpenStream applies (and the fuzz target's subject): a nil
// error guarantees Length is a positive multiple of bufBytes, Base is
// non-negative, Class is a known QoS class, Credits (after defaulting)
// is in [1, MaxCredits], and Name is label-safe.
func (sp StreamSpec) Validate(bufBytes int64) error {
	if bufBytes <= 0 {
		return fmt.Errorf("%w: engine buffer size %d", ErrBadStream, bufBytes)
	}
	if sp.Base < 0 {
		return fmt.Errorf("%w: negative base %d", ErrBadStream, sp.Base)
	}
	if sp.Length <= 0 || sp.Length%bufBytes != 0 {
		return fmt.Errorf("%w: length %d not a positive multiple of buffer size %d", ErrBadStream, sp.Length, bufBytes)
	}
	if sp.Base > (1<<62)-sp.Length {
		return fmt.Errorf("%w: range [%d, %d+%d) overflows", ErrBadStream, sp.Base, sp.Base, sp.Length)
	}
	if !sp.Class.Valid() {
		return fmt.Errorf("%w: unknown class %d", ErrBadStream, sp.Class)
	}
	if sp.Credits < 0 || sp.Credits > MaxCredits {
		return fmt.Errorf("%w: credits %d outside [0, %d]", ErrBadStream, sp.Credits, MaxCredits)
	}
	if !labelSafe(sp.Name) {
		return fmt.Errorf("%w: name %q not label-safe", ErrBadStream, sp.Name)
	}
	return nil
}

// readyFill is a completed fill awaiting zero-copy consumption.
type readyFill struct {
	buf   int   // ring buffer index
	chunk int64 // input chunk it holds (stats/debug)
}

// Stream is one open stream: a cursor over [Base, Base+Length) whose
// chunks arrive either zero-copy through the engine's ring (fast path)
// or straight from the slow node (never-stall fallback). Drive each
// stream from one sim proc; any number of streams multiplex over one
// engine. Like the engine's, its methods are called from a sim proc, or
// after sim.Engine.Run returns.
type Stream struct {
	eng  *Engine
	id   int
	name string
	spec StreamSpec

	chunks   int64 // spec.Length / eng BufBytes
	nextFill int64 // next chunk index not yet assigned (fill or fallback)
	consumed int64

	credits creditLedger
	ready   []readyFill // completed fills, consumption order
	acc     uint64

	failed error // sticky fill/kernel failure
	closed bool

	openedAt sim.Time
	doneAt   sim.Time

	// The stream's counters; its fills are credits.granted.
	fastChunks, slowChunks int64
	bytesPrefetched        int64
	fillFailures           int64
	tailWaits, stalls      int64
	fillLatency            obs.Histogram
}

// Name returns the stream's metric label.
func (s *Stream) Name() string { return s.name }

// Done reports whether every chunk has been consumed.
func (s *Stream) Done() bool { return s.consumed >= s.chunks }

// Err returns the stream's sticky failure, if any.
func (s *Stream) Err() error { return s.failed }

// Checksum returns the kernel's running reduction over the chunks
// consumed so far.
func (s *Stream) Checksum() uint64 { return s.acc }

// Stats snapshots the stream's counters; valid after Close.
func (s *Stream) Stats() StreamStats {
	return StreamStats{
		ID:              s.id,
		Name:            s.name,
		Kernel:          s.spec.Kernel.Name,
		Class:           int(s.spec.Class),
		Bytes:           s.spec.Length,
		Chunks:          s.chunks,
		Credits:         s.credits.total,
		CreditsInFlight: s.credits.inFlight,
		CreditsGranted:  s.credits.granted,
		CreditsReturned: s.credits.returned,
		FastChunks:      s.fastChunks,
		SlowChunks:      s.slowChunks,
		BytesPrefetched: s.bytesPrefetched,
		Fills:           s.credits.granted,
		FillFailures:    s.fillFailures,
		TailWaits:       s.tailWaits,
		Stalls:          s.stalls,
		Closed:          s.closed,
		Done:            s.Done(),
		FillLatency:     s.fillLatency.Snapshot(),
		Stages:          s.eng.rec.TenantSpans(s.id),
	}
}

// Consume advances the stream by exactly one chunk: zero-copy from a
// filled ring buffer when one is ready, otherwise the never-stall
// fallback straight from the slow node, otherwise (all chunks assigned,
// fills still in flight) it waits for the tail. It returns done=true
// once every chunk has been consumed. A fill or kernel failure is
// sticky: every subsequent call returns it.
func (s *Stream) Consume(p *sim.Proc) (done bool, err error) {
	e := s.eng
	if s.closed {
		return false, ErrStreamClosed
	}
	for {
		e.drain(p)
		if s.failed != nil {
			return false, s.failed
		}
		if err := e.err; err != nil {
			return false, err
		}
		if s.consumed >= s.chunks {
			return true, nil
		}

		// Fast path: a fill completed — run the kernel zero-copy on the
		// pinned ring buffer, then recycle buffer and credit.
		if len(s.ready) > 0 {
			rf := s.ready[0]
			s.ready = s.ready[1:]
			acc, kerr := s.spec.Kernel.Consume(p, e.d.AS, e.bufs[rf.buf], e.opts.BufBytes, s.acc)
			e.releaseBuf(rf.buf)
			s.credits.put()
			if kerr != nil {
				s.fail(kerr)
				return false, kerr
			}
			s.acc = acc
			s.consumed++
			s.fastChunks++
			e.refill(p)
			return s.finishChunk(p), e.err
		}

		// Never-stall fallback: no buffer ready but unassigned input
		// remains — consume the next unassigned chunk in place.
		if s.nextFill < s.chunks {
			addr := s.spec.Base + s.nextFill*e.opts.BufBytes
			s.nextFill++
			acc, kerr := s.spec.Kernel.Consume(p, e.d.AS, addr, e.opts.BufBytes, s.acc)
			if kerr != nil {
				s.fail(kerr)
				return false, kerr
			}
			s.acc = acc
			s.consumed++
			s.slowChunks++
			return s.finishChunk(p), nil
		}

		// Everything is assigned; only in-flight fills can finish the
		// stream. With none outstanding the stream is wedged — that is
		// a runtime bug, counted as a stall (gated to zero in the tests
		// and by the benchmark's sim_streams check).
		if s.credits.inFlight == 0 {
			s.stalls++
			err := fmt.Errorf("streamrt: stream %d (%s) stuck with no outstanding fills", s.id, s.name)
			s.fail(err)
			return false, err
		}
		// Tail wait: bounded poll so a completion drained on our behalf
		// by a sibling stream's proc (which appends to s.ready) is
		// picked up at the next quantum even though no new device
		// notification will arrive for it.
		s.tailWaits++
		e.d.Poll(p, tailPollQuantumNS)
	}
}

// finishChunk stamps completion state after a successful consume.
func (s *Stream) finishChunk(p *sim.Proc) bool {
	if s.consumed < s.chunks {
		return false
	}
	s.doneAt = p.Now()
	return true
}

// fail latches the stream's sticky error.
func (s *Stream) fail(err error) {
	if s.failed == nil {
		s.failed = err
	}
}

// Run drives Consume until the stream completes, then closes the
// handle and reports the run.
func (s *Stream) Run(p *sim.Proc) (Result, error) {
	for {
		done, err := s.Consume(p)
		if err != nil {
			s.Close(p)
			return Result{}, err
		}
		if done {
			break
		}
	}
	elapsed := s.doneAt - s.openedAt
	res := Result{
		Kernel:        s.spec.Kernel.Name,
		Bytes:         s.spec.Length,
		Elapsed:       elapsed,
		ThroughputMBs: stats.ThroughputMBs(s.spec.Length, elapsed),
		FastChunks:    s.fastChunks,
		SlowChunks:    s.slowChunks,
		Checksum:      s.acc,
	}
	s.Close(p)
	return res, nil
}

// Close releases the stream: ready buffers return to the ring at once,
// in-flight fills drain back as they complete (the engine frees them),
// and freed capacity is immediately re-offered to sibling streams.
// Idempotent; Stats/Checksum remain readable afterwards.
func (s *Stream) Close(p *sim.Proc) {
	if s.closed {
		return
	}
	s.closed = true
	e := s.eng
	for _, rf := range s.ready {
		e.releaseBuf(rf.buf)
		s.credits.put()
	}
	s.ready = nil
	e.streamClosed(p, s)
}
