package realtime

import "sync/atomic"

// DefaultRingDepth is the chunk ring's capacity per transfer
// controller: deep enough that a burst of small requests never stalls
// the worker, shallow enough that a saturated engine pushes back on the
// worker instead of queueing without bound.
const DefaultRingDepth = 64

// ring is a bounded lock-free MPMC ring (Vyukov's bounded queue). The
// device instantiates it three times — the free list, the chunk ring
// every controller pops from and the completion ring; the Device fields
// say which side of each is contended.
//
// Each slot carries a sequence word. A slot is writable when
// seq == enqueue position, readable when seq == dequeue position + 1;
// the atomic sequence store after each access publishes the plainly
// written payload to the next party (release/acquire pairing), which is
// what keeps the plain `v` field race-free.
type ring[T any] struct {
	mask  uint64
	slots []ringSlot[T]
	// enq and deq sit on separate cache lines so the producers' CAS
	// traffic does not invalidate every consumer's line and vice versa.
	_   [64]byte
	enq atomic.Uint64
	_   [64]byte
	deq atomic.Uint64
}

type ringSlot[T any] struct {
	seq atomic.Uint64
	v   T
}

// newRing returns a ring with capacity rounded up to a power of two,
// minimum 2.
func newRing[T any](depth int) *ring[T] {
	cap := 2
	for cap < depth {
		cap <<= 1
	}
	r := &ring[T]{mask: uint64(cap - 1), slots: make([]ringSlot[T], cap)}
	for i := range r.slots {
		r.slots[i].seq.Store(uint64(i))
	}
	return r
}

// tryPush appends v; false when the ring is full (the caller backs off
// — it must not spin here, full is a state, not a transient).
func (r *ring[T]) tryPush(v T) bool {
	for {
		pos := r.enq.Load()
		s := &r.slots[pos&r.mask]
		seq := s.seq.Load()
		switch {
		case seq == pos:
			if r.enq.CompareAndSwap(pos, pos+1) {
				s.v = v
				s.seq.Store(pos + 1)
				return true
			}
		case seq < pos:
			return false // full: the slot has not been consumed yet
		}
		// seq > pos: lost a race with another producer; reload and retry.
	}
}

// push appends v to a ring sized so that it cannot be full: one that
// holds request slot indices, each at most once, NumReqs slots. tryPush
// can still refuse while a concurrent tryPop of the cell v lands in has
// claimed it but not yet released it; push waits that out.
func (r *ring[T]) push(v T) {
	for attempt := 0; !r.tryPush(v); attempt++ {
		backoff(attempt)
	}
}

// tryPop removes the oldest element; false when the ring is empty.
func (r *ring[T]) tryPop() (v T, ok bool) {
	for {
		pos := r.deq.Load()
		s := &r.slots[pos&r.mask]
		seq := s.seq.Load()
		switch {
		case seq == pos+1:
			if r.deq.CompareAndSwap(pos, pos+1) {
				v = s.v
				s.seq.Store(pos + r.mask + 1)
				return v, true
			}
		case seq < pos+1:
			return v, false // empty: the slot has not been produced yet
		}
		// seq > pos+1: lost a race with another consumer; retry.
	}
}

// size reports the current occupancy (racy snapshot for the live-depth
// stats; clamped to [0, cap] so a torn read can never look absurd).
func (r *ring[T]) size() int64 {
	e, d := r.enq.Load(), r.deq.Load()
	if e <= d {
		return 0
	}
	n := int64(e - d)
	if max := int64(len(r.slots)); n > max {
		n = max
	}
	return n
}

// empty reports whether the ring currently holds nothing (racy
// snapshot — the atomically coupled answer is tryPop's).
func (r *ring[T]) empty() bool {
	pos := r.deq.Load()
	return r.slots[pos&r.mask].seq.Load() < pos+1
}

// snapshot walks the occupied slots in FIFO order. Quiescent use only
// (AuditSlots, tests) — under concurrent mutation the walk may
// duplicate or miss elements.
func (r *ring[T]) snapshot() []T {
	var out []T
	for pos := r.deq.Load(); pos < r.enq.Load(); pos++ {
		s := &r.slots[pos&r.mask]
		if s.seq.Load() == pos+1 {
			out = append(out, s.v)
		}
	}
	return out
}
