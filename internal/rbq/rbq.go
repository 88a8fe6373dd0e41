// Package rbq implements the paper's red-blue lock-free queue
// (Section 4.3): a Michael–Scott-style lock-free FIFO that additionally
// maintains a queue-wide property — the "color" — as part of every atomic
// queue operation.
//
// A vanilla lock-free queue guarantees only the atomicity of each
// enqueue/dequeue. memif also needs a queue-wide flag that records who is
// responsible for flushing the staging queue (blue: the application;
// red: the kernel), and the flag must be read/updated atomically *with*
// the queue operation, or a lock would be needed to protect the pair.
// The red-blue queue encodes the color in every link word: enqueue reads
// the color off the old tail's nil link and propagates it into the new
// tail's nil link within the same CAS-published update; set_color swaps a
// recolored nil link into an empty queue's dummy with one CAS. A dequeue
// reads no color: the Section 4.4 protocols observe it only where they
// enqueue (Enqueue, Stage) or recolor (SetColor, Flush, Park).
//
// Layout notes. Elements are uint32 values (in memif: indices into the
// mov_req array, validated by the driver before use — Section 4.2's
// safety argument). Queue nodes live in a fixed Slab shared by all queues
// of one interface instance and are recycled through an internal Treiber
// stack; every link word carries an ABA tag that increases on every
// write. Keeping nodes separate from the payload slots lets a dequeued
// mov_req be reused immediately (the Michael–Scott dummy node otherwise
// pins the most recently dequeued slot).
//
// The structure is safe for any number of concurrent producers and
// consumers from any context, with no locks anywhere — the property
// Section 4.2 requires so interrupt handlers can post completions and a
// misbehaving application can never wedge the kernel.
package rbq

import (
	"fmt"
	"sync/atomic"
)

// schedHook, when installed, is invoked at every linearization-relevant
// step of the lock-free algorithms (loop heads, immediately before each
// CAS, and in the windows between a publishing CAS and its follow-up
// writes). The verification harness (internal/check) routes it into a
// seeded deterministic scheduler so interleavings are explored
// systematically; in production it is nil and each call site costs one
// atomic load and an untaken branch.
var schedHook atomic.Pointer[func()]

// SetSchedHook installs (or, with nil, clears) the scheduling hook.
// Install before starting the threads under test and clear after they
// join; the hook must be safe to call from any goroutine the harness
// manages.
func SetSchedHook(h func()) {
	if h == nil {
		schedHook.Store(nil)
		return
	}
	schedHook.Store(&h)
}

// schedPoint is a potential preemption point for the harness.
func schedPoint() {
	if p := schedHook.Load(); p != nil {
		(*p)()
	}
}

// Color is the queue-wide property carried by the links. memif uses two
// values, but any 8-bit property works (Section 4.3: "not limited to a
// binary color value").
type Color uint8

// The two colors of the memif staging-queue protocol.
const (
	Blue Color = 0 // the application must flush the queue
	Red  Color = 1 // the kernel worker will flush the queue
)

func (c Color) String() string {
	switch c {
	case Blue:
		return "blue"
	case Red:
		return "red"
	default:
		return fmt.Sprintf("color(%d)", uint8(c))
	}
}

// Link word packing: | tag:32 | color:8 | idx:24 |.
// Head/tail words use the same packing with color unused.
const (
	idxBits   = 24
	idxMask   = (1 << idxBits) - 1
	colorBits = 8
	colorMask = (1 << colorBits) - 1
)

// MaxNodes is the largest slab capacity (index 0 is the nil sentinel).
const MaxNodes = idxMask

func pack(idx uint32, c Color, tag uint32) uint64 {
	return uint64(idx)&idxMask | uint64(c)<<idxBits | uint64(tag)<<32
}

func unpackIdx(w uint64) uint32  { return uint32(w & idxMask) }
func unpackColor(w uint64) Color { return Color(w >> idxBits & colorMask) }
func unpackTag(w uint64) uint32  { return uint32(w >> 32) }

// bump returns w's tag + 1, for the every-write-increments-the-tag
// discipline that defeats ABA across node recycling.
func bump(w uint64) uint32 { return unpackTag(w) + 1 }

// node is one queue node: a next link (with color and tag) and the
// payload value. The next field doubles as the free-stack link while the
// node is unallocated.
type node struct {
	next  atomic.Uint64
	value atomic.Uint32
}

// Slab is a fixed pool of queue nodes shared by any number of queues.
// One memif instance allocates a single slab inside the user/kernel
// shared pages and builds its red-blue queues on it: the simulated
// interface its free, staging, submission and completion queues, the
// realtime device its one staging queue.
type Slab struct {
	nodes    []node
	freeHead atomic.Uint64 // packed {idx, tag} Treiber stack head
}

// NewSlab returns a slab of capacity nodes. Size it live + queues +
// slack: each queue consumes one node permanently (its dummy), each
// queued element one node, and a few slack nodes absorb the windows in
// which a dequeuer has not yet recycled the old dummy while a producer
// already allocates.
func NewSlab(capacity int) *Slab {
	if capacity < 1 || capacity > MaxNodes-1 {
		panic(fmt.Sprintf("rbq: slab capacity %d out of range", capacity))
	}
	s := &Slab{nodes: make([]node, capacity+1)} // index 0 is nil
	// Chain 1..capacity into the free stack.
	for i := 1; i <= capacity; i++ {
		nextIdx := uint32(i + 1)
		if i == capacity {
			nextIdx = 0
		}
		s.nodes[i].next.Store(pack(nextIdx, 0, 1))
	}
	s.freeHead.Store(pack(1, 0, 1))
	return s
}

// Capacity returns the number of allocatable nodes.
func (s *Slab) Capacity() int { return len(s.nodes) - 1 }

// allocNode pops a node off the free stack. ok is false when the slab is
// exhausted.
func (s *Slab) allocNode() (uint32, bool) {
	for {
		schedPoint()
		head := s.freeHead.Load()
		idx := unpackIdx(head)
		if idx == 0 {
			return 0, false
		}
		next := s.nodes[idx].next.Load()
		schedPoint()
		if s.freeHead.CompareAndSwap(head, pack(unpackIdx(next), 0, bump(head))) {
			return idx, true
		}
	}
}

// freeNode pushes a node back on the free stack.
func (s *Slab) freeNode(idx uint32) {
	n := &s.nodes[idx]
	for {
		schedPoint()
		head := s.freeHead.Load()
		old := n.next.Load()
		n.next.Store(pack(unpackIdx(head), 0, bump(old)))
		schedPoint()
		if s.freeHead.CompareAndSwap(head, pack(idx, 0, bump(head))) {
			return
		}
	}
}

// FreeNodes counts the nodes currently on the free stack. Quiescent use
// only (tests, diagnostics).
func (s *Slab) FreeNodes() int {
	n := 0
	idx := unpackIdx(s.freeHead.Load())
	for idx != 0 {
		n++
		idx = unpackIdx(s.nodes[idx].next.Load())
	}
	return n
}

// Queue is a red-blue lock-free FIFO on a slab. Create with Slab.NewQueue.
//
// The dequeuers' words (head, deqs) and the enqueuers' words (tail,
// enqs) sit on cache lines of their own, so neither population's writes
// invalidate the other's line (classic false sharing on the
// Michael–Scott hot words). The element count is two counters for the
// same reason: one shared count would be read-modify-written by both
// sides on every operation.
type Queue struct {
	slab *Slab
	_    [64]byte
	head atomic.Uint64 // packed {idx, _, tag}: the dummy node
	deqs atomic.Int64  // completed dequeues; see Size
	_    [64]byte
	tail atomic.Uint64
	enqs atomic.Int64 // completed enqueues; see Size
	_    [64]byte
}

// NewQueue creates an empty queue with the given initial color,
// permanently consuming one slab node as its dummy.
func (s *Slab) NewQueue(initial Color) *Queue {
	d, ok := s.allocNode()
	if !ok {
		panic("rbq: slab exhausted creating queue dummy")
	}
	old := s.nodes[d].next.Load()
	s.nodes[d].next.Store(pack(0, initial, bump(old)))
	q := &Queue{slab: s}
	q.head.Store(pack(d, 0, 1))
	q.tail.Store(pack(d, 0, 1))
	return q
}

// Enqueue appends v and returns the queue color observed atomically with
// the append (the color the value was enqueued under). ok is false only
// if the slab is out of nodes — a sizing bug in the caller.
func (q *Queue) Enqueue(v uint32) (Color, bool) { return q.enqueue(v, false) }

// Stage is the submitter's whole half of the protocol when the worker is
// the queue's only consumer: append v and turn the queue red in the same
// publishing CAS. kick is true only for the append that observed blue —
// the one blue→red transition, whose caller owes the worker the kick;
// every later append finds red until the worker parks. Nothing is
// drained. ok is false as for Enqueue.
func (q *Queue) Stage(v uint32) (kick, ok bool) {
	c, ok := q.enqueue(v, true)
	return ok && c == Blue, ok
}

// enqueue is Enqueue and Stage: it appends v and returns the color it
// observed on the old tail's nil link. The new tail's nil link carries
// that color on, or Red when red is set.
func (q *Queue) enqueue(v uint32, red bool) (Color, bool) {
	s := q.slab
	n, ok := s.allocNode()
	if !ok {
		return 0, false
	}
	s.nodes[n].value.Store(v)
	for {
		schedPoint()
		tail := q.tail.Load()
		tn := &s.nodes[unpackIdx(tail)]
		next := tn.next.Load()
		if tail != q.tail.Load() {
			continue
		}
		if unpackIdx(next) != 0 {
			// Tail is lagging: help it forward and retry.
			q.tail.CompareAndSwap(tail, pack(unpackIdx(next), 0, bump(tail)))
			continue
		}
		c := unpackColor(next)
		// Propagate the color (or write red) into the new tail's nil
		// link before publication (the node is still private).
		nc := c
		if red {
			nc = Red
		}
		old := s.nodes[n].next.Load()
		s.nodes[n].next.Store(pack(0, nc, bump(old)))
		schedPoint()
		if tn.next.CompareAndSwap(next, pack(n, c, bump(next))) {
			schedPoint()
			q.tail.CompareAndSwap(tail, pack(n, 0, bump(tail)))
			schedPoint()
			q.enqs.Add(1)
			return c, true
		}
	}
}

// Dequeue removes and returns the oldest value. ok is false when the
// queue is empty.
func (q *Queue) Dequeue() (v uint32, ok bool) {
	s := q.slab
	for {
		schedPoint()
		head := q.head.Load()
		tail := q.tail.Load()
		hn := &s.nodes[unpackIdx(head)]
		next := hn.next.Load()
		if head != q.head.Load() {
			continue
		}
		if unpackIdx(next) == 0 {
			return 0, false
		}
		if unpackIdx(head) == unpackIdx(tail) {
			// Tail lagging behind a completed enqueue: help it.
			q.tail.CompareAndSwap(tail, pack(unpackIdx(next), 0, bump(tail)))
			continue
		}
		val := s.nodes[unpackIdx(next)].value.Load()
		schedPoint()
		if q.head.CompareAndSwap(head, pack(unpackIdx(next), 0, bump(head))) {
			schedPoint()
			q.deqs.Add(1)
			s.freeNode(unpackIdx(head))
			return val, true
		}
	}
}

// SetColor recolors the queue. As the protocol requires (Section 4.3),
// it succeeds only on an empty queue; ok is false and the queue is
// unchanged if the queue holds elements. On success the previous color is
// returned.
func (q *Queue) SetColor(newColor Color) (old Color, ok bool) {
	s := q.slab
	for {
		schedPoint()
		head := q.head.Load()
		hn := &s.nodes[unpackIdx(head)]
		next := hn.next.Load()
		if head != q.head.Load() {
			continue
		}
		if unpackIdx(next) != 0 {
			return 0, false // not empty
		}
		c := unpackColor(next)
		if c == newColor {
			return c, true
		}
		schedPoint()
		if hn.next.CompareAndSwap(next, pack(0, newColor, bump(next))) {
			return c, true
		}
	}
}

// Flush is the submitter's half of the Section 4.4 protocol as the paper
// runs it (package core), by a caller whose enqueue observed blue: drain
// the queue into drain, then recolor it red. A refused recolor means a
// neighbor staged meanwhile, so it drains again. kick is true only for the caller whose recolor
// turned the queue from blue to red: that caller owes the worker the one
// kick, and a flusher that found the queue red already owes nothing.
func (q *Queue) Flush(drain func(v uint32)) (kick bool) {
	for {
		q.Drain(drain)
		if old, ok := q.SetColor(Red); ok {
			return old == Blue
		}
	}
}

// Park is the worker's half: recolor the queue blue, handing flush duty
// (under Stage, kick duty) back to the submitters, before it sleeps. It
// fails, leaving the queue unchanged, when the queue is not empty; the
// worker then drains again.
func (q *Queue) Park() bool {
	_, ok := q.SetColor(Blue)
	return ok
}

// Color returns the queue's current color: the color on the tail's nil
// link (equivalently, on an empty queue, the dummy's nil link). The
// value is a racy snapshot; the atomically-coupled reads are the ones
// Enqueue, Stage and SetColor return.
func (q *Queue) Color() Color {
	s := q.slab
	for {
		tail := q.tail.Load()
		next := s.nodes[unpackIdx(tail)].next.Load()
		if unpackIdx(next) == 0 {
			return unpackColor(next)
		}
		// Tail lagging; follow the link.
		q.tail.CompareAndSwap(tail, pack(unpackIdx(next), 0, bump(tail)))
	}
}

// Empty reports whether the queue currently has no elements (racy
// snapshot).
func (q *Queue) Empty() bool {
	head := q.head.Load()
	return unpackIdx(q.slab.nodes[unpackIdx(head)].next.Load()) == 0
}

// Size returns the element count, enqueues minus dequeues, safe to read
// from any goroutine with no data race (unlike Len's pointer walk).
// Each counter is bumped after its operation's CAS publishes, so a
// reader can transiently observe a count off by the operations in
// flight — exactly the fidelity queue-depth watermarks need. deqs is
// read first: a dequeue that lands between the two loads can then only
// make the count read high. A dequeue whose enqueuer has not bumped
// enqs yet can still make it read negative; that is clamped to 0. Each
// side pays one atomic add per operation, on the line it already writes.
func (q *Queue) Size() int {
	d := q.deqs.Load()
	n := q.enqs.Load() - d
	if n < 0 {
		n = 0
	}
	return int(n)
}

// Len walks the queue and counts elements. Quiescent use only — under
// concurrent mutation the walk may miscount.
func (q *Queue) Len() int {
	s := q.slab
	n := 0
	idx := unpackIdx(s.nodes[unpackIdx(q.head.Load())].next.Load())
	for idx != 0 && n <= s.Capacity() {
		n++
		idx = unpackIdx(s.nodes[idx].next.Load())
	}
	return n
}

// Snapshot walks the queue and returns its values in FIFO order.
// Quiescent use only (tests, audits) — under concurrent mutation the
// walk may duplicate or miss elements.
func (q *Queue) Snapshot() []uint32 {
	s := q.slab
	var out []uint32
	idx := unpackIdx(s.nodes[unpackIdx(q.head.Load())].next.Load())
	for idx != 0 && len(out) <= s.Capacity() {
		out = append(out, s.nodes[idx].value.Load())
		idx = unpackIdx(s.nodes[idx].next.Load())
	}
	return out
}

// Drain dequeues into fn until it finds the queue empty. Concurrent
// enqueues may keep it going; the caller's protocol (the red-blue color)
// bounds that. It is the one drain loop: Flush, core's worker and
// realtime's worker all drain through it.
func (q *Queue) Drain(fn func(v uint32)) {
	for v, ok := q.Dequeue(); ok; v, ok = q.Dequeue() {
		fn(v)
	}
}
