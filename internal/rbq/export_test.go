package rbq

// Test-only access to the packed words, so the linearizability tests can
// drive the 32-bit ABA tags through wraparound (a state a natural run
// would need 2^32 writes per word to reach). Quiescent use only.

// ForceTagsForTest rewrites the tag of every node link and of the
// free-stack head to tag, preserving indices and colors.
func (s *Slab) ForceTagsForTest(tag uint32) {
	for i := range s.nodes {
		w := s.nodes[i].next.Load()
		s.nodes[i].next.Store(pack(unpackIdx(w), unpackColor(w), tag))
	}
	h := s.freeHead.Load()
	s.freeHead.Store(pack(unpackIdx(h), 0, tag))
}

// ForceTagsForTest rewrites the queue's head and tail word tags.
func (q *Queue) ForceTagsForTest(tag uint32) {
	h := q.head.Load()
	q.head.Store(pack(unpackIdx(h), 0, tag))
	t := q.tail.Load()
	q.tail.Store(pack(unpackIdx(t), 0, tag))
}

// ColorForTest reads the queue color the way Color does but without
// helping a lagging tail forward, so the protocol model's monitor can
// sample it at every scheduling point without changing the run.
func (q *Queue) ColorForTest() Color {
	w := q.slab.nodes[unpackIdx(q.tail.Load())].next.Load()
	for unpackIdx(w) != 0 {
		w = q.slab.nodes[unpackIdx(w)].next.Load()
	}
	return unpackColor(w)
}

// TagOfFreeHeadForTest returns the free-stack head's current tag, so the
// wraparound test can assert the tags actually crossed zero.
func (s *Slab) TagOfFreeHeadForTest() uint32 { return unpackTag(s.freeHead.Load()) }

// AllocNode exposes the slab's internal Treiber free stack to
// TestFreeStackLinearizable, which records alloc/release histories and
// checks them against internal/check's sequential LIFO spec. Production
// callers go through Queue, which allocates internally.
func (s *Slab) AllocNode() (uint32, bool) { return s.allocNode() }

// ReleaseNode is AllocNode's inverse, for the same test.
// Releasing a node that is linked into a queue corrupts the slab.
func (s *Slab) ReleaseNode(idx uint32) { s.freeNode(idx) }
