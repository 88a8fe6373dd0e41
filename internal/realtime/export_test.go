package realtime

// Test-only helpers: no program calls them.

// queuedTotal reports how many requests sit in the worker-local buckets
// (zero whenever pop has returned !ok and nothing was enqueued since).
func (s *tenantSched) queuedTotal() int {
	n := 0
	for c := range s.classes {
		n += s.classes[c].queued
	}
	return n
}

// next is one worker step on a bare scheduler: drain (no Device, so
// nothing to stamp on the way in from staging), then pop.
func (s *tenantSched) next() (idx, tenant uint32, aged, ok bool) {
	s.drain(func(uint32) {})
	return s.pop()
}
