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
