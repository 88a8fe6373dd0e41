package realtime

// Tenant-aware submission scheduling: weighted deficit round robin
// between tenants inside each priority class, strict priority with the
// PR 5 aging credit preserved across classes.
//
// The lock-free submit path is untouched — submitters stage every class
// on the device's one red-blue staging queue, whose only consumer is the
// worker. It drains staging straight into worker-local per-(class,
// tenant) FIFO buckets, so each bucket keeps staging order, and serves
// them with classic DRR: on each
// visit a tenant's deficit is topped up by its weight (the quantum, in
// requests), one request costs one deficit unit, and a bucket that
// empties is deactivated with its deficit reset — no banking while idle.
// A tenant with weight w therefore gets w consecutive pops per round
// while backlogged, and the long-run service ratio between backlogged
// tenants converges to their weight ratio.
//
// Everything here runs on the worker goroutine only (the same
// single-consumer discipline the aging credits already relied on), so
// the buckets need no synchronization. When the scheduler reports empty
// the buckets are empty too — the worker can only go to sleep, recolor,
// or exit through that path, which keeps the AuditSlots accounting
// exact: a parked device holds no indices in scheduler buckets.
//
// The type is deliberately self-contained (the staging queue plus two
// lookup closures) so the linearizability suite can drive the exact
// production drain and discipline through rbq sched-hook yield points
// against the internal/check sequential models.

import "memif/internal/rbq"

// tenantSched orders the staged requests by class, then across tenants.
//
// False-sharing audit note (PR 8): everything below — credits, drrClass
// maps/slices, drrBucket deficits — is touched by exactly one goroutine,
// the dispatch worker. Single-writer-single-reader state needs no
// cache-line padding; the lines live dirty in the worker's L1 and no
// other core ever requests them. Only the shared rbq queue it drains
// carries cross-core traffic, and that is padded in rbq.Queue itself.
type tenantSched struct {
	staging *rbq.Queue // shared, lock-free; the worker is its only consumer

	owner    func(idx uint32) (class int, tenant uint32) // slot index -> its class and tenant
	weightOf func(tenant uint32) int64                   // tenant id -> DRR quantum (requests/round)
	aging    int64                                       // pops a lower class may be passed over
	credits  []int64                                     // per-class aging credits
	classes  []drrClass                                  // per-class worker-local DRR state
}

// drrClass is one priority class's DRR round: the set of tenants with
// buffered work, in round-robin visit order, plus a cursor.
type drrClass struct {
	buckets map[uint32]*drrBucket
	active  []uint32 // tenant ids with queued work, visit order
	cur     int      // index into active of the tenant being served
	queued  int      // total requests buffered across buckets
}

// drrBucket is one tenant's FIFO inside one class.
type drrBucket struct {
	fifo    []uint32
	head    int
	deficit int64
}

func newTenantSched(staging *rbq.Queue, numClasses int, owner func(uint32) (int, uint32), weightOf func(uint32) int64, aging int64) *tenantSched {
	s := &tenantSched{
		staging:  staging,
		owner:    owner,
		weightOf: weightOf,
		aging:    aging,
		credits:  make([]int64, numClasses),
		classes:  make([]drrClass, numClasses),
	}
	for c := range s.classes {
		s.classes[c].buckets = make(map[uint32]*drrBucket)
	}
	return s
}

// drain moves everything on staging into the worker-local buckets,
// passing every index through staged on its way in. Staging is FIFO and
// this is its only consumer, so each bucket keeps staging order. A
// Dequeue observing empty is a linearization point, so any enqueue that
// completed before the drain began is included.
func (s *tenantSched) drain(staged func(idx uint32)) {
	s.staging.Drain(func(idx uint32) {
		staged(idx)
		class, tenant := s.owner(idx)
		s.classes[class].push(tenant, idx)
	})
}

// pop returns the next request index under the full discipline: an aged
// lower class is served first (one pop, credit reset), then classes in
// strict priority order, DRR between tenants within the chosen class.
// aged reports an out-of-order pop; tenant is the owner of the returned
// index. It serves the buckets alone: drain fills them.
func (s *tenantSched) pop() (idx, tenant uint32, aged, ok bool) {
	// Serve an aged class first: it has been passed over aging times
	// while non-empty, so it gets one pop out of strict-priority order.
	for c := 1; c < len(s.classes); c++ {
		if s.credits[c] < s.aging {
			continue
		}
		if idx, tenant, ok := s.classes[c].pop(s.weightOf); ok {
			s.credits[c] = 0
			return idx, tenant, true, true
		}
		s.credits[c] = 0 // went empty while aging: nothing owed
	}
	for c := range s.classes {
		idx, tenant, ok := s.classes[c].pop(s.weightOf)
		if !ok {
			continue
		}
		// Every lower non-empty class just lost a turn; remember it.
		for l := c + 1; l < len(s.classes); l++ {
			if s.classes[l].queued > 0 {
				s.credits[l]++
			}
		}
		return idx, tenant, false, true
	}
	return 0, 0, false, false
}

// push buffers idx on tenant's FIFO, activating the tenant at the tail
// of the round when its bucket was empty.
func (c *drrClass) push(tenant, idx uint32) {
	b := c.buckets[tenant]
	if b == nil {
		b = &drrBucket{}
		c.buckets[tenant] = b
	}
	if b.head == len(b.fifo) {
		b.fifo = b.fifo[:0]
		b.head = 0
		c.active = append(c.active, tenant)
	}
	b.fifo = append(b.fifo, idx)
	c.queued++
}

// pop serves one request from the tenant under the cursor. The deficit
// is topped up by the tenant's weight when exhausted (the DRR quantum
// grant, once per visit), decremented one unit per request; the cursor
// advances when the quantum is spent, and a bucket that empties is
// deactivated with its deficit reset.
func (c *drrClass) pop(weightOf func(uint32) int64) (idx, tenant uint32, ok bool) {
	if c.queued == 0 {
		return 0, 0, false
	}
	if c.cur >= len(c.active) {
		c.cur = 0
	}
	tenant = c.active[c.cur]
	b := c.buckets[tenant]
	if b.deficit <= 0 {
		w := weightOf(tenant)
		if w < 1 {
			w = 1
		}
		b.deficit += w
	}
	idx = b.fifo[b.head]
	b.head++
	b.deficit--
	c.queued--
	if b.head == len(b.fifo) {
		// Emptied: deactivate and forget the unspent deficit (idle
		// tenants don't bank service).
		b.deficit = 0
		b.fifo = b.fifo[:0]
		b.head = 0
		c.active = append(c.active[:c.cur], c.active[c.cur+1:]...)
	} else if b.deficit <= 0 {
		c.cur++
	}
	return idx, tenant, true
}
