package realtime

// Linearizability of the production submission scheduler: concurrent
// submitters stage every class on one red-blue staging queue under the
// Section 4.4 protocol while the worker takes its production steps —
// tenantSched.drain (the submission queue, then staging, into the
// buckets) and tenantSched.pop — with every rbq operation yielding to
// the deterministic scheduler. Each history must linearize against the
// sequential models in internal/check — SubmissionModel for the
// single-tenant priority+aging discipline, DRRSubmissionModel for the
// weighted multi-tenant refinement. This is the same treatment the
// red-blue queue itself gets in internal/rbq.

import (
	"fmt"
	"testing"

	"memif/internal/check"
	"memif/internal/rbq"
)

// tsTenantOf encodes ownership in the value itself so the owner lookup
// needs no shared mutable state: value v belongs to tenant v/100.
func tsTenantOf(v uint32) uint32 { return v / 100 }

// drrOwner is runTenantSchedDRR's owner lookup: tenants 1 and 2 submit
// foreground, tenant 3 background.
func drrOwner(v uint32) (int, uint32) {
	ten := tsTenantOf(v)
	if ten == 3 {
		return 1, ten
	}
	return 0, ten
}

// runTenantSchedProtocol drives one scheduler under one seed and checks
// the history against m. producers[p] is the values client p submits, in
// order. Producer 0 submits as Submit does: it stages, and when its
// enqueue observes blue it flushes staging onto the submission queue and
// kicks the worker. The others only stage, leaving their values to the
// next flush or to the worker. The worker starts asleep, as the device's
// does; kicked — or once every producer has returned — it takes pops
// recorded steps of drain-then-pop and parks staging whenever a pop
// finds nothing, sleeping again if the recolor succeeds and the
// submission queue is still empty after it, as the device's does.
//
// One flusher keeps staging's consumers exclusive — the flush while the
// worker sleeps, the worker while it is awake — which is what the drain
// order relies on. Two concurrent flushers are weaker than the models:
// one can hold a staged value between its dequeue and its
// submission-queue enqueue while the other recolors and kicks, and the
// woken worker drains values staged after it first.
func runTenantSchedProtocol(seed int64, m check.Model, numClasses int, owner func(uint32) (int, uint32),
	weightOf func(uint32) int64, aging int64, producers [][]uint32, pops int) error {
	slab := rbq.NewSlab(512)
	submission, staging := slab.NewQueue(rbq.Blue), slab.NewQueue(rbq.Blue)
	sched := newTenantSched(submission, staging, numClasses, owner, weightOf, aging)

	worker := len(producers)
	hist := check.NewHistory(worker + 1)
	s := check.NewSched(seed)
	rbq.SetSchedHook(s.YieldHook())
	defer rbq.SetSchedHook(nil)

	var kicks, woken, returned int
	for p, vals := range producers {
		s.Go(func(t *check.Thread) {
			for _, v := range vals {
				class, ten := owner(v)
				hist.Record(p, check.TOp{Push: true, Class: class, Tenant: ten, V: v}, func() any {
					c, ok := staging.Enqueue(v)
					if ok && c == rbq.Blue && p == 0 &&
						staging.Flush(func(v uint32) { submission.Enqueue(v) }) {
						kicks++
					}
					return check.TRes{Ok: ok}
				})
				t.Yield()
			}
			returned++
		})
	}
	s.Go(func(t *check.Thread) {
		asleep := true
		for i := 0; i < pops; i++ {
			for asleep {
				switch {
				case kicks > woken:
					woken++
					asleep = false
				case returned == len(producers):
					asleep = false
				default:
					t.Yield()
				}
			}
			var popped bool
			hist.Record(worker, check.TOp{}, func() any {
				sched.drain(func(uint32) {})
				idx, ten, aged, ok := sched.pop()
				popped = ok
				return check.TRes{V: idx, Tenant: ten, Aged: aged, Ok: ok}
			})
			if !popped && staging.Park() && submission.Empty() {
				asleep = true
			}
			t.Yield()
		}
	})
	if err := s.Run(); err != nil {
		return err
	}
	if r := check.CheckHistory(m, hist); !r.Ok {
		return fmt.Errorf("not linearizable: %s", r.Info)
	}
	return nil
}

// runTenantSchedDRR drives the real scheduler under one seed: three
// tenants across two classes, tenant 1 at weight 2, and checks the
// history against the DRR model.
func runTenantSchedDRR(seed int64) error {
	weightOf := func(ten uint32) int64 {
		if ten == 1 {
			return 2
		}
		return 1
	}
	const numClasses, aging = 2, 3
	return runTenantSchedProtocol(seed, check.DRRSubmissionModel(numClasses, aging, weightOf),
		numClasses, drrOwner, weightOf, aging,
		[][]uint32{
			{100, 101, 102}, // tenant 1, foreground, the flusher
			{200, 201},      // tenant 2, foreground
			{300, 301},      // tenant 3, background
		}, 10)
}

// runTenantSchedSingle drives the scheduler in its degenerate
// single-tenant configuration — every value owned by tenant 0 — and
// checks against the plain priority+aging model, pinning that the DRR
// layer preserves the PR 5 discipline exactly.
func runTenantSchedSingle(seed int64) error {
	const numClasses, aging = 3, 2
	// Value 10*(class+1)+i is the i-th push at class: the class is the
	// value's tens digit less one, and every value belongs to tenant 0.
	owner := func(v uint32) (int, uint32) { return int(v/10) - 1, 0 }
	var producers [][]uint32
	for class := 0; class < numClasses; class++ {
		var vals []uint32
		for i := 0; i < 3; i++ {
			vals = append(vals, uint32(10*(class+1)+i))
		}
		producers = append(producers, vals)
	}
	return runTenantSchedProtocol(seed, check.SubmissionModel(numClasses, aging),
		numClasses, owner, func(uint32) int64 { return 1 }, aging, producers, 12)
}

func TestTenantSchedLinearizableDRR(t *testing.T) {
	if err := check.Explore(48, 1, runTenantSchedDRR); err != nil {
		t.Fatalf("production DRR scheduler produced a non-linearizable history: %v", err)
	}
}

func TestTenantSchedLinearizableSingleTenant(t *testing.T) {
	if err := check.Explore(48, 1, runTenantSchedSingle); err != nil {
		t.Fatalf("production scheduler violated the priority+aging spec: %v", err)
	}
}
