package realtime

// Linearizability of the production submission scheduler: concurrent
// submitters enqueue every class on the one shared red-blue submission
// queue while the worker pops through tenantSched, with every rbq operation yielding to
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
	const numClasses = 2
	queue := rbq.NewSlab(512).NewQueue(rbq.Blue)
	sched := newTenantSched(queue, numClasses, drrOwner, weightOf, 3)

	hist := check.NewHistory(4)
	s := check.NewSched(seed)
	rbq.SetSchedHook(s.YieldHook())
	defer rbq.SetSchedHook(nil)

	push := func(t *check.Thread, client int, vals ...uint32) {
		for _, v := range vals {
			v := v
			class, ten := drrOwner(v)
			hist.Record(client, check.TOp{Push: true, Class: class, Tenant: ten, V: v}, func() any {
				_, ok := queue.Enqueue(v)
				return check.TRes{Ok: ok}
			})
			t.Yield()
		}
	}
	s.Go(func(t *check.Thread) { push(t, 0, 100, 101, 102) }) // tenant 1, foreground
	s.Go(func(t *check.Thread) { push(t, 1, 200, 201) })      // tenant 2, foreground
	s.Go(func(t *check.Thread) { push(t, 2, 300, 301) })      // tenant 3, background
	s.Go(func(t *check.Thread) {                              // the worker
		for i := 0; i < 10; i++ {
			hist.Record(3, check.TOp{}, func() any {
				idx, ten, aged, ok := sched.pop()
				return check.TRes{V: idx, Tenant: ten, Aged: aged, Ok: ok}
			})
			t.Yield()
		}
	})
	if err := s.Run(); err != nil {
		return err
	}
	m := check.DRRSubmissionModel(numClasses, 3, weightOf)
	if r := check.CheckHistory(m, hist); !r.Ok {
		return fmt.Errorf("not linearizable: %s", r.Info)
	}
	return nil
}

// runTenantSchedSingle drives the scheduler in its degenerate
// single-tenant configuration — every value owned by tenant 0 — and
// checks against the plain priority+aging model, pinning that the DRR
// layer preserves the PR 5 discipline exactly.
func runTenantSchedSingle(seed int64) error {
	const numClasses = 3
	queue := rbq.NewSlab(512).NewQueue(rbq.Blue)
	// Value 10*(class+1)+i is the i-th push at class: the class is the
	// value's tens digit less one, and every value belongs to tenant 0.
	owner := func(v uint32) (int, uint32) { return int(v/10) - 1, 0 }
	sched := newTenantSched(queue, numClasses, owner, func(uint32) int64 { return 1 }, 2)

	hist := check.NewHistory(4)
	s := check.NewSched(seed)
	rbq.SetSchedHook(s.YieldHook())
	defer rbq.SetSchedHook(nil)

	for class := 0; class < numClasses; class++ {
		class := class
		s.Go(func(t *check.Thread) {
			for i := 0; i < 3; i++ {
				v := uint32(10*(class+1) + i)
				hist.Record(class, check.TOp{Push: true, Class: class, V: v}, func() any {
					_, ok := queue.Enqueue(v)
					return check.TRes{Ok: ok}
				})
				t.Yield()
			}
		})
	}
	s.Go(func(t *check.Thread) {
		for i := 0; i < 12; i++ {
			hist.Record(3, check.TOp{}, func() any {
				idx, ten, aged, ok := sched.pop()
				return check.TRes{V: idx, Tenant: ten, Aged: aged, Ok: ok}
			})
			t.Yield()
		}
	})
	if err := s.Run(); err != nil {
		return err
	}
	if r := check.CheckHistory(check.SubmissionModel(numClasses, 2), hist); !r.Ok {
		return fmt.Errorf("not linearizable: %s", r.Info)
	}
	return nil
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
