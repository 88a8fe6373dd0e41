package uapi_test

// Conservation and linearizability of the Area protocol under
// systematically explored interleavings: application threads allocate,
// stage, retrieve and free request slots while a kernel thread flushes
// and completes them, all scheduled deterministically by seed. After
// every run, (a) the recorded queue-operation history must linearize
// against the ownership model — each index in exactly one place at every
// linearization point — and (b) the quiescent Audit must account for
// every slot. Failures print the seed that replays them.

import (
	"errors"
	"fmt"
	"math/rand"
	"testing"

	"memif/internal/check"
	"memif/internal/rbq"
	"memif/internal/uapi"
)

// areaClient is one history-recording actor on the shared area.
type areaClient struct {
	id   int
	hist *check.History
	a    *uapi.Area
	held []uint32
}

func (c *areaClient) queue(q check.AreaQueue) *rbq.Queue {
	switch q {
	case check.AQFree:
		return c.a.FreeList
	case check.AQStaging:
		return c.a.Staging
	case check.AQSubmission:
		return c.a.Submission
	case check.AQCompOK:
		return c.a.CompOK
	default:
		return c.a.CompFail
	}
}

// deq dequeues from q, recording the op; a successful dequeue moves the
// index into the client's held set.
func (c *areaClient) deq(q check.AreaQueue) (uint32, bool) {
	var idx uint32
	var ok bool
	c.hist.Record(c.id, check.AOp{Queue: q}, func() any {
		idx, ok = c.queue(q).Dequeue()
		return check.ARes{Idx: idx, Ok: ok}
	})
	if ok {
		if _, valid := c.a.Req(idx); !valid {
			panic(fmt.Sprintf("client %d: invalid index %d off %v", c.id, idx, q))
		}
		c.held = append(c.held, idx)
	}
	return idx, ok
}

// enq enqueues a held index onto q, recording the op; success removes it
// from the held set.
func (c *areaClient) enq(q check.AreaQueue, idx uint32) bool {
	pos := -1
	for i, h := range c.held {
		if h == idx {
			pos = i
		}
	}
	if pos < 0 {
		panic(fmt.Sprintf("client %d: enqueueing %d it does not hold", c.id, idx))
	}
	var ok bool
	c.hist.Record(c.id, check.AOp{Queue: q, Enq: true, Idx: idx}, func() any {
		_, ok = c.queue(q).Enqueue(idx)
		return check.ARes{Ok: ok}
	})
	if ok {
		c.held = append(c.held[:pos], c.held[pos+1:]...)
	}
	return ok
}

func runAreaSchedule(seed int64) error {
	const nReqs = 6
	a := uapi.NewArea(nReqs)
	s := check.NewSched(seed)
	rbq.SetSchedHook(s.YieldHook())
	defer rbq.SetSchedHook(nil)

	const nApps = 2
	hist := check.NewHistory(nApps + 1)
	clients := make([]*areaClient, nApps+1)
	for i := range clients {
		clients[i] = &areaClient{id: i, hist: hist, a: a}
	}

	// Deterministic per-thread scripts, derived from the seed.
	for app := 0; app < nApps; app++ {
		app := app
		c := clients[app]
		rng := rand.New(rand.NewSource(seed*1000 + int64(app)))
		s.Go(func(t *check.Thread) {
			for step := 0; step < 10; step++ {
				switch rng.Intn(3) {
				case 0: // allocate and stage a request
					if idx, ok := c.deq(check.AQFree); ok {
						c.enq(check.AQStaging, idx)
					}
				case 1: // retrieve a completion and free the slot
					if idx, ok := c.deq(check.AQCompOK); ok {
						c.enq(check.AQFree, idx)
					}
				case 2: // retrieve a failure and free the slot
					if idx, ok := c.deq(check.AQCompFail); ok {
						c.enq(check.AQFree, idx)
					}
				}
			}
		})
	}
	// The kernel thread: flush staging into submission, serve
	// submissions into the two completion queues.
	kc := clients[nApps]
	krng := rand.New(rand.NewSource(seed*1000 + 999))
	s.Go(func(t *check.Thread) {
		for step := 0; step < 14; step++ {
			if idx, ok := kc.deq(check.AQStaging); ok {
				kc.enq(check.AQSubmission, idx)
			}
			if idx, ok := kc.deq(check.AQSubmission); ok {
				if krng.Intn(4) == 0 {
					kc.enq(check.AQCompFail, idx)
				} else {
					kc.enq(check.AQCompOK, idx)
				}
			}
		}
	})

	if err := s.Run(); err != nil {
		return err
	}
	// (a) The combined queue-op history linearizes against the
	// ownership model.
	if r := check.CheckHistory(check.AreaModel(nReqs), hist); !r.Ok {
		return errors.New(r.Info)
	}
	// (b) Quiescent conservation: every index in exactly one place.
	var held []uint32
	for _, c := range clients {
		held = append(held, c.held...)
	}
	if err := a.Audit(held); err != nil {
		return err
	}
	return nil
}

func TestAreaConservationUnderSchedules(t *testing.T) {
	seeds := 120
	if testing.Short() {
		seeds = 25
	}
	if err := check.Explore(seeds, 1, runAreaSchedule); err != nil {
		t.Fatal(err) // the error names the replay seed
	}
}

func TestAuditDetectsVanishedIndex(t *testing.T) {
	a := uapi.NewArea(4)
	if err := a.Audit(nil); err != nil {
		t.Fatalf("fresh area fails audit: %v", err)
	}
	r := a.AllocReq()
	if r == nil {
		t.Fatal("alloc failed")
	}
	// Not freed and not declared held: the index has vanished.
	if err := a.Audit(nil); err == nil {
		t.Fatal("audit missed a vanished index")
	}
	// Declared held: accounted for.
	if err := a.Audit([]uint32{r.Index()}); err != nil {
		t.Fatalf("audit rejects a held index: %v", err)
	}
	// Double-counted: held but also back on the free list.
	a.FreeReq(r)
	if err := a.Audit([]uint32{r.Index()}); err == nil {
		t.Fatal("audit missed a doubly-owned index")
	}
	if err := a.Audit(nil); err != nil {
		t.Fatalf("audit after free: %v", err)
	}
}
