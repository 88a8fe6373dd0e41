package rbq_test

// The Section 4.4 submit protocol, model-checked once over the real
// Queue.Flush and Queue.Park that both engines call. Each submitter
// stages its values; one whose enqueue observed blue calls Flush and
// counts a kick when Flush says so. One worker sleeps — a Yield loop on
// the kick count — until a kick is pending, then drains and parks,
// draining again while Park refuses. check.Sched serializes the threads
// and may preempt them at every step of the lock-free queue, and at each
// of those points a monitor samples the queue's color. Every schedule
// must keep three claims:
//
//  1. exactly one kick per blue→red transition of the queue;
//  2. once the worker sleeps with no kick pending and every submitter has
//     returned, nothing staged is left behind, and every value was
//     delivered exactly once;
//  3. an enqueue that observes red finds the worker responsible for its
//     value — a kick pending or the worker awake — so a submitter that
//     saw only red never has to flush.
//
// The model runs two ways: PCT over a fixed seed corpus, and every
// schedule of 2 submitters × 2 values with at most 2 preemptions. Two
// deliberately broken protocols, defined here, must fail it.

import (
	"fmt"
	"slices"
	"strings"
	"testing"

	"memif/internal/check"
	"memif/internal/rbq"
)

// protocol is the pair of steps under test.
type protocol struct {
	flush func(q *rbq.Queue, drain func(uint32)) (kick bool)
	park  func(q *rbq.Queue) bool
}

var memifProtocol = protocol{flush: (*rbq.Queue).Flush, park: (*rbq.Queue).Park}

// runProtocol runs one schedule of subs submitters × reqs values and
// one worker on s, and reports the first broken claim.
func runProtocol(s *check.Sched, p protocol, subs, reqs int) error {
	// Room for every value, the dummy and each thread's recycling window.
	q := rbq.NewSlab(2*subs*reqs + 2).NewQueue(rbq.Blue)
	var (
		kicks, woken, returned, blueToRed int
		awake                             bool // from a wake to the worker's next Park
		last                              = rbq.Blue
		delivered                         = map[uint32]int{}
	)
	watch := func() {
		if c := q.ColorForTest(); c != last {
			if c == rbq.Red {
				blueToRed++
			}
			last = c
		}
	}
	hook := s.YieldHook()
	rbq.SetSchedHook(func() { watch(); hook() })
	defer rbq.SetSchedHook(nil)
	deliver := func(v uint32) { delivered[v]++ }

	for i := 0; i < subs; i++ {
		s.Go(func(*check.Thread) {
			for j := 0; j < reqs; j++ {
				v := uint32(i*reqs + j + 1)
				c, ok := q.Enqueue(v)
				switch {
				case !ok:
					panic("slab exhausted")
				case c == rbq.Blue:
					if p.flush(q, deliver) {
						kicks++
					}
				case kicks == woken && !awake && slices.Contains(q.Snapshot(), v):
					panic(fmt.Sprintf("claim 3: value %d staged under red with no kick pending and the worker asleep", v))
				}
			}
			returned++
		})
	}
	s.Go(func(t *check.Thread) {
		for {
			for kicks == woken {
				if returned == subs {
					if n := q.Len(); n != 0 {
						panic(fmt.Sprintf("claim 2: the worker sleeps with no kick pending and %d values staged", n))
					}
					return
				}
				t.Yield()
			}
			woken, awake = woken+1, true
			for {
				q.Drain(deliver)
				if p.park(q) {
					break
				}
			}
			awake = false
		}
	})
	if err := s.Run(); err != nil {
		return err
	}
	watch()
	if kicks != blueToRed {
		return fmt.Errorf("claim 1: %d kicks for %d blue→red transitions", kicks, blueToRed)
	}
	for v := uint32(1); v <= uint32(subs*reqs); v++ {
		if delivered[v] != 1 {
			return fmt.Errorf("claim 2: value %d delivered %d times", v, delivered[v])
		}
	}
	return nil
}

// pctProtocol is the PCT leg: a fixed corpus of seeds, 3 submitters × 3
// values, at most 3 priority changes per run.
func pctProtocol(p protocol) error {
	seeds := 300
	if testing.Short() {
		seeds = 60
	}
	return check.Explore(seeds, 1, func(seed int64) error {
		return runProtocol(check.NewSchedConfig(seed, check.SchedConfig{MaxPreemptions: 3}), p, 3, 3)
	})
}

// exhaustiveProtocol is the bounded-exhaustive leg: every schedule of 2
// submitters × 2 values with at most 2 preemptions.
func exhaustiveProtocol(p protocol) (int, error) {
	return check.ExploreBounded(2, func(s *check.Sched) error { return runProtocol(s, p, 2, 2) })
}

func TestProtocolPCT(t *testing.T) {
	if err := pctProtocol(memifProtocol); err != nil {
		t.Fatal(err)
	}
}

// TestProtocolExhaustive visits 36,028 schedules: about 3 s on a 2-vCPU
// host and 12 s under -race, so -short leaves it to the PCT leg.
func TestProtocolExhaustive(t *testing.T) {
	if testing.Short() {
		t.Skip("bounded-exhaustive pass in long mode only")
	}
	n, err := exhaustiveProtocol(memifProtocol)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("%d schedules", n)
}

// expectCaught runs both legs on a broken protocol: each must fail with
// one of the claims named and print the failing schedule.
func expectCaught(t *testing.T, p protocol, claims ...string) {
	t.Helper()
	_, exhaustive := exhaustiveProtocol(p)
	for _, leg := range []struct {
		name string
		err  error
	}{{"exhaustive", exhaustive}, {"pct", pctProtocol(p)}} {
		name, err := leg.name, leg.err
		if err == nil {
			t.Errorf("%s: the broken protocol passed", name)
			continue
		}
		msg, _, _ := strings.Cut(err.Error(), "\n") // drop the panicking thread's stack
		if !slices.ContainsFunc(claims, func(c string) bool { return strings.Contains(msg, c) }) {
			t.Errorf("%s: failed on the wrong claim, want %v: %s", name, claims, msg)
			continue
		}
		t.Logf("%s: %s", name, msg)
	}
}

// TestProtocolCatchesRedKick: a flush that kicks whenever its recolor
// succeeds, red→red included, owes the worker a second kick for one
// transition.
func TestProtocolCatchesRedKick(t *testing.T) {
	expectCaught(t, protocol{
		flush: func(q *rbq.Queue, drain func(uint32)) bool {
			for {
				q.Drain(drain)
				if _, ok := q.SetColor(rbq.Red); ok {
					return true
				}
			}
		},
		park: (*rbq.Queue).Park,
	}, "claim 1")
}

// TestProtocolCatchesParklessSleep: a worker that sleeps without Park
// leaves the queue red, so later values are staged for nobody.
func TestProtocolCatchesParklessSleep(t *testing.T) {
	expectCaught(t, protocol{
		flush: (*rbq.Queue).Flush,
		park:  func(*rbq.Queue) bool { return true },
	}, "claim 2", "claim 3")
}
