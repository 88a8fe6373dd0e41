package rbq_test

// The Section 4.4 submit protocol, model-checked over the real queue
// steps both engines call. It runs in two forms. In the paper's, which
// package core keeps, each submitter enqueues its values and one whose
// enqueue observed blue calls Flush, delivering what it drains, and
// counts a kick when Flush says so. In realtime's, each submitter calls
// Stage and counts a kick when Stage says so; it drains nothing. One
// worker sleeps — a Yield loop on the kick count — until a kick is
// pending, then drains, delivering, and parks, draining again while Park
// refuses. check.Sched serializes the threads and may preempt them at
// every step of the lock-free queue, and at each of those points a
// monitor samples the queue's color. Every schedule must keep three
// claims:
//
//  1. exactly one kick per blue→red transition of the queue;
//  2. once the worker sleeps with no kick pending and every submitter has
//     returned, nothing staged is left behind, and every value was
//     delivered exactly once;
//  3. a submitter that owes no kick finds its value delivered or the
//     worker responsible for it — a kick pending, the worker awake, or
//     a blue→red transition whose kick is still owed (under Stage, the
//     transition is published inside Stage and kicked after it returns,
//     so a neighbor can observe red in between) — so a submitter that
//     saw only red never has to flush.
//
// Realtime's form keeps a fourth:
//
//  4. each submitter's values are delivered in the order it submitted
//     them.
//
// Each form runs two ways: PCT over a fixed seed corpus, and every
// schedule of 2 submitters × 2 values with at most 2 preemptions.
// Deliberately broken protocols, defined here, must fail it — among
// them the paper's form held to claim 4, as realtime ran it while a
// submitter's flush fed the worker: two flushers can deliver one
// submitter's values out of order.

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
	// submit puts v on the queue and reports whether the caller owes the
	// worker a kick; a flushing submitter delivers what it drains.
	submit func(q *rbq.Queue, v uint32, deliver func(uint32)) (kick bool)
	park   func(q *rbq.Queue) bool
	// ordered holds the run to claim 4.
	ordered bool
}

// flushSubmit is the paper's submitter: enqueue, and flush on blue.
func flushSubmit(q *rbq.Queue, v uint32, deliver func(uint32)) bool {
	c, ok := q.Enqueue(v)
	if !ok {
		panic("slab exhausted")
	}
	return c == rbq.Blue && q.Flush(deliver)
}

// stageSubmit is realtime's submitter: stage, and nothing else.
func stageSubmit(q *rbq.Queue, v uint32, _ func(uint32)) bool {
	kick, ok := q.Stage(v)
	if !ok {
		panic("slab exhausted")
	}
	return kick
}

var (
	flushProtocol = protocol{submit: flushSubmit, park: (*rbq.Queue).Park}
	stageProtocol = protocol{submit: stageSubmit, park: (*rbq.Queue).Park, ordered: true}
)

// legs are the two correct forms, each run by both exploration legs.
var legs = []struct {
	name string
	p    protocol
}{{"flush", flushProtocol}, {"stage", stageProtocol}}

// runProtocol runs one schedule of subs submitters × reqs values and
// one worker on s, and reports the first broken claim. Submitter i's
// values are i*reqs+1 .. i*reqs+reqs, submitted in increasing order.
func runProtocol(s *check.Sched, p protocol, subs, reqs int) error {
	// Room for every value, the dummy and each thread's recycling window.
	q := rbq.NewSlab(2*subs*reqs + 2).NewQueue(rbq.Blue)
	var (
		kicks, woken, returned, blueToRed int
		awake                             bool // from a wake to the worker's next Park
		last                              = rbq.Blue
		delivered                         = map[uint32]int{}
		latest                            = make([]uint32, subs) // per submitter: highest value delivered
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
	deliver := func(v uint32) {
		delivered[v]++
		i := (v - 1) / uint32(reqs)
		if p.ordered && v < latest[i] {
			panic(fmt.Sprintf("claim 4: submitter %d's %d delivered after %d", i, v, latest[i]))
		}
		latest[i] = max(latest[i], v)
	}

	for i := 0; i < subs; i++ {
		s.Go(func(*check.Thread) {
			for j := 0; j < reqs; j++ {
				v := uint32(i*reqs + j + 1)
				if p.submit(q, v, deliver) {
					kicks++
					continue
				}
				watch()
				if kicks == woken && !awake && blueToRed <= kicks && slices.Contains(q.Snapshot(), v) {
					panic(fmt.Sprintf("claim 3: value %d staged under red with no kick pending or owed and the worker asleep", v))
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
	for _, leg := range legs {
		t.Run(leg.name, func(t *testing.T) {
			if err := pctProtocol(leg.p); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestProtocolExhaustive visits 36,028 schedules of the paper's form and
// 16,296 of realtime's: about 10 s together on a 2-vCPU host, so -short
// leaves it to the PCT leg.
func TestProtocolExhaustive(t *testing.T) {
	if testing.Short() {
		t.Skip("bounded-exhaustive pass in long mode only")
	}
	for _, leg := range legs {
		t.Run(leg.name, func(t *testing.T) {
			n, err := exhaustiveProtocol(leg.p)
			if err != nil {
				t.Fatal(err)
			}
			t.Logf("%d schedules", n)
		})
	}
}

// expectCaught runs both legs on a broken protocol: each must fail with
// one of the claims named and print the failing schedule (and, for the
// exhaustive leg, how many schedules it took to find).
func expectCaught(t *testing.T, p protocol, claims ...string) {
	t.Helper()
	n, exhaustive := exhaustiveProtocol(p)
	for _, leg := range []struct {
		name string
		err  error
	}{{fmt.Sprintf("exhaustive, schedule %d", n), exhaustive}, {"pct", pctProtocol(p)}} {
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
		submit: func(q *rbq.Queue, v uint32, deliver func(uint32)) bool {
			if c, _ := q.Enqueue(v); c != rbq.Blue {
				return false
			}
			for {
				q.Drain(deliver)
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
	for _, leg := range legs {
		t.Run(leg.name, func(t *testing.T) {
			p := leg.p
			p.park = func(*rbq.Queue) bool { return true }
			expectCaught(t, p, "claim 2", "claim 3")
		})
	}
}

// TestProtocolCatchesStageWithoutRecolor: a Stage that carries the
// observed color on, as Enqueue does, instead of writing red leaves the
// queue blue, so every submitter kicks and no kick matches a transition.
func TestProtocolCatchesStageWithoutRecolor(t *testing.T) {
	expectCaught(t, protocol{
		submit: func(q *rbq.Queue, v uint32, _ func(uint32)) bool {
			c, _ := q.Enqueue(v)
			return c == rbq.Blue
		},
		park:    (*rbq.Queue).Park,
		ordered: true,
	}, "claim 1")
}

// TestProtocolCatchesTwoFlushers holds the paper's form to claim 4, as
// realtime ran it while a submitter's flush fed the worker: one flusher
// can hold a submitter's first value between its dequeue and its
// delivery while another flusher, or the worker, delivers the second.
func TestProtocolCatchesTwoFlushers(t *testing.T) {
	p := flushProtocol
	p.ordered = true
	expectCaught(t, p, "claim 4")
}
