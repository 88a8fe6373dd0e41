package check

import (
	"fmt"
	"math/rand"
	"runtime/debug"
	"sync/atomic"
)

// Sched is a seeded deterministic scheduler: it runs virtual threads
// (real goroutines, but gated so exactly one executes at a time) and
// decides, at every yield point, which thread runs next. With the rbq
// scheduling hook routed into it (see YieldHook), every
// linearization-relevant step of the lock-free structures becomes a
// preemption point, so interleavings like "SetColor's CAS between an
// enqueuer's color read and its link CAS" are searched systematically
// rather than sampled from whatever the Go runtime happens to do.
//
// The only source of nondeterminism is the seed: the scheduler is a
// single goroutine making all decisions from one rand.Rand, and threads
// advance strictly one at a time through channel handshakes. The same
// seed therefore replays the same schedule, which is what makes a
// failure report actionable.
type Sched struct {
	seed    int64
	rng     *rand.Rand
	cfg     SchedConfig
	threads []*Thread
	events  chan schedEvent
	cur     atomic.Pointer[Thread]
	active  atomic.Bool
	stop    chan struct{}
	steps   int
	trace   []int
	dfs     *choices // set by ExploreBounded: the search picks, not the rng
}

// SchedConfig tunes the exploration policy.
type SchedConfig struct {
	// MaxPreemptions < 0 (the default from NewSched) picks a uniformly
	// random runnable thread at every yield point — maximal context
	// switching, best for small operation scripts. MaxPreemptions >= 0
	// enables bounded-preemption (PCT-style) exploration instead:
	// threads get random priorities, the highest-priority runnable
	// thread runs, and at most MaxPreemptions random priority demotions
	// occur during the run.
	MaxPreemptions int
	// MaxSteps bounds the total yields before the run is declared a
	// livelock (0 means a generous default). Lock-free code cannot
	// deadlock under this scheduler — a spinning thread's failed CAS
	// implies another thread progressed — so hitting the budget is a
	// real finding.
	MaxSteps int
}

const defaultMaxSteps = 1 << 20

// Thread is the handle a virtual thread's body receives.
type Thread struct {
	id     int
	s      *Sched
	resume chan struct{}
	done   bool
	prio   int
}

// ID returns the thread's index in spawn order.
func (t *Thread) ID() int { return t.id }

// Yield hands control back to the scheduler; the thread resumes when it
// is next picked. A wait loop's Yield is no preemption: PCT demotes the
// yielder, and ExploreBounded switches away for free.
func (t *Thread) Yield() { t.yield(evYield) }

func (t *Thread) yield(kind int) {
	t.s.events <- schedEvent{id: t.id, kind: kind}
	select {
	case <-t.resume:
	case <-t.s.stop:
		// The run was abandoned (another thread failed or the budget
		// ran out); unwind this thread without running more of its body.
		panic(schedAbort{})
	}
}

// schedAbort unwinds abandoned threads; the recover in the spawn wrapper
// swallows it.
type schedAbort struct{}

const (
	evYield = iota
	evPoint // a YieldHook preemption point
	evDone
	evPanic
)

type schedEvent struct {
	id    int
	kind  int
	pan   any
	stack []byte
}

// NewSched returns a scheduler with the uniform-random policy. The seed
// fully determines the schedule.
func NewSched(seed int64) *Sched {
	return NewSchedConfig(seed, SchedConfig{MaxPreemptions: -1})
}

// NewSchedConfig returns a scheduler with an explicit policy config.
func NewSchedConfig(seed int64, cfg SchedConfig) *Sched {
	if cfg.MaxSteps <= 0 {
		cfg.MaxSteps = defaultMaxSteps
	}
	return &Sched{
		seed:   seed,
		rng:    rand.New(rand.NewSource(seed)),
		cfg:    cfg,
		events: make(chan schedEvent),
		stop:   make(chan struct{}),
	}
}

// Go spawns a virtual thread. All threads must be spawned before Run.
func (s *Sched) Go(fn func(t *Thread)) {
	t := &Thread{id: len(s.threads), s: s, resume: make(chan struct{})}
	s.threads = append(s.threads, t)
	go func() {
		defer func() {
			if r := recover(); r != nil {
				if _, abort := r.(schedAbort); abort {
					return // run abandoned; exit quietly
				}
				s.events <- schedEvent{id: t.id, kind: evPanic, pan: r, stack: debug.Stack()}
				return
			}
			s.events <- schedEvent{id: t.id, kind: evDone}
		}()
		select {
		case <-t.resume:
		case <-s.stop:
			panic(schedAbort{})
		}
		fn(t)
	}()
}

// YieldHook returns a function suitable for rbq.SetSchedHook: called
// from inside a managed thread it yields that thread; called outside a
// run (setup or teardown code on the test goroutine) it is a no-op.
func (s *Sched) YieldHook() func() {
	return func() {
		if !s.active.Load() {
			return
		}
		if t := s.cur.Load(); t != nil {
			t.yield(evPoint)
		}
	}
}

// Run executes the spawned threads to completion under the seeded
// policy. It returns nil when every thread finished, or an error — which
// always embeds the seed — when a thread panicked (assertion failure in
// the body) or the step budget ran out (livelock).
func (s *Sched) Run() error {
	if len(s.threads) == 0 {
		return nil
	}
	for _, t := range s.threads {
		t.prio = s.rng.Int()
	}
	preempts := 0
	runnable := func() []*Thread {
		var r []*Thread
		for _, t := range s.threads {
			if !t.done {
				r = append(r, t)
			}
		}
		return r
	}
	pick := func(r []*Thread, cur *Thread, kind int) *Thread {
		if s.dfs != nil {
			return s.dfs.pick(r, cur, kind)
		}
		if s.cfg.MaxPreemptions < 0 {
			return r[s.rng.Intn(len(r))]
		}
		best := r[0]
		for _, t := range r[1:] {
			if t.prio > best.prio {
				best = t
			}
		}
		return best
	}
	s.active.Store(true)
	defer s.active.Store(false)
	fail := func(format string, args ...any) error {
		close(s.stop) // abandon parked threads
		return fmt.Errorf("sched(seed=%d, step=%d): %s", s.seed, s.steps, fmt.Sprintf(format, args...))
	}

	live := len(s.threads)
	cur := pick(runnable(), nil, evDone)
	for {
		s.cur.Store(cur)
		s.trace = append(s.trace, cur.id)
		cur.resume <- struct{}{}
		ev := <-s.events
		switch ev.kind {
		case evPanic:
			return fail("thread %d panicked: %v\n%s", ev.id, ev.pan, ev.stack)
		case evDone:
			s.threads[ev.id].done = true
			live--
			if live == 0 {
				return nil
			}
			cur = pick(runnable(), nil, evDone)
		case evYield, evPoint:
			s.steps++
			if s.steps > s.cfg.MaxSteps {
				return fail("step budget %d exhausted: possible livelock", s.cfg.MaxSteps)
			}
			r := runnable()
			if s.cfg.MaxPreemptions >= 0 && (ev.kind == evYield || preempts < s.cfg.MaxPreemptions && s.rng.Intn(4) == 0) {
				// PCT-style priority change point, or a Yield: demote
				// the running thread below everyone.
				lowest := cur.prio
				for _, t := range s.threads {
					if t.prio < lowest {
						lowest = t.prio
					}
				}
				cur.prio = lowest - 1
				if ev.kind == evPoint {
					preempts++
				}
			}
			cur = pick(r, cur, ev.kind)
		}
	}
}

// Trace returns the schedule: the thread id chosen at each resume.
// Useful for asserting determinism and for debugging a failing seed.
func (s *Sched) Trace() []int { return s.trace }

// Explore runs body once per seed in [base, base+n) and returns the
// first failure, wrapped with the seed that reproduces it. Test helpers
// should t.Fatal the returned error so the seed lands in the log.
func Explore(n int, base int64, body func(seed int64) error) error {
	for i := 0; i < n; i++ {
		seed := base + int64(i)
		if err := body(seed); err != nil {
			return fmt.Errorf("failing schedule at seed %d (replay by running body with exactly this seed): %w", seed, err)
		}
	}
	return nil
}

// ExploreBounded runs body, which spawns threads on the Sched it is
// handed and Runs it, once per schedule with at most bound preemptions,
// depth-first; a Yield or a finished thread switches for free. It returns
// the schedules run and the first failure, naming the thread of each step.
func ExploreBounded(bound int, body func(s *Sched) error) (int, error) {
	c := &choices{bound: bound}
	for n := 1; ; n++ {
		s := NewSched(0)
		s.dfs, c.at, c.preempts = c, 0, 0
		if err := body(s); err != nil {
			return n, fmt.Errorf("failing schedule %v: %w", s.trace, err)
		}
		if !c.next() {
			return n, nil
		}
	}
}

// choices steers ExploreBounded: the logged decisions, then first ones.
type choices struct {
	log                 []choice
	at, bound, preempts int
}

// choice logs one decision: alternatives, the one taken, and the
// preemptions a later alternative would bring the run to.
type choice struct{ n, taken, after int }

// pick orders the alternatives — at a preemption point the running
// thread first, any other costing a preemption; at a Yield everyone else,
// or the yielder alone — and takes the logged one.
func (c *choices) pick(r []*Thread, cur *Thread, kind int) *Thread {
	var alts []*Thread
	for _, t := range r {
		if t != cur {
			alts = append(alts, t)
		}
	}
	cost := 0
	if kind == evPoint || len(alts) == 0 {
		alts, cost = append([]*Thread{cur}, alts...), 1
	}
	if c.at == len(c.log) {
		c.log = append(c.log, choice{len(alts), 0, c.preempts + cost})
	}
	k := c.log[c.at].taken
	if c.at++; k > 0 {
		c.preempts += cost
	}
	return alts[k]
}

// next backtracks to the deepest untried alternative the bound allows.
func (c *choices) next() bool {
	for i := len(c.log) - 1; i >= 0; i-- {
		if d := &c.log[i]; d.taken+1 < d.n && d.after <= c.bound {
			d.taken++
			c.log = c.log[:i+1]
			return true
		}
	}
	return false
}
