// Package sim implements a discrete-event simulation engine whose
// processes are coroutines.
//
// The engine maintains a virtual clock and an event calendar. Exactly one
// process runs at any instant; a process gives up control by waiting on an
// Event or Cond, by exiting, or by sleeping past the next calendar entry.
// A sleep that ends before anything else is due is the next event anyway,
// so the process advances the clock and carries on without parking; so
// does a woken process when its wake is the last thing due at that
// instant, which the engine dispatches at once. Each process body is bound
// with iter.Pull: the engine resumes it with next, the body parks by
// yielding, and both are a direct switch between two goroutines of which
// only one is ever runnable, with no channel and no pass through the Go
// scheduler. The switch is a happens-before edge, so data shared between
// processes needs no other synchronization and the package is safe under
// the race detector. A panic (or a t.Fatal) in a process surfaces from Run
// on the caller's goroutine.
//
// The engine is the substrate for the simulated KeyStone II machine: CPUs,
// the DMA engine, interrupt handlers and kernel threads are all processes,
// and their interleaving in virtual time reproduces the latency and CPU
// usage interactions measured in the memif paper.
package sim

import (
	"fmt"
	"time"
)

// Time is a point in virtual time, in nanoseconds since the start of the
// simulation.
type Time int64

// Infinity is a Time later than any event the engine will ever schedule.
const Infinity = Time(1<<63 - 1)

// Seconds converts t to seconds.
func (t Time) Seconds() float64 { return float64(t) / 1e9 }

// Micros converts t to microseconds.
func (t Time) Micros() float64 { return float64(t) / 1e3 }

func (t Time) String() string { return time.Duration(t).String() }

// event is a calendar entry: at time `at`, do what kind says. Events with
// equal timestamps fire in insertion order (seq). The calendar holds event
// values, not pointers, and the per-yield kinds carry (p, tok) where a
// closure would have captured them, so a sleep allocates nothing.
type event struct {
	at   Time
	seq  uint64
	kind eventKind
	fn   func() // evCall
	p    *Proc  // the other kinds
	tok  uint64 // evWake, evTimeout: the wait token being claimed
}

type eventKind uint8

const (
	evCall     eventKind = iota // run fn in engine context
	evDispatch                  // hand control to p
	evWake                      // claim p's wait tok; if still current, enqueue p's dispatch
	evTimeout                   // evWake that also marks the wait timed out
)

func (a *event) before(b *event) bool {
	return a.at < b.at || a.at == b.at && a.seq < b.seq
}

// schedule stamps ev with the next seq (and clamps a past `at` to now) and
// pushes it on the calendar, a binary min-heap ordered by (at, seq).
func (e *Engine) schedule(ev event) {
	if ev.at < e.now {
		ev.at = e.now
	}
	e.seq++
	ev.seq = e.seq
	h := append(e.calendar, ev)
	for i := len(h) - 1; i > 0; {
		parent := (i - 1) / 2
		if !h[i].before(&h[parent]) {
			break
		}
		h[i], h[parent] = h[parent], h[i]
		i = parent
	}
	e.calendar = h
}

// pop removes and returns the earliest event.
func (e *Engine) pop() event {
	h := e.calendar
	n := len(h) - 1
	top := h[0]
	h[0], h[n] = h[n], event{} // the vacated slot must not pin fn or p
	h = h[:n]
	for i := 0; ; {
		c := 2*i + 1
		if c >= n {
			break
		}
		if c+1 < n && h[c+1].before(&h[c]) {
			c++
		}
		if !h[c].before(&h[i]) {
			break
		}
		h[i], h[c] = h[c], h[i]
		i = c
	}
	e.calendar = h
	return top
}

// Engine is a discrete-event simulator. The zero value is not usable; call
// NewEngine.
type Engine struct {
	now      Time
	seq      uint64
	calendar []event
	live     map[*Proc]bool // spawned and not yet exited
	pool     []*Proc        // exited, their coroutines waiting for Spawn's next body
	ranOnce  bool
	trace    func(string)

	// The busy audit: Busy models a CPU but takes none from a pool, so
	// nothing stops more processes computing at once than the board has
	// cores. busyTime[k] is the virtual time during which exactly k
	// processes were inside Busy (the last entry: k or more), up to
	// busyAt, the last entry or exit. A fixed array keeps busyShift
	// inlined on the hottest call of the simulation.
	busyN    int
	busyAt   Time
	busyTime [32]Time
}

// NewEngine returns an engine with the clock at zero and an empty calendar.
func NewEngine() *Engine {
	return &Engine{live: make(map[*Proc]bool)}
}

// Now returns the current virtual time. It may be called from engine
// callbacks and processes; calling it from foreign goroutines while Run is
// in progress is a data race.
func (e *Engine) Now() Time { return e.now }

// BusyTime returns, for each k, the virtual time during which exactly k
// processes were inside Busy at once (the busy audit), up to the highest
// k that was ever reached for a positive time.
func (e *Engine) BusyTime() []Time {
	n := len(e.busyTime)
	for n > 0 && e.busyTime[n-1] == 0 {
		n--
	}
	return e.busyTime[:n]
}

// busyShift records a process entering (+1) or leaving (-1) Busy.
func (e *Engine) busyShift(d int) {
	e.busyTime[min(e.busyN, len(e.busyTime)-1)] += e.now - e.busyAt
	e.busyAt, e.busyN = e.now, e.busyN+d
}

// SetTrace installs a debug trace sink. Pass nil to disable.
func (e *Engine) SetTrace(fn func(string)) { e.trace = fn }

func (e *Engine) tracef(format string, args ...interface{}) {
	e.trace(fmt.Sprintf("[%12d ns] ", int64(e.now)) + fmt.Sprintf(format, args...))
}

// idle reports whether nothing on the calendar is due at or before t. A
// resumption at such a t is the next event the calendar would pop, so it
// can run in place (DESIGN.md §7).
func (e *Engine) idle(t Time) bool {
	return len(e.calendar) == 0 || t < e.calendar[0].at
}

// AfterNS registers fn to run in engine context after ns nanoseconds of
// virtual time. fn runs with the clock advanced; it must not block.
func (e *Engine) AfterNS(ns int64, fn func()) {
	e.schedule(event{at: e.now + Time(ns), kind: evCall, fn: fn})
}

// Spawn creates a process running fn and schedules it to start at the
// current virtual time. It may be called before Run or from inside a
// running process or engine callback. The process reuses the coroutine of
// one that has exited, if there is one, so a steady stream of short-lived
// processes (a completion interrupt per request) allocates nothing.
func (e *Engine) Spawn(name string, fn ProcFunc) *Proc {
	var p *Proc
	if n := len(e.pool); n > 0 {
		p = e.pool[n-1]
		e.pool[n-1] = nil
		e.pool = e.pool[:n-1]
		p.name, p.fn, p.done = name, fn, false
	} else {
		p = &Proc{eng: e, name: name, fn: fn}
		p.bind()
	}
	e.live[p] = true
	e.schedule(event{at: e.now, kind: evDispatch, p: p})
	return p
}

// dispatch hands control to p and waits until p parks again (sleeps,
// waits, or exits).
func (e *Engine) dispatch(p *Proc) {
	if p.done {
		return
	}
	if e.trace != nil { // guarded here: boxing the argument allocates
		e.tracef("run %s", p.name)
	}
	p.next()
	if p.done {
		delete(e.live, p)
		e.pool = append(e.pool, p)
	}
}

// wake claims p's current wait (identified by seq) and schedules p to
// resume at the present virtual time. It reports whether the claim
// succeeded.
func (e *Engine) wake(p *Proc, seq uint64) bool {
	if !p.claim(seq) {
		return false
	}
	e.schedule(event{at: e.now, kind: evDispatch, p: p})
	return true
}

// Run executes events until the calendar is empty and returns the final
// virtual time. Processes still blocked on events when the calendar drains
// are parked daemons or deadlocks; Run tears them down (their stacks
// unwind via a sentinel panic) so that no goroutine outlives it, also when
// it leaves by a process's panic. An Engine can Run only once.
func (e *Engine) Run() Time {
	if e.ranOnce {
		panic("sim: Engine.Run called twice or reentered; create a new Engine")
	}
	e.ranOnce = true
	defer e.teardown()
	for len(e.calendar) > 0 {
		ev := e.pop()
		e.now = ev.at
		switch ev.kind {
		case evCall:
			ev.fn()
		case evDispatch:
			e.dispatch(ev.p)
		case evWake, evTimeout:
			if !ev.p.claim(ev.tok) {
				break
			}
			ev.p.timedOut = ev.kind == evTimeout
			if e.idle(e.now) { // the dispatch would be the next event
				e.dispatch(ev.p)
			} else {
				e.schedule(event{at: e.now, kind: evDispatch, p: ev.p})
			}
		}
	}
	return e.now
}

// Parked reports how many processes were still blocked when Run returned:
// idle daemons (such as a kernel worker waiting for requests) or genuine
// deadlocks.
func (e *Engine) Parked() int { return len(e.live) }

// teardown unwinds every process that is still parked, one at a time:
// stop resumes the coroutine with its yield reporting false, park turns
// that into errShutdown, and stop returns once the body has unwound. The
// entry it leaves due now keeps a sleep in a deferred cleanup from running
// ahead, so that sleep parks and the unwinding goes on. The pooled
// coroutines of exited processes are stopped last; theirs is the yield
// between two bodies, so they end at once.
func (e *Engine) teardown() {
	e.schedule(event{at: e.now, kind: evCall})
	for p := range e.live {
		delete(e.live, p)
		p.stop()
	}
	for _, p := range e.pool {
		p.stop()
	}
	e.pool = nil
}
