package sim

import "errors"

// errShutdown is panicked through a parked process when the engine tears
// down, unwinding its stack so its goroutine exits. It never escapes the
// package.
var errShutdown = errors.New("sim: engine shutdown")

// ProcFunc is the body of a simulated process. It runs in virtual time:
// calls like Sleep and WaitEvent advance the clock without consuming wall
// time.
type ProcFunc func(p *Proc)

// Proc is a simulated process. All its methods must be called from the
// process's own goroutine (inside its ProcFunc).
type Proc struct {
	eng  *Engine
	name string

	// The coroutine bound by Spawn (see bind): next runs the body until
	// its next park, yield is what park calls, stop unwinds it.
	next  func() (struct{}, bool)
	yield func(struct{}) bool
	stop  func()

	done     bool
	waiting  bool
	waitSeq  uint64
	timedOut bool // the timeout, not the waited-for thing, ended the last timed wait
}

// top is the coroutine body: it runs fn and records the exit. An
// errShutdown unwind ends here; any other panic (or a runtime.Goexit from
// t.Fatal) carries on into the coroutine, which re-raises it from next on
// the goroutine that called Run.
func (p *Proc) top(fn ProcFunc) {
	defer func() {
		p.done = true
		if r := recover(); r != nil && r != errShutdown { //nolint:errorlint // sentinel identity
			panic(r)
		}
	}()
	fn(p)
}

// Name returns the process name given at Spawn.
func (p *Proc) Name() string { return p.name }

// Now returns the current virtual time.
func (p *Proc) Now() Time { return p.eng.now }

// newWait arms a fresh wait token. Wakers holding an older token can no
// longer resume the process.
func (p *Proc) newWait() uint64 {
	p.waitSeq++
	p.waiting = true
	return p.waitSeq
}

// claim ends p's wait if seq is still its current token. A false return
// means p is running, done, or was already claimed by a competing waker
// (e.g. a timeout racing an event).
func (p *Proc) claim(seq uint64) bool {
	if p.done || !p.waiting || p.waitSeq != seq {
		return false
	}
	p.waiting = false
	return true
}

// park yields control to the engine and blocks until a waker resumes the
// process. Once the engine is tearing down yield reports false, at once
// and on every later call, so a deferred cleanup that parks again while
// the stack unwinds keeps unwinding.
func (p *Proc) park() {
	if !p.yield(struct{}{}) {
		panic(errShutdown)
	}
}

// parkTimeout parks under wait token seq with a timeout ns from now armed
// against it, and reports whether someone other than the timeout claimed
// the wait.
func (p *Proc) parkTimeout(seq uint64, ns int64) bool {
	p.timedOut = false
	p.eng.schedule(event{at: p.eng.now + Time(ns), kind: evTimeout, p: p, tok: seq})
	p.park()
	return !p.timedOut
}

// Yield gives other processes scheduled at the same instant a chance to
// run, then resumes.
func (p *Proc) Yield() { p.SleepNS(0) }

// SleepNS advances virtual time by ns nanoseconds. When nothing else is
// due by the time the sleep ends, its wake and dispatch would be the next
// two events, so the process moves the clock and carries on without
// parking; otherwise it parks until the calendar reaches its wake.
func (p *Proc) SleepNS(ns int64) {
	if ns < 0 {
		ns = 0
	}
	e, t, tok := p.eng, p.eng.now+Time(ns), p.newWait()
	if e.idle(t) {
		p.waiting = false
		e.now = t
		if e.trace != nil { // the line dispatch would have sent
			e.tracef("run %s", p.name)
		}
		return
	}
	e.schedule(event{at: t, kind: evWake, p: p, tok: tok})
	p.park()
}

// SleepUntil advances virtual time to t (no-op if t is in the past).
func (p *Proc) SleepUntil(t Time) {
	if t <= p.eng.now {
		return
	}
	p.SleepNS(int64(t - p.eng.now))
}

// Busy advances virtual time by ns nanoseconds and charges the interval to
// the given meters. It models a CPU context actively executing (as opposed
// to Sleep, which models blocking). Like SleepNS, it parks only when
// something else is due by the end of the interval.
func (p *Proc) Busy(ns int64, meters ...*Meter) {
	if ns < 0 {
		ns = 0
	}
	for _, m := range meters {
		if m != nil {
			m.Add(ns)
		}
	}
	p.SleepNS(ns)
}

// WaitEvent blocks until ev fires. Returns immediately if it already has.
func (p *Proc) WaitEvent(ev *Event) {
	if ev.fired {
		return
	}
	seq := p.newWait()
	ev.waiters = append(ev.waiters, waiter{p, seq})
	p.park()
}

// WaitAnyEvent blocks until one of evs has fired. Returns immediately if
// one already has.
func (p *Proc) WaitAnyEvent(evs ...*Event) {
	for _, ev := range evs {
		if ev.fired {
			return
		}
	}
	// One token on every list: the first event to fire claims the wait,
	// the others find the token stale.
	seq := p.newWait()
	for _, ev := range evs {
		ev.waiters = append(ev.waiters, waiter{p, seq})
	}
	p.park()
}

// WaitEventTimeout blocks until ev fires or ns nanoseconds pass. It
// reports whether the event fired (true) or the wait timed out (false).
func (p *Proc) WaitEventTimeout(ev *Event, ns int64) bool {
	if ev.fired {
		return true
	}
	seq := p.newWait()
	ev.waiters = append(ev.waiters, waiter{p, seq})
	return p.parkTimeout(seq, ns)
}

// WaitCond blocks until the condition is signalled or broadcast.
func (p *Proc) WaitCond(c *Cond) {
	seq := p.newWait()
	c.waiters = append(c.waiters, waiter{p, seq})
	p.park()
}

// WaitCondTimeout blocks until the condition is signalled or ns
// nanoseconds pass; it reports whether the condition fired.
func (p *Proc) WaitCondTimeout(c *Cond, ns int64) bool {
	seq := p.newWait()
	c.waiters = append(c.waiters, waiter{p, seq})
	return p.parkTimeout(seq, ns)
}
