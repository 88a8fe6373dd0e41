package sim

// waiter is a parked process together with the wait token under which it
// parked. A waiter whose token is stale (the process was woken by someone
// else, e.g. a timeout) is silently skipped by wakers.
type waiter struct {
	p   *Proc
	seq uint64
}

// Event is a one-shot broadcast: once fired, all current and future
// waiters proceed immediately. It models completion notifications such as
// a DMA transfer finishing.
//
// Events are engine-context objects: create and use them only from
// processes or engine callbacks of a single engine.
type Event struct {
	eng     *Engine
	fired   bool
	waiters []waiter
}

// NewEvent returns an unfired event on e.
func NewEvent(e *Engine) *Event { return &Event{eng: e} }

// Init binds ev, the zero Event embedded in a larger record, to e: the
// event shares the record's allocation instead of costing its own.
func (ev *Event) Init(e *Engine) { ev.eng = e }

// Fired reports whether the event has fired.
func (ev *Event) Fired() bool { return ev.fired }

// Fire marks the event fired and wakes all waiters at the current virtual
// time. Firing twice is a no-op.
func (ev *Event) Fire() {
	if ev.fired {
		return
	}
	ev.fired = true
	ws := ev.waiters
	ev.waiters = nil
	for _, w := range ws {
		ev.eng.wake(w.p, w.seq)
	}
}

// Cond is a reusable signalling point, analogous to a condition variable.
// Unlike Event it has no memory: a Signal with no waiters is lost, so
// users must re-check their predicate after waking (the usual condition-
// variable discipline).
type Cond struct {
	eng     *Engine
	waiters []waiter
}

// NewCond returns a condition on e.
func NewCond(e *Engine) *Cond { return &Cond{eng: e} }

// Signal wakes one waiter (the longest parked), if any.
func (c *Cond) Signal() {
	for len(c.waiters) > 0 {
		w := c.waiters[0]
		c.waiters = c.waiters[1:]
		if c.eng.wake(w.p, w.seq) {
			return
		}
	}
}

// Broadcast wakes all current waiters.
func (c *Cond) Broadcast() {
	ws := c.waiters
	c.waiters = nil
	for _, w := range ws {
		c.eng.wake(w.p, w.seq)
	}
}
