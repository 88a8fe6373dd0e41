package sim

import (
	"testing"
	"time"
)

func TestClockAdvancesOnSleep(t *testing.T) {
	e := NewEngine()
	var at Time
	e.Spawn("sleeper", func(p *Proc) {
		p.SleepNS(int64(5 * time.Microsecond))
		at = p.Now()
	})
	end := e.Run()
	if at != Time(5000) {
		t.Errorf("after sleep Now() = %v, want 5µs", at)
	}
	if end != Time(5000) {
		t.Errorf("Run() = %v, want 5µs", end)
	}
}

func TestSleepNSNegativeClamped(t *testing.T) {
	e := NewEngine()
	e.Spawn("p", func(p *Proc) {
		p.SleepNS(-100)
		if p.Now() != 0 {
			t.Errorf("negative sleep advanced clock to %v", p.Now())
		}
	})
	e.Run()
}

func TestFIFOAtSameInstant(t *testing.T) {
	e := NewEngine()
	var order []int
	for i := 0; i < 5; i++ {
		i := i
		e.Spawn("p", func(p *Proc) { order = append(order, i) })
	}
	e.Run()
	for i, v := range order {
		if v != i {
			t.Fatalf("order = %v, want ascending", order)
		}
	}
}

func TestEventBroadcast(t *testing.T) {
	e := NewEngine()
	ev := NewEvent(e)
	woke := make([]Time, 3)
	for i := 0; i < 3; i++ {
		i := i
		e.Spawn("waiter", func(p *Proc) {
			p.WaitEvent(ev)
			woke[i] = p.Now()
		})
	}
	e.Spawn("firer", func(p *Proc) {
		p.SleepNS(int64(time.Millisecond))
		ev.Fire()
	})
	e.Run()
	for i, w := range woke {
		if w != Time(int64(time.Millisecond)) {
			t.Errorf("waiter %d woke at %v, want 1ms", i, w)
		}
	}
}

func TestEventAlreadyFired(t *testing.T) {
	e := NewEngine()
	ev := NewEvent(e)
	e.Spawn("p", func(p *Proc) {
		ev.Fire()
		if !ev.Fired() {
			t.Error("Fired() = false after Fire")
		}
		before := p.Now()
		p.WaitEvent(ev) // must not block
		if p.Now() != before {
			t.Error("WaitEvent on fired event advanced time")
		}
	})
	e.Run()
}

func TestWaitAnyEvent(t *testing.T) {
	e := NewEngine()
	first, second := NewEvent(e), NewEvent(e)
	var woke, again Time
	e.Spawn("waiter", func(p *Proc) {
		p.WaitAnyEvent(first, second)
		woke = p.Now()
		// The stale token left on first must not cut this sleep short.
		p.SleepNS(5000)
		again = p.Now()
		p.WaitAnyEvent(first, second) // one already fired: no block
		if p.Now() != again {
			t.Error("WaitAnyEvent with a fired event advanced time")
		}
	})
	e.Spawn("firer", func(p *Proc) {
		p.SleepNS(1000)
		second.Fire()
		p.SleepNS(1000)
		first.Fire()
	})
	e.Run()
	if woke != 1000 || again != 6000 {
		t.Errorf("woke at %v, slept until %v; want 1µs, 6µs", woke, again)
	}
}

func TestEventTimeoutExpires(t *testing.T) {
	e := NewEngine()
	ev := NewEvent(e)
	e.Spawn("p", func(p *Proc) {
		fired := p.WaitEventTimeout(ev, 1000)
		if fired {
			t.Error("WaitEventTimeout = true, want timeout")
		}
		if p.Now() != Time(1000) {
			t.Errorf("timed out at %v, want 1000ns", p.Now())
		}
	})
	e.Run()
}

func TestEventTimeoutBeatenByFire(t *testing.T) {
	e := NewEngine()
	ev := NewEvent(e)
	e.Spawn("waiter", func(p *Proc) {
		fired := p.WaitEventTimeout(ev, 10000)
		if !fired {
			t.Error("WaitEventTimeout = false, want fired")
		}
		if p.Now() != Time(500) {
			t.Errorf("woke at %v, want 500ns", p.Now())
		}
	})
	e.Spawn("firer", func(p *Proc) {
		p.SleepNS(500)
		ev.Fire()
	})
	e.Run()
}

// A fire racing the timeout at the same instant must wake the waiter
// exactly once (no double-dispatch deadlock).
func TestEventTimeoutTiesWithFire(t *testing.T) {
	e := NewEngine()
	ev := NewEvent(e)
	wakes := 0
	e.Spawn("waiter", func(p *Proc) {
		p.WaitEventTimeout(ev, 500)
		wakes++
	})
	e.Spawn("firer", func(p *Proc) {
		p.SleepNS(500)
		ev.Fire()
	})
	e.Run()
	if wakes != 1 {
		t.Errorf("waiter woke %d times, want 1", wakes)
	}
}

func TestCondSignalWakesOne(t *testing.T) {
	e := NewEngine()
	c := NewCond(e)
	woken := 0
	for i := 0; i < 3; i++ {
		e.Spawn("waiter", func(p *Proc) {
			p.WaitCond(c)
			woken++
		})
	}
	e.Spawn("signaler", func(p *Proc) {
		p.SleepNS(10)
		c.Signal()
	})
	e.Run()
	if woken != 1 {
		t.Errorf("woken = %d, want 1", woken)
	}
	if e.Parked() != 0 {
		t.Errorf("Parked() = %d after teardown, want 0", e.Parked())
	}
}

func TestCondBroadcast(t *testing.T) {
	e := NewEngine()
	c := NewCond(e)
	woken := 0
	for i := 0; i < 4; i++ {
		e.Spawn("waiter", func(p *Proc) {
			p.WaitCond(c)
			woken++
		})
	}
	e.Spawn("b", func(p *Proc) {
		p.SleepNS(1)
		c.Broadcast()
	})
	e.Run()
	if woken != 4 {
		t.Errorf("woken = %d, want 4", woken)
	}
}

func TestCondSignalSkipsStaleWaiters(t *testing.T) {
	e := NewEngine()
	c := NewCond(e)
	woken := 0
	// This waiter times out before the signal, leaving a stale entry.
	e.Spawn("timeouter", func(p *Proc) {
		if p.WaitCondTimeout(c, 5) {
			t.Error("expected timeout")
		}
	})
	e.Spawn("waiter", func(p *Proc) {
		p.WaitCond(c)
		woken++
	})
	e.Spawn("signaler", func(p *Proc) {
		p.SleepNS(100)
		c.Signal() // must skip the stale first entry and wake the live one
	})
	e.Run()
	if woken != 1 {
		t.Errorf("woken = %d, want 1", woken)
	}
}

// A daemon parked forever must be torn down by Run without leaking its
// goroutine or hanging.
func TestTeardownOfParkedDaemon(t *testing.T) {
	e := NewEngine()
	c := NewCond(e)
	e.Spawn("daemon", func(p *Proc) {
		for {
			p.WaitCond(c) // never signalled
		}
	})
	e.Spawn("worker", func(p *Proc) { p.SleepNS(100) })
	end := e.Run()
	if end != Time(100) {
		t.Errorf("Run() = %v, want 100ns", end)
	}
}

func TestSpawnFromProc(t *testing.T) {
	e := NewEngine()
	var childAt Time
	e.Spawn("parent", func(p *Proc) {
		p.SleepNS(42)
		e.Spawn("child", func(c *Proc) { childAt = c.Now() })
	})
	e.Run()
	if childAt != Time(42) {
		t.Errorf("child started at %v, want 42ns", childAt)
	}
}

func TestBusyMeters(t *testing.T) {
	e := NewEngine()
	m1, m2 := NewMeter("a"), NewMeter("b")
	e.Spawn("p", func(p *Proc) {
		p.Busy(100, m1)
		p.Busy(50, m1, m2)
		p.SleepNS(850) // idle
	})
	end := e.Run()
	if m1.Busy() != Time(150) {
		t.Errorf("m1 = %v, want 150ns", m1.Busy())
	}
	if m2.Busy() != Time(50) {
		t.Errorf("m2 = %v, want 50ns", m2.Busy())
	}
	if u := (MeterGroup{m1}).Usage(end); u < 0.149 || u > 0.151 {
		t.Errorf("usage = %v, want 0.15", u)
	}
	g := MeterGroup{m1, m2}
	if g.Busy() != Time(200) {
		t.Errorf("group busy = %v, want 200ns", g.Busy())
	}
}

func TestAfterCallback(t *testing.T) {
	e := NewEngine()
	var at Time
	e.Spawn("p", func(p *Proc) {
		e.AfterNS(int64(time.Microsecond), func() { at = e.Now() })
		p.SleepNS(5000)
	})
	e.Run()
	if at != Time(1000) {
		t.Errorf("callback at %v, want 1µs", at)
	}
}

func TestRunTwicePanics(t *testing.T) {
	e := NewEngine()
	e.Run()
	defer func() {
		if recover() == nil {
			t.Error("second Run did not panic")
		}
	}()
	e.Run()
}

func TestDeterminism(t *testing.T) {
	run := func() []Time {
		e := NewEngine()
		var log []Time
		c := NewCond(e)
		for i := 0; i < 8; i++ {
			i := i
			e.Spawn("w", func(p *Proc) {
				p.SleepNS(int64(i * 7 % 5))
				p.WaitCond(c)
				log = append(log, p.Now())
			})
		}
		e.Spawn("s", func(p *Proc) {
			for i := 0; i < 8; i++ {
				p.SleepNS(3)
				c.Signal()
			}
		})
		e.Run()
		return log
	}
	a, b := run(), run()
	if len(a) != len(b) {
		t.Fatalf("runs differ in length: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("runs diverge at %d: %v vs %v", i, a[i], b[i])
		}
	}
}

func TestSleepUntil(t *testing.T) {
	e := NewEngine()
	e.Spawn("p", func(p *Proc) {
		p.SleepUntil(Time(500))
		if p.Now() != Time(500) {
			t.Errorf("Now = %v, want 500", p.Now())
		}
		p.SleepUntil(Time(100)) // past: no-op
		if p.Now() != Time(500) {
			t.Errorf("SleepUntil into the past moved clock to %v", p.Now())
		}
	})
	e.Run()
}

// A sleep is a typed calendar entry held by value, its wake and dispatch
// carry no closure, and the hand-off is a coroutine switch: the steady
// state of a simulation allocates nothing per yield. That holds for a
// sleep that runs ahead (nothing else due, so nothing is scheduled) and
// for one that goes through the calendar (a neighbour's wake is due
// first, so the sleep pushes a wake and its dispatch and parks).
func TestSleepDoesNotAllocate(t *testing.T) {
	for _, tc := range []struct {
		name      string
		neighbour bool
	}{{"ahead", false}, {"calendar", true}} {
		t.Run(tc.name, func(t *testing.T) {
			e := NewEngine()
			done := false
			if tc.neighbour {
				e.Spawn("neighbour", func(p *Proc) {
					for !done {
						p.SleepNS(1)
					}
				})
			}
			allocs, scheduled := -1.0, uint64(0)
			e.Spawn("p", func(p *Proc) {
				p.SleepNS(1) // let the neighbour start
				seq := e.seq
				allocs = testing.AllocsPerRun(1000, func() { p.SleepNS(2) })
				scheduled = e.seq - seq
				done = true
			})
			e.Run()
			if allocs != 0 {
				t.Errorf("SleepNS allocates %v times per call, want 0", allocs)
			}
			// AllocsPerRun makes one warm-up call besides the 1000. Run
			// ahead, a sleep pushes nothing; through the calendar, at
			// least its wake and its dispatch.
			if tc.neighbour && scheduled < 2*1001 || !tc.neighbour && scheduled != 0 {
				t.Errorf("%d calendar entries pushed over 1001 sleeps: not the %s path", scheduled, tc.name)
			}
		})
	}
}

var benchEnd Time

// BenchmarkSleepAlone is one process with nothing else due: every sleep
// runs ahead, with no calendar entry and no coroutine switch.
func BenchmarkSleepAlone(b *testing.B) {
	e := NewEngine()
	e.Spawn("p", func(p *Proc) {
		for i := 0; i < b.N; i++ {
			p.SleepNS(1)
		}
	})
	b.ReportAllocs()
	b.ResetTimer()
	benchEnd = e.Run()
}

// BenchmarkSleepInterleaved is two processes whose wakes alternate, one
// sleep per op: each sleep parks behind the other process's wake, and its
// own wake, being the last thing due at its instant, is dispatched at
// once.
func BenchmarkSleepInterleaved(b *testing.B) {
	e := NewEngine()
	for first := 0; first < 2; first++ {
		e.Spawn("p", func(p *Proc) {
			p.SleepNS(int64(first))
			for i := first; i < b.N; i += 2 {
				p.SleepNS(2)
			}
		})
	}
	b.ReportAllocs()
	b.ResetTimer()
	benchEnd = e.Run()
}
