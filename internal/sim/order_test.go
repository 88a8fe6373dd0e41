package sim

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"
)

// TestSameInstantOrder pins the exact run order of everything the engine
// can schedule at one timestamp: After callbacks, sleep wakes, a timeout
// tying with a Fire (both ways round), a Cond signal, a Yield and a Spawn.
// A wake is two calendar steps — the wake event claims the wait and
// enqueues a dispatch at now with a fresh seq — so procs woken at T run
// after every event that was already on the calendar for T, in wake order.
// The virtual digits of every benchmark rest on this order; the want list
// was recorded on the channel-based engine and must never change.
func TestSameInstantOrder(t *testing.T) {
	e := NewEngine()
	evA, evB := NewEvent(e), NewEvent(e)
	c := NewCond(e)
	var order []string
	log := func(s string) { order = append(order, fmt.Sprintf("%d:%s", e.Now(), s)) }

	e.AfterNS(100, func() { log("after1") })
	e.Spawn("sleepA", func(p *Proc) {
		p.SleepNS(100)
		log("sleepA")
		p.Yield()
		log("sleepA.yielded")
	})
	// Timeout registered before the firer's wake: the timeout wins the tie.
	e.Spawn("timeoutA", func(p *Proc) {
		log(fmt.Sprintf("timeoutA fired=%v", p.WaitEventTimeout(evA, 100)))
	})
	e.Spawn("firerA", func(p *Proc) {
		p.SleepNS(100)
		evA.Fire()
		log("firerA")
		c.Signal()
	})
	e.Spawn("waitA", func(p *Proc) {
		p.WaitEvent(evA)
		log("waitA")
	})
	// Fire from a callback registered before the timeout: the fire wins.
	e.AfterNS(100, func() {
		log("after2")
		evB.Fire()
		c.Signal()
		e.Spawn("child", func(p *Proc) {
			log("child")
			p.SleepNS(0)
			log("child.slept0")
		})
		e.AfterNS(0, func() { log("after2.nested") })
	})
	e.Spawn("timeoutB", func(p *Proc) {
		p.SleepNS(40)
		log(fmt.Sprintf("timeoutB fired=%v", p.WaitEventTimeout(evB, 60)))
	})
	e.Spawn("condWait", func(p *Proc) {
		log(fmt.Sprintf("condWait signalled=%v", p.WaitCondTimeout(c, 100)))
	})
	e.Spawn("condWaitB", func(p *Proc) {
		p.SleepNS(40)
		log(fmt.Sprintf("condWaitB signalled=%v", p.WaitCondTimeout(c, 60)))
	})
	e.Spawn("sleepB", func(p *Proc) {
		e.AfterNS(100, func() { log("after3") })
		p.SleepNS(60)
		p.SleepNS(40)
		log("sleepB")
	})
	e.Spawn("sleepC", func(p *Proc) {
		p.SleepNS(100)
		log("sleepC")
	})
	e.Run()

	want := []string{
		"100:after1",
		"100:after2",
		"100:after3",
		"100:timeoutB fired=true",
		"100:condWait signalled=true",
		"100:child",
		"100:after2.nested",
		"100:sleepA",
		"100:timeoutA fired=false",
		"100:firerA",
		"100:sleepC",
		"100:condWaitB signalled=false",
		"100:sleepB",
		"100:waitA",
		"100:child.slept0",
		"100:sleepA.yielded",
	}
	if !reflect.DeepEqual(order, want) {
		t.Fatalf("same-instant order changed:\n got %q\nwant %q", order, want)
	}
}

// The calendar is a hand-written heap; with a few hundred entries pending
// and callbacks scheduling more as they run, events must still fire by
// time and, at one time, in the order they were scheduled.
func TestCalendarOrder(t *testing.T) {
	e := NewEngine()
	rng := rand.New(rand.NewSource(1))
	type firing struct {
		at Time
		id int // scheduling order
	}
	var got []firing
	scheduled := 0
	var add func(depth int)
	add = func(depth int) {
		id, at := scheduled, e.Now()+Time(rng.Intn(50))
		scheduled++
		e.AfterNS(int64(at-e.Now()), func() {
			if e.Now() != at {
				t.Errorf("event %d fired at %v, scheduled for %v", id, e.Now(), at)
			}
			got = append(got, firing{at, id})
			if depth < 3 {
				add(depth + 1)
				add(depth + 1)
			}
		})
	}
	for i := 0; i < 200; i++ {
		add(0)
	}
	e.Run()
	if len(got) != scheduled {
		t.Fatalf("%d events fired, %d scheduled", len(got), scheduled)
	}
	for i := 1; i < len(got); i++ {
		a, b := got[i-1], got[i]
		if b.at < a.at || b.at == a.at && b.id < a.id {
			t.Fatalf("firing %d (t=%v, id %d) ran after firing %d (t=%v, id %d)", i, b.at, b.id, i-1, a.at, a.id)
		}
	}
}
