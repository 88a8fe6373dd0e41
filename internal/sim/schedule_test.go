package sim

import (
	"flag"
	"fmt"
	"math/rand"
	"os"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite testdata/schedule.golden from this run instead of comparing")

// TestScheduleGolden pins the engine's whole schedule: a seeded random mix
// of every way a process can give up control or wake another — Busy,
// SleepNS, Yield, SleepUntil, the three event waits, Cond Signal/Broadcast
// and timed waits, AfterNS callbacks that Fire or Signal, a Fire from a
// process, a Spawn from a process — with many same-instant ties. The log
// holds every resumption as (now, proc, step) and every line the SetTrace
// sink receives, and is compared with testdata/schedule.golden (-update
// rewrites it). A change to how the engine switches processes must leave
// it byte-identical.
func TestScheduleGolden(t *testing.T) {
	var b strings.Builder
	for seed := int64(1); seed <= 4; seed++ {
		fmt.Fprintf(&b, "seed %d\n", seed)
		renderSchedule(&b, seed)
	}
	got := b.String()
	const path = "testdata/schedule.golden"
	if *update {
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		t.Errorf("schedule moved from %s; rerun with -args -update and diff:\n%s", path, firstDiff(got, string(want)))
	}
}

// firstDiff names the first line where got and want differ.
func firstDiff(got, want string) string {
	g, w := strings.Split(got, "\n"), strings.Split(want, "\n")
	for i := 0; i < len(g) && i < len(w); i++ {
		if g[i] != w[i] {
			return fmt.Sprintf("line %d:\n got %q\nwant %q", i+1, g[i], w[i])
		}
	}
	return fmt.Sprintf("got %d lines, want %d", len(g), len(w))
}

// renderSchedule runs one seeded scenario and appends its log to b. One
// rng serves every process and callback, so any change in who runs when
// also changes what they do next.
func renderSchedule(b *strings.Builder, seed int64) {
	e := NewEngine()
	rng := rand.New(rand.NewSource(seed))
	logf := func(format string, a ...any) {
		fmt.Fprintf(b, "%6d ", int64(e.Now()))
		fmt.Fprintf(b, format, a...)
		b.WriteByte('\n')
	}
	e.SetTrace(func(s string) { b.WriteString("       trace " + s + "\n") })

	// dur draws a delay that often ties: zero, a few ns, or up to 100.
	dur := func() int64 {
		switch rng.Intn(4) {
		case 0:
			return 0
		case 1:
			return int64(rng.Intn(5))
		}
		return int64(rng.Intn(100))
	}
	conds := []*Cond{NewCond(e), NewCond(e)}
	meter := NewMeter("busy")

	// Every event has its Fire on the calendar from birth, so no wait on
	// one blocks forever; pick hands out a recent one or a new one.
	ids := map[*Event]int{}
	var recent []*Event
	newEvent := func() *Event {
		ev, id := NewEvent(e), len(ids)
		ids[ev] = id
		e.AfterNS(int64(rng.Intn(200)), func() {
			logf("call fire ev%d", id)
			ev.Fire()
		})
		if recent = append(recent, ev); len(recent) > 4 {
			recent = recent[1:]
		}
		return ev
	}
	pick := func() *Event {
		if rng.Intn(3) == 0 {
			return newEvent()
		}
		return recent[rng.Intn(len(recent))]
	}
	newEvent()
	newEvent()

	children := 0
	var body func(steps int) ProcFunc
	body = func(steps int) ProcFunc {
		return func(p *Proc) {
			for step := 0; step < steps; step++ {
				var what string
				switch rng.Intn(13) {
				case 0:
					ns := dur()
					p.Busy(ns, meter)
					what = fmt.Sprintf("busy %d", ns)
				case 1:
					ns := dur()
					p.SleepNS(ns)
					what = fmt.Sprintf("sleep %d", ns)
				case 2:
					p.Yield()
					what = "yield"
				case 3:
					until := p.Now() + Time(dur()-20)
					p.SleepUntil(until)
					what = fmt.Sprintf("sleepuntil %d", int64(until))
				case 4:
					ev := pick()
					p.WaitEvent(ev)
					what = fmt.Sprintf("wait ev%d", ids[ev])
				case 5:
					ev1, ev2 := pick(), pick()
					p.WaitAnyEvent(ev1, ev2)
					what = fmt.Sprintf("waitany ev%d ev%d", ids[ev1], ids[ev2])
				case 6:
					ev, ns := pick(), dur()
					fired := p.WaitEventTimeout(ev, ns)
					what = fmt.Sprintf("waittimeout ev%d %d fired=%v", ids[ev], ns, fired)
				case 7:
					c := rng.Intn(len(conds))
					conds[c].Signal()
					what = fmt.Sprintf("signal c%d", c)
				case 8:
					c := rng.Intn(len(conds))
					conds[c].Broadcast()
					what = fmt.Sprintf("broadcast c%d", c)
				case 9:
					c, ns := rng.Intn(len(conds)), dur()
					ok := p.WaitCondTimeout(conds[c], ns)
					what = fmt.Sprintf("condtimeout c%d %d signalled=%v", c, ns, ok)
				case 10:
					ev := pick()
					ev.Fire()
					what = fmt.Sprintf("fire ev%d", ids[ev])
				case 11:
					c, ns := rng.Intn(len(conds)), dur()
					e.AfterNS(ns, func() {
						logf("call signal c%d", c)
						conds[c].Signal()
					})
					what = fmt.Sprintf("after %d signal c%d", ns, c)
				case 12:
					if children == 6 {
						what = "spawn refused"
						break
					}
					name := fmt.Sprintf("c%d", children)
					children++
					e.Spawn(name, body(rng.Intn(20)))
					what = "spawn " + name
				}
				logf("%s %d %s", p.Name(), step, what)
			}
			logf("%s exit", p.Name())
		}
	}

	// A daemon parked on c0 for good; teardown unwinds it, and its
	// deferred sleep must park (and keep unwinding), not run ahead.
	e.Spawn("daemon", func(p *Proc) {
		defer func() { logf("daemon unwound") }()
		defer p.SleepNS(1)
		for n := 0; ; n++ {
			p.WaitCond(conds[0])
			logf("daemon woke %d", n)
		}
	})
	for i := 0; i < 4; i++ {
		e.Spawn(fmt.Sprintf("p%d", i), body(50))
	}
	end := e.Run()
	logf("run returned %d, parked %d, busy %d", int64(end), e.Parked(), int64(meter.Busy()))
}
