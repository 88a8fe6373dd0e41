package sim

import (
	"runtime"
	"testing"
	"time"
)

// settledGoroutines polls until the goroutine count drops to want (exited
// goroutines are reaped asynchronously) and returns the last count seen.
func settledGoroutines(want int) int {
	n := runtime.NumGoroutine()
	for i := 0; i < 200 && n > want; i++ {
		time.Sleep(time.Millisecond)
		n = runtime.NumGoroutine()
	}
	return n
}

// A parked daemon whose deferred cleanup charges virtual time (a Close
// that sleeps) parks again while teardown unwinds it. Every nested park
// must keep unwinding: the body's remaining defers run and no goroutine
// outlives Run.
func TestTeardownDeferThatSleeps(t *testing.T) {
	before := runtime.NumGoroutine()
	e := NewEngine()
	c := NewCond(e)
	cleaned := false
	e.Spawn("daemon", func(p *Proc) {
		defer func() { cleaned = true }()
		defer p.SleepNS(1)
		p.WaitCond(c) // never signalled
	})
	e.Spawn("worker", func(p *Proc) { p.SleepNS(100) })
	if end := e.Run(); end != Time(100) {
		t.Errorf("Run() = %v, want 100ns", end)
	}
	if !cleaned {
		t.Error("daemon's outer defer did not run")
	}
	if e.Parked() != 0 {
		t.Errorf("Parked() = %d after teardown, want 0", e.Parked())
	}
	if after := settledGoroutines(before); after > before {
		t.Errorf("goroutines: %d before Run, %d after", before, after)
	}
}

// A panic in a proc body (the driver's BUG_ON panics) surfaces from Run on
// the caller's goroutine with its original value, and the sibling procs
// are still torn down.
func TestProcPanicSurfacesFromRun(t *testing.T) {
	before := runtime.NumGoroutine()
	e := NewEngine()
	c := NewCond(e)
	e.Spawn("parked", func(p *Proc) { p.WaitCond(c) })
	e.Spawn("sleeping", func(p *Proc) { p.SleepNS(1000) })
	e.Spawn("unstarted", func(p *Proc) {
		p.SleepNS(10)
		e.Spawn("never-dispatched", func(*Proc) { t.Error("proc spawned by the panicking event ran") })
		panic("memif: double completion")
	})
	func() {
		defer func() {
			if r := recover(); r != "memif: double completion" {
				t.Errorf("recovered %v, want the proc's panic value", r)
			}
		}()
		e.Run()
		t.Error("Run returned normally")
	}()
	if e.Parked() != 0 {
		t.Errorf("Parked() = %d after teardown, want 0", e.Parked())
	}
	if after := settledGoroutines(before); after > before {
		t.Errorf("goroutines: %d before Run, %d after", before, after)
	}
}
