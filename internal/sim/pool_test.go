package sim

import (
	"runtime"
	"testing"
)

// A process spawned after another has exited runs on the exited one's
// coroutine: the same Proc, and no allocation for the spawn, the run and
// the exit.
func TestSpawnReusesExitedCoroutine(t *testing.T) {
	e := NewEngine()
	ran := 0
	body := func(*Proc) { ran++ }
	allocs := -1.0
	var first *Proc
	reused := true
	e.Spawn("driver", func(p *Proc) {
		first = e.Spawn("child", body)
		p.Yield() // the child runs and exits
		allocs = testing.AllocsPerRun(100, func() {
			reused = reused && e.Spawn("child", body) == first
			p.Yield()
		})
	})
	e.Run()
	if ran != 102 {
		t.Errorf("the child body ran %d times, want 102", ran)
	}
	if !reused {
		t.Error("a spawn after the exit made a new Proc")
	}
	if allocs != 0 {
		t.Errorf("a spawn on a reused coroutine allocates %v times, want 0", allocs)
	}
}

// Teardown stops the pooled coroutines of exited processes as well as
// the live parked ones: no goroutine outlives Run.
func TestTeardownStopsPooledCoroutines(t *testing.T) {
	before := runtime.NumGoroutine()
	e := NewEngine()
	c := NewCond(e)
	for i := 0; i < 3; i++ {
		e.Spawn("exits", func(p *Proc) { p.SleepNS(int64(i)) })
	}
	e.Spawn("daemon", func(p *Proc) { p.WaitCond(c) })
	pooled := 0
	e.AfterNS(100, func() { pooled = len(e.pool) })
	e.Run()
	if pooled != 3 {
		t.Errorf("%d coroutines pooled before teardown, want the 3 exited", pooled)
	}
	if e.Parked() != 0 {
		t.Errorf("Parked() = %d after teardown, want 0", e.Parked())
	}
	if after := settledGoroutines(before); after > before {
		t.Errorf("goroutines: %d before Run, %d after", before, after)
	}
}

// A panic in a body running on a reused coroutine surfaces from Run with
// its value, like one in a fresh process, and teardown still leaves no
// goroutine behind.
func TestPanicInReusedBodySurfaces(t *testing.T) {
	before := runtime.NumGoroutine()
	e := NewEngine()
	var first, second *Proc
	e.Spawn("driver", func(p *Proc) {
		first = e.Spawn("child", func(*Proc) {})
		p.Yield()
		second = e.Spawn("child", func(*Proc) { panic("memif: double completion") })
		p.SleepNS(10)
		t.Error("the driver outlived the panic")
	})
	func() {
		defer func() {
			if r := recover(); r != "memif: double completion" {
				t.Errorf("recovered %v, want the body's panic value", r)
			}
		}()
		e.Run()
		t.Error("Run returned normally")
	}()
	if second != first {
		t.Error("the panicking body did not run on the reused coroutine")
	}
	if after := settledGoroutines(before); after > before {
		t.Errorf("goroutines: %d before Run, %d after", before, after)
	}
}
