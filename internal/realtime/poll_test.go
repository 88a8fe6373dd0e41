package realtime

// Poll-side coverage: the Poll/PollContext spin-before-sleep
// micro-wait and its sleeping slow path (one table of wait scenarios
// run through both entry points).

import (
	"bytes"
	"context"
	"runtime"
	"testing"
	"time"
)

// TestPollMicroWaitSpins pins the Poll spin-before-sleep micro-wait:
// with a few-microsecond copy delay, a high-rate poller must resolve at
// least some waits inside the spin budget (PollerSpins > 0).
func TestPollMicroWaitSpins(t *testing.T) {
	if runtime.GOMAXPROCS(0) < 2 {
		t.Skip("the micro-wait is off on a single P: nothing can complete while the poller spins")
	}
	d := Open(Options{
		NumReqs:     16,
		Controllers: 1,
		Chaos: &ChaosHooks{
			BeforeChunkCopy: func(idx uint32, off, end int) { time.Sleep(5 * time.Microsecond) },
		},
	})
	d.inline.Store(0) // force the controller path
	defer d.Close()

	src := bytes.Repeat([]byte{9}, 1<<10)
	dst := make([]byte, len(src))
	warm := d.AllocRequest()
	warm.Src, warm.Dst = src, dst
	if err := d.Submit(warm); err != nil {
		t.Fatal(err)
	}
	if !d.Poll(time.Second) {
		t.Fatal("warm-up Poll timed out")
	}
	d.FreeRequest(d.RetrieveCompleted())

	before := d.Stats()
	const n = 300
	for i := 0; i < n; i++ {
		r := d.AllocRequest()
		r.Src, r.Dst = src, dst
		if err := d.Submit(r); err != nil {
			t.Fatal(err)
		}
		if !d.Poll(time.Second) {
			t.Fatal("Poll timed out")
		}
		got := d.RetrieveCompleted()
		if got == nil {
			t.Fatal("no completion after Poll")
		}
		d.FreeRequest(got)
	}
	after := d.Stats()

	if ds := after.PollerSpins - before.PollerSpins; ds == 0 {
		t.Errorf("PollerSpins delta = 0 over %d submit+Poll cycles, want > 0 (micro-wait regressed)", n)
	}
}

// TestPollTimeoutParks: with nothing in flight, a bounded Poll must
// take the sleeping slow path (PollerParks) after the spin budget
// misses, and still return false.
func TestPollTimeoutParks(t *testing.T) {
	d := Open(Options{NumReqs: 8})
	defer d.Close()
	before := d.Stats().PollerParks
	if d.Poll(5 * time.Millisecond) {
		t.Error("Poll reported a completion on an idle device")
	}
	if dp := d.Stats().PollerParks - before; dp == 0 {
		t.Error("PollerParks delta = 0 for a timed-out Poll, want >= 1")
	}
}

// waitDoor is one of the two entry points onto Device.wait. open returns
// the blocking call and the function that makes it give up: a bounded
// Poll carries its own timer (expire is a no-op, the event is the timer
// firing), a PollContext gives up when its context is canceled.
type waitDoor struct {
	name string
	open func(d *Device, bounded bool) (wait func() bool, expire func())
}

var waitDoors = []waitDoor{
	{"Poll", func(d *Device, bounded bool) (func() bool, func()) {
		var timeout time.Duration
		if bounded {
			timeout = 5 * time.Millisecond
		}
		return func() bool { return d.Poll(timeout) }, func() {}
	}},
	{"PollContext", func(d *Device, bounded bool) (func() bool, func()) {
		ctx, cancel := context.WithCancel(context.Background())
		return func() bool { return d.PollContext(ctx) }, cancel
	}},
}

// waitGuard bounds every step of a wait scenario: a hang fails the test
// instead of the suite. It is a watchdog, never a synchroniser — each
// scenario sequences itself on counted events.
const waitGuard = 10 * time.Second

// awaitCond yields until cond holds.
func awaitCond(t *testing.T, what string, cond func() bool) {
	t.Helper()
	for deadline := time.Now().Add(waitGuard); !cond(); runtime.Gosched() {
		if time.Now().After(deadline) {
			t.Fatalf("%s: not reached within %v", what, waitGuard)
		}
	}
}

// parked starts n waiters through door and returns, once every one of
// them is counted as parked on the notify edge, the channel their
// results arrive on.
func parked(t *testing.T, d *Device, n int, wait func() bool) <-chan bool {
	t.Helper()
	want := d.m.pollerParks.Load() + int64(n)
	res := make(chan bool, n)
	for i := 0; i < n; i++ {
		go func() { res <- wait() }()
	}
	awaitCond(t, "waiters parked", func() bool { return d.m.pollerParks.Load() >= want })
	return res
}

// result receives one waiter's answer.
func result(t *testing.T, res <-chan bool) bool {
	t.Helper()
	select {
	case got := <-res:
		return got
	case <-time.After(waitGuard):
		t.Fatalf("waiter still blocked after %v", waitGuard)
		return false
	}
}

// TestWaitScenarios holds both doors onto the one blocking wait to the
// same contract, scenario by scenario. Nothing here sleeps to order
// events: a scenario moves on when PollerParks says the waiter is parked
// (or a completion ring says the completion landed), with the worker
// held in Chaos.BeforeDispatch where completions must not arrive early.
func TestWaitScenarios(t *testing.T) {
	submit := func(t *testing.T, d *Device) {
		t.Helper()
		r := d.AllocRequest()
		r.Src, r.Dst = []byte{1, 2, 3, 4}, make([]byte, 4)
		if err := d.Submit(r); err != nil {
			t.Fatal(err)
		}
	}
	drain := func(t *testing.T, d *Device, n int) {
		t.Helper()
		for _, r := range drainAll(t, d, n) {
			d.FreeRequest(r)
		}
		if err := d.AuditSlots(nil); err != nil {
			t.Error(err)
		}
	}
	scenarios := []struct {
		name string
		run  func(t *testing.T, door waitDoor)
	}{
		{"pending", func(t *testing.T, door waitDoor) {
			// A completion already pending: true, and no park counted.
			d := Open(Options{NumReqs: 4, Controllers: 1})
			defer d.Close()
			submit(t, d)
			awaitCond(t, "completion pending", func() bool { return !d.completions.empty() })
			before := d.m.pollerParks.Load()
			wait, expire := door.open(d, false)
			defer expire()
			if !wait() {
				t.Error("wait = false with a completion pending")
			}
			if dp := d.m.pollerParks.Load() - before; dp != 0 {
				t.Errorf("PollerParks moved by %d with a completion pending, want 0", dp)
			}
			drain(t, d, 1)
		}},
		{"close-while-parked", func(t *testing.T, door waitDoor) {
			d := Open(Options{NumReqs: 4, Controllers: 1})
			defer d.Close()
			wait, expire := door.open(d, false)
			defer expire()
			res := parked(t, d, 1, wait)
			d.Close()
			if result(t, res) {
				t.Error("wait = true after Close with nothing pending")
			}
		}},
		{"expiry-while-parked", func(t *testing.T, door waitDoor) {
			d := Open(Options{NumReqs: 4, Controllers: 1})
			defer d.Close()
			wait, expire := door.open(d, true)
			res := parked(t, d, 1, wait)
			expire()
			if result(t, res) {
				t.Error("wait = true after expiry with nothing pending")
			}
			if !d.completions.empty() {
				t.Error("a completion appeared on an idle device")
			}
		}},
		{"two-waiters-two-completions", func(t *testing.T, door waitDoor) {
			// Two parked waiters share one buffered notify token: the
			// first to wake must re-arm it, or the second sleeps past a
			// retrievable completion.
			d, release, _ := openStalled(Options{NumReqs: 4, Controllers: 1})
			defer d.Close()
			submit(t, d)
			submit(t, d)
			wait, expire := door.open(d, false)
			defer expire()
			res := parked(t, d, 2, wait)
			release()
			for i := 0; i < 2; i++ {
				if !result(t, res) {
					t.Errorf("waiter %d: wait = false with completions arriving", i)
				}
			}
			drain(t, d, 2)
		}},
	}
	for _, sc := range scenarios {
		for _, door := range waitDoors {
			t.Run(sc.name+"/"+door.name, func(t *testing.T) { sc.run(t, door) })
		}
	}
}
