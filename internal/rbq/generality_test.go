package rbq

import (
	"sync"
	"sync/atomic"
	"testing"
)

// Section 4.3 closes by noting the design "maintains a queue-wide
// property (not limited to a binary color value) as part of the atomic
// queue operations". Exercise an 8-valued property: a round-robin token
// advanced only on an empty queue, with concurrent producers observing
// a consistent value on every enqueue.
func TestMultiValuedProperty(t *testing.T) {
	s := NewSlab(128)
	q := s.NewQueue(Color(0))
	for want := Color(0); want < 8; want++ {
		if c := q.Color(); c != want {
			t.Fatalf("color = %v, want %d", c, want)
		}
		// Ops under this color observe it.
		if c, _ := q.Enqueue(uint32(want)); c != want {
			t.Fatalf("enqueue saw %v under %d", c, want)
		}
		if _, ok := q.SetColor(want + 1); ok {
			t.Fatal("recolored a non-empty queue")
		}
		if v, _ := q.Dequeue(); v != uint32(want) {
			t.Fatalf("dequeue = %d", v)
		}
		if old, ok := q.SetColor(want + 1); !ok || old != want {
			t.Fatalf("SetColor -> %v,%v", old, ok)
		}
	}
}

// Single-owner property torture: one thread is the only recolorer,
// cycling the property 0,1,2,... whenever the queue happens to be empty;
// many other threads enqueue and dequeue concurrently. Two invariants
// prove the property is maintained atomically with the queue operations:
// the owner's every successful SetColor returns exactly the value it set
// last (nobody can corrupt it), and every color observed by an enqueue
// is one the owner had already set (never a torn or future value).
func TestSingleOwnerPropertyCycle(t *testing.T) {
	const states = 7
	s := NewSlab(1 << 12)
	q := s.NewQueue(0)

	var maxSet atomic.Uint32
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for g := 0; g < 5; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				c, ok := q.Enqueue(1)
				if !ok {
					continue
				}
				if uint32(c) > maxSet.Load() {
					t.Errorf("enqueue observed color %d before the owner set it (max %d)", c, maxSet.Load())
					return
				}
				q.Dequeue()
			}
		}()
	}
	last := Color(0)
	for i := 0; i < 5000; i++ {
		next := Color((int(last) + 1) % states)
		// Announce before publishing, so a concurrent observer of the
		// new color never races the bookkeeping.
		if uint32(next) > maxSet.Load() {
			maxSet.Store(uint32(next))
		}
		if next == 0 {
			maxSet.Store(states) // wrapped: all states now legal
		}
		old, ok := q.SetColor(next)
		if !ok {
			continue // queue non-empty right now
		}
		if old != last {
			t.Fatalf("owner set %d last but SetColor returned %d", last, old)
		}
		last = next
	}
	close(stop)
	wg.Wait()
}
