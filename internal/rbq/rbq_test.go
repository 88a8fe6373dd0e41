package rbq

import (
	"sync"
	"sync/atomic"
	"testing"
	"testing/quick"
	"unsafe"
)

func TestPacking(t *testing.T) {
	prop := func(idx uint32, c uint8, tag uint32) bool {
		idx &= idxMask
		w := pack(idx, Color(c), tag)
		return unpackIdx(w) == idx && unpackColor(w) == Color(c) && unpackTag(w) == tag
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Error(err)
	}
}

func TestFIFOOrder(t *testing.T) {
	s := NewSlab(64)
	q := s.NewQueue(Blue)
	for i := uint32(1); i <= 10; i++ {
		if _, ok := q.Enqueue(i); !ok {
			t.Fatalf("enqueue %d failed", i)
		}
	}
	if q.Len() != 10 {
		t.Errorf("Len = %d, want 10", q.Len())
	}
	for i := uint32(1); i <= 10; i++ {
		v, ok := q.Dequeue()
		if !ok || v != i {
			t.Fatalf("dequeue = %d,%v; want %d,true", v, ok, i)
		}
	}
	if _, ok := q.Dequeue(); ok {
		t.Error("dequeue on empty queue succeeded")
	}
	if !q.Empty() {
		t.Error("Empty() = false on drained queue")
	}
}

func TestColorPropagation(t *testing.T) {
	s := NewSlab(64)
	q := s.NewQueue(Blue)
	if c := q.Color(); c != Blue {
		t.Fatalf("initial color = %v", c)
	}
	// Every enqueue observes the color and propagates it.
	for i := 0; i < 5; i++ {
		c, _ := q.Enqueue(uint32(i + 1))
		if c != Blue {
			t.Errorf("enqueue %d saw %v, want blue", i, c)
		}
	}
	if c := q.Color(); c != Blue {
		t.Errorf("color after enqueues = %v", c)
	}
	q.Drain(func(uint32) {})
	// Recolor the (now empty) queue; subsequent ops see red.
	if old, ok := q.SetColor(Red); !ok || old != Blue {
		t.Fatalf("SetColor = %v,%v", old, ok)
	}
	if c, _ := q.Enqueue(42); c != Red {
		t.Errorf("enqueue after recolor saw %v, want red", c)
	}
	if c := q.Color(); c != Red {
		t.Errorf("Color() = %v, want red", c)
	}
}

func TestSetColorFailsOnNonEmpty(t *testing.T) {
	s := NewSlab(64)
	q := s.NewQueue(Blue)
	q.Enqueue(1)
	if _, ok := q.SetColor(Red); ok {
		t.Error("SetColor succeeded on non-empty queue")
	}
	if c := q.Color(); c != Blue {
		t.Errorf("failed SetColor changed color to %v", c)
	}
	q.Dequeue()
	if _, ok := q.SetColor(Red); !ok {
		t.Error("SetColor failed on empty queue")
	}
}

func TestSetColorIdempotent(t *testing.T) {
	s := NewSlab(8)
	q := s.NewQueue(Red)
	old, ok := q.SetColor(Red)
	if !ok || old != Red {
		t.Errorf("SetColor(same) = %v,%v", old, ok)
	}
}

func TestSlabExhaustion(t *testing.T) {
	s := NewSlab(4)
	q := s.NewQueue(Blue) // dummy eats one node
	var n int
	for i := uint32(1); ; i++ {
		if _, ok := q.Enqueue(i); !ok {
			break
		}
		n++
	}
	if n != 3 {
		t.Errorf("enqueued %d before exhaustion, want 3", n)
	}
	// Dequeue frees a node; enqueue works again.
	q.Dequeue()
	if _, ok := q.Enqueue(99); !ok {
		t.Error("enqueue after dequeue failed")
	}
}

func TestNodeAccountingQuiescent(t *testing.T) {
	s := NewSlab(32)
	q := s.NewQueue(Blue)
	base := s.FreeNodes()
	for i := uint32(1); i <= 10; i++ {
		q.Enqueue(i)
	}
	if got := s.FreeNodes(); got != base-10 {
		t.Errorf("free nodes = %d, want %d", got, base-10)
	}
	q.Drain(func(uint32) {})
	if got := s.FreeNodes(); got != base {
		t.Errorf("free nodes after drain = %d, want %d", got, base)
	}
}

func TestMultipleQueuesShareSlab(t *testing.T) {
	s := NewSlab(64)
	a := s.NewQueue(Blue)
	b := s.NewQueue(Red)
	a.Enqueue(1)
	b.Enqueue(2)
	if v, _ := a.Dequeue(); v != 1 {
		t.Error("queue a corrupted")
	}
	if v, _ := b.Dequeue(); v != 2 {
		t.Error("queue b corrupted")
	}
	if a.Color() != Blue || b.Color() != Red {
		t.Error("queues share color state")
	}
}

func TestBadSlabCapacityPanics(t *testing.T) {
	for _, c := range []int{0, -1, MaxNodes} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("NewSlab(%d) did not panic", c)
				}
			}()
			NewSlab(c)
		}()
	}
}

func TestDrainCount(t *testing.T) {
	s := NewSlab(16)
	q := s.NewQueue(Blue)
	for i := uint32(1); i <= 7; i++ {
		q.Enqueue(i)
	}
	var n, sum uint32
	q.Drain(func(v uint32) { n, sum = n+1, sum+v })
	if n != 7 || sum != 28 {
		t.Errorf("Drain visited %d values summing to %d, want 7 and 28", n, sum)
	}
}

// --- Concurrency stress (run with -race) ---

// Multiset preservation: everything enqueued by concurrent producers is
// dequeued exactly once by concurrent consumers.
func TestConcurrentMultiset(t *testing.T) {
	const producers, perProducer, consumers = 8, 2000, 8
	s := NewSlab(producers*perProducer + 8)
	q := s.NewQueue(Blue)

	seen := make([]atomic.Int32, producers*perProducer+1)
	var wg sync.WaitGroup
	var done atomic.Bool

	for c := 0; c < consumers; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				v, ok := q.Dequeue()
				if ok {
					seen[v].Add(1)
					continue
				}
				if done.Load() {
					// Final sweep after producers finish.
					for {
						v, ok := q.Dequeue()
						if !ok {
							return
						}
						seen[v].Add(1)
					}
				}
			}
		}()
	}
	var pwg sync.WaitGroup
	for p := 0; p < producers; p++ {
		pwg.Add(1)
		go func(p int) {
			defer pwg.Done()
			for i := 0; i < perProducer; i++ {
				v := uint32(p*perProducer + i + 1)
				if _, ok := q.Enqueue(v); !ok {
					t.Errorf("enqueue %d failed (slab exhausted)", v)
					return
				}
			}
		}(p)
	}
	pwg.Wait()
	done.Store(true)
	wg.Wait()

	for v := 1; v <= producers*perProducer; v++ {
		if n := seen[v].Load(); n != 1 {
			t.Fatalf("value %d dequeued %d times", v, n)
		}
	}
}

// Per-producer FIFO: values from one producer come out in order.
func TestConcurrentPerProducerOrder(t *testing.T) {
	const producers, perProducer = 4, 3000
	s := NewSlab(producers*perProducer + 8)
	q := s.NewQueue(Blue)
	var wg sync.WaitGroup
	for p := 0; p < producers; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			for i := 0; i < perProducer; i++ {
				// Encode producer in high bits, sequence in low.
				q.Enqueue(uint32(p)<<16 | uint32(i))
			}
		}(p)
	}
	wg.Wait()
	last := make([]int, producers)
	for i := range last {
		last[i] = -1
	}
	for {
		v, ok := q.Dequeue()
		if !ok {
			break
		}
		p, seq := int(v>>16), int(v&0xffff)
		if seq <= last[p] {
			t.Fatalf("producer %d: seq %d after %d", p, seq, last[p])
		}
		last[p] = seq
	}
	for p, l := range last {
		if l != perProducer-1 {
			t.Errorf("producer %d: last seq %d, want %d", p, l, perProducer-1)
		}
	}
}

// The SubmitRequest protocol (Section 4.4) under real preemption:
// concurrent submitters enqueue into a blue staging queue; whoever's
// enqueue observed blue runs Flush; exactly the threads that turn the
// color from blue to red "issue the ioctl" and then play the kernel
// (Drain, Park). The invariant: every submitted value ends up flushed to
// the submission queue exactly once. protocol_test.go checks the same
// steps schedule by schedule.
func TestSubmitProtocol(t *testing.T) {
	const threads, perThread = 8, 1000
	s := NewSlab(2*threads*perThread + 16)
	staging := s.NewQueue(Blue)
	submission := s.NewQueue(Blue)

	var ioctls atomic.Int32
	var flushed atomic.Int32
	var wg sync.WaitGroup
	submit := func(v uint32) {
		c, ok := staging.Enqueue(v)
		if !ok {
			t.Error("staging enqueue failed")
			return
		}
		if c != Blue {
			return // red: the "kernel" (some other flusher) owns it
		}
		flush := func(v uint32) {
			submission.Enqueue(v)
			flushed.Add(1)
		}
		if !staging.Flush(flush) {
			return // someone else already took responsibility
		}
		ioctls.Add(1)
		// Simulate the kernel: drain whatever accumulated while red,
		// then park. (In memif the kernel thread does this.)
		for {
			staging.Drain(flush)
			if staging.Park() {
				return
			}
		}
	}
	for th := 0; th < threads; th++ {
		wg.Add(1)
		go func(th int) {
			defer wg.Done()
			for i := 0; i < perThread; i++ {
				submit(uint32(th*perThread + i + 1))
			}
		}(th)
	}
	wg.Wait()

	if got := int(flushed.Load()); got != threads*perThread {
		t.Errorf("flushed %d values, want %d", got, threads*perThread)
	}
	if submission.Len() != threads*perThread {
		t.Errorf("submission holds %d, want %d", submission.Len(), threads*perThread)
	}
	if n := int(ioctls.Load()); n < 1 || n > threads*perThread {
		t.Errorf("ioctls = %d out of plausible range", n)
	}
	seen := make(map[uint32]bool)
	submission.Drain(func(v uint32) {
		if seen[v] {
			t.Errorf("value %d flushed twice", v)
		}
		seen[v] = true
	})
	if staging.Len() != 0 {
		t.Errorf("staging not drained: %d left", staging.Len())
	}
}

// Concurrent SetColor vs Enqueue: a successful SetColor must never be
// observed alongside an element enqueued under the old color remaining
// unflushed. We test the weaker structural invariant the algorithm
// guarantees: SetColor only ever succeeds when the queue is empty at the
// linearization point, so after a successful recolor an immediately
// following dequeue by the same thread can only return elements enqueued
// *after* (which observed the new color).
func TestSetColorLinearization(t *testing.T) {
	const iters = 2000
	s := NewSlab(64)
	q := s.NewQueue(Blue)
	var wg sync.WaitGroup
	stop := make(chan struct{})
	wg.Add(1)
	go func() { // churn
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			if c, ok := q.Enqueue(1); ok {
				// Whoever enqueues under blue must drain (protocol).
				if c == Blue {
					q.Drain(func(uint32) {})
				}
			}
			q.Dequeue()
		}
	}()
	for i := 0; i < iters; i++ {
		if old, ok := q.SetColor(Red); ok {
			_ = old
			// Queue was empty at the recolor instant. Put it back.
			for {
				if _, ok := q.SetColor(Blue); ok {
					break
				}
				q.Drain(func(uint32) {})
			}
		}
	}
	close(stop)
	wg.Wait()
}

// Property: random sequential op mix keeps queue contents consistent
// with a model deque.
func TestQuickSequentialModel(t *testing.T) {
	prop := func(ops []uint8) bool {
		s := NewSlab(256)
		q := s.NewQueue(Blue)
		var model []uint32
		color := Blue
		next := uint32(1)
		for _, op := range ops {
			switch op % 4 {
			case 0, 1: // enqueue
				c, ok := q.Enqueue(next)
				if !ok || c != color {
					return false
				}
				model = append(model, next)
				next++
			case 2: // dequeue
				v, ok := q.Dequeue()
				if len(model) == 0 {
					if ok {
						return false
					}
				} else {
					if !ok || v != model[0] {
						return false
					}
					model = model[1:]
				}
			case 3: // recolor
				want := Color(op % 2)
				old, ok := q.SetColor(want)
				if len(model) == 0 {
					if !ok || old != color {
						return false
					}
					color = want
				} else if ok {
					return false
				}
			}
		}
		return q.Len() == len(model)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestSizeTracksElements(t *testing.T) {
	s := NewSlab(32)
	q := s.NewQueue(Blue)
	if q.Size() != 0 {
		t.Fatalf("empty Size = %d", q.Size())
	}
	for i := uint32(0); i < 10; i++ {
		q.Enqueue(i)
	}
	if q.Size() != 10 {
		t.Errorf("Size after 10 enqueues = %d", q.Size())
	}
	for i := 0; i < 4; i++ {
		q.Dequeue()
	}
	if q.Size() != 6 {
		t.Errorf("Size after 4 dequeues = %d", q.Size())
	}
	if q.Size() != q.Len() {
		t.Errorf("Size = %d, Len = %d", q.Size(), q.Len())
	}
}

func TestSizeConcurrentNoRace(t *testing.T) {
	s := NewSlab(1024)
	q := s.NewQueue(Blue)
	var wg sync.WaitGroup
	stop := make(chan struct{})
	// A watermark reader races producers/consumers; run under -race.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
				if q.Size() < 0 {
					t.Error("Size went negative past the clamp")
					return
				}
			}
		}
	}()
	var pwg sync.WaitGroup
	for g := 0; g < 4; g++ {
		pwg.Add(1)
		go func() {
			defer pwg.Done()
			for i := uint32(0); i < 500; i++ {
				q.Enqueue(i)
				q.Dequeue()
			}
		}()
	}
	pwg.Wait()
	close(stop)
	wg.Wait()
	if q.Size() != q.Len() {
		t.Errorf("quiescent Size = %d, Len = %d", q.Size(), q.Len())
	}
}

// TestQueueLayout pins the cache-line split of Queue: the dequeuers'
// words (head, deqs) and the enqueuers' (tail, enqs) are at least 64
// bytes apart, so at any base alignment they share no line.
func TestQueueLayout(t *testing.T) {
	var q Queue
	deqEnd := max(unsafe.Offsetof(q.head)+unsafe.Sizeof(q.head), unsafe.Offsetof(q.deqs)+unsafe.Sizeof(q.deqs))
	enqStart := min(unsafe.Offsetof(q.tail), unsafe.Offsetof(q.enqs))
	if enqStart < deqEnd+64 {
		t.Errorf("head/deqs end at byte %d, tail/enqs start at %d: want at least 64 bytes between", deqEnd, enqStart)
	}
	if unsafe.Offsetof(q.head) < unsafe.Offsetof(q.slab)+unsafe.Sizeof(q.slab)+64 {
		t.Errorf("head at byte %d shares a line with the slab pointer", unsafe.Offsetof(q.head))
	}
}
