package rbq_test

// Linearizability property tests: the real red-blue queue and the
// slab's Treiber free stack driven through internal/check's seeded
// deterministic scheduler, their histories validated against the
// sequential specs. Every failure reports the seed that deterministically
// replays it.

import (
	"errors"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"

	"memif/internal/check"
	"memif/internal/rbq"
)

// execQOp runs one queue operation and returns its QRes output.
func execQOp(q *rbq.Queue, op check.QOp) any {
	switch op.Kind {
	case check.QEnqueue:
		c, ok := q.Enqueue(op.V)
		return check.QRes{C: c, Ok: ok}
	case check.QStage:
		kick, ok := q.Stage(op.V)
		return check.QRes{Kick: kick, Ok: ok}
	case check.QDequeue:
		v, ok := q.Dequeue()
		return check.QRes{V: v, Ok: ok}
	default:
		old, ok := q.SetColor(op.C)
		return check.QRes{C: old, Ok: ok}
	}
}

// runQueueSchedule executes pre-generated per-thread op scripts under
// one seed and checks the recorded history.
func runQueueSchedule(seed int64, scripts [][]check.QOp) error {
	slab := rbq.NewSlab(64)
	q := slab.NewQueue(rbq.Blue)
	s := check.NewSched(seed)
	rbq.SetSchedHook(s.YieldHook())
	defer rbq.SetSchedHook(nil)
	hist := check.NewHistory(len(scripts))
	for i := range scripts {
		i := i
		s.Go(func(t *check.Thread) {
			for _, op := range scripts[i] {
				op := op
				hist.Record(i, op, func() any { return execQOp(q, op) })
			}
		})
	}
	if err := s.Run(); err != nil {
		return err
	}
	if r := check.CheckHistory(check.QueueModel(rbq.Blue), hist); !r.Ok {
		return errors.New(r.Info)
	}
	return nil
}

// randomScripts derives deterministic per-thread op mixes from the seed.
func randomScripts(seed int64, nThreads, opsPer int) [][]check.QOp {
	rng := rand.New(rand.NewSource(seed * 7919))
	scripts := make([][]check.QOp, nThreads)
	var next uint32
	for i := range scripts {
		for j := 0; j < opsPer; j++ {
			switch rng.Intn(6) {
			case 0, 1:
				next++
				scripts[i] = append(scripts[i], check.QOp{Kind: check.QEnqueue, V: next})
			case 2:
				next++
				scripts[i] = append(scripts[i], check.QOp{Kind: check.QStage, V: next})
			case 3, 4:
				scripts[i] = append(scripts[i], check.QOp{Kind: check.QDequeue})
			default:
				scripts[i] = append(scripts[i], check.QOp{Kind: check.QSetColor, C: rbq.Color(rng.Intn(2))})
			}
		}
	}
	return scripts
}

func TestLinearizableMixedOps(t *testing.T) {
	seeds := 150
	if testing.Short() {
		seeds = 30
	}
	err := check.Explore(seeds, 1, func(seed int64) error {
		return runQueueSchedule(seed, randomScripts(seed, 3, 6))
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestRecolorWhileEnqueue targets the protocol's central entanglement:
// SetColor's CAS on the dummy's nil link racing an enqueuer that has
// already read the old color off that same link but not yet published
// its node. Exactly one of the two CASes may win; a schedule where an
// element enters the queue under a color the recolorer believes it
// replaced would break the Section 4.4 flush protocol.
func TestRecolorWhileEnqueue(t *testing.T) {
	scripts := [][]check.QOp{
		// An enqueuer hammering the empty<->non-empty boundary.
		{
			{Kind: check.QEnqueue, V: 1},
			{Kind: check.QDequeue},
			{Kind: check.QEnqueue, V: 2},
			{Kind: check.QDequeue},
		},
		// A recolorer flipping red<->blue the whole time.
		{
			{Kind: check.QSetColor, C: rbq.Red},
			{Kind: check.QSetColor, C: rbq.Blue},
			{Kind: check.QSetColor, C: rbq.Red},
			{Kind: check.QSetColor, C: rbq.Blue},
		},
		// A second enqueuer, so recolor also races a non-empty publish.
		{
			{Kind: check.QEnqueue, V: 3},
			{Kind: check.QDequeue},
			{Kind: check.QDequeue},
		},
	}
	seeds := 250
	if testing.Short() {
		seeds = 50
	}
	err := check.Explore(seeds, 1000, func(seed int64) error {
		return runQueueSchedule(seed, scripts)
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestStageWhileRecolor is TestRecolorWhileEnqueue for Stage: the
// worker's Park (a recolor to blue, refused on a non-empty queue) and
// its drain race stagers whose publishing CAS also turns the queue red.
// Exactly one stage may kick per blue→red transition, and a stage that
// observes red must find its value linked red behind everything queued.
func TestStageWhileRecolor(t *testing.T) {
	scripts := [][]check.QOp{
		// Two stagers, one mixing in a plain enqueue on the red queue.
		{
			{Kind: check.QStage, V: 1},
			{Kind: check.QStage, V: 2},
			{Kind: check.QEnqueue, V: 3},
		},
		{
			{Kind: check.QStage, V: 4},
			{Kind: check.QStage, V: 5},
		},
		// The worker: drain and park, twice over.
		{
			{Kind: check.QDequeue},
			{Kind: check.QDequeue},
			{Kind: check.QSetColor, C: rbq.Blue},
			{Kind: check.QDequeue},
			{Kind: check.QDequeue},
			{Kind: check.QDequeue},
			{Kind: check.QSetColor, C: rbq.Blue},
		},
	}
	seeds := 250
	if testing.Short() {
		seeds = 50
	}
	err := check.Explore(seeds, 3000, func(seed int64) error {
		return runQueueSchedule(seed, scripts)
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestABATagWraparound forces every tag word to the top of its 32-bit
// range and then drives concurrent operations across the wraparound:
// recycled-node CASes must still be defeated by the tag discipline when
// the tags themselves overflow to zero mid-run.
func TestABATagWraparound(t *testing.T) {
	seeds := 100
	if testing.Short() {
		seeds = 20
	}
	err := check.Explore(seeds, 5000, func(seed int64) error {
		slab := rbq.NewSlab(32)
		q := slab.NewQueue(rbq.Blue)
		// A handful of bumps away from 2^32: every successful alloc or
		// free bumps the free-head tag, so the run crosses zero almost
		// immediately.
		const startTag = ^uint32(0) - 3
		slab.ForceTagsForTest(startTag)
		q.ForceTagsForTest(startTag)

		s := check.NewSched(seed)
		rbq.SetSchedHook(s.YieldHook())
		defer rbq.SetSchedHook(nil)
		hist := check.NewHistory(2)
		scripts := randomScripts(seed, 2, 8)
		// A fixed enqueue/dequeue prefix per thread guarantees at least
		// four node allocations, enough to carry the tags past zero on
		// every seed.
		for i := range scripts {
			prefix := []check.QOp{
				{Kind: check.QEnqueue, V: uint32(900 + i)},
				{Kind: check.QDequeue},
				{Kind: check.QEnqueue, V: uint32(910 + i)},
				{Kind: check.QDequeue},
			}
			scripts[i] = append(prefix, scripts[i]...)
		}
		for i := range scripts {
			i := i
			s.Go(func(t *check.Thread) {
				for _, op := range scripts[i] {
					op := op
					hist.Record(i, op, func() any { return execQOp(q, op) })
				}
			})
		}
		if err := s.Run(); err != nil {
			return err
		}
		if r := check.CheckHistory(check.QueueModel(rbq.Blue), hist); !r.Ok {
			return errors.New(r.Info)
		}
		// The run must actually have crossed the wraparound, or the test
		// proves nothing.
		if tag := slab.TagOfFreeHeadForTest(); tag > startTag {
			return errors.New("free-head tag never wrapped")
		}
		// Node accounting survived: every node is on the free stack, in
		// the queue, or the dummy.
		if got, want := slab.FreeNodes()+q.Len()+1, slab.Capacity(); got != want {
			return errors.New("node accounting broken after wraparound")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestFreeStackLinearizable records AllocNode/ReleaseNode histories and
// checks them against the sequential LIFO spec (including its
// double-free detection).
func TestFreeStackLinearizable(t *testing.T) {
	seeds := 100
	if testing.Short() {
		seeds = 20
	}
	const cap = 8
	err := check.Explore(seeds, 9000, func(seed int64) error {
		slab := rbq.NewSlab(cap)
		// NewSlab chains 1..cap with 1 on top.
		initial := make([]uint32, cap)
		for i := 0; i < cap; i++ {
			initial[i] = uint32(cap - i)
		}
		s := check.NewSched(seed)
		rbq.SetSchedHook(s.YieldHook())
		defer rbq.SetSchedHook(nil)
		hist := check.NewHistory(3)
		for i := 0; i < 3; i++ {
			i := i
			s.Go(func(t *check.Thread) {
				var held []uint32
				for j := 0; j < 6; j++ {
					if len(held) > 0 && j%2 == 1 {
						idx := held[len(held)-1]
						held = held[:len(held)-1]
						hist.Record(i, check.SOp{Push: true, Idx: idx}, func() any {
							slab.ReleaseNode(idx)
							return nil
						})
						continue
					}
					hist.Record(i, check.SOp{}, func() any {
						idx, ok := slab.AllocNode()
						if ok {
							held = append(held, idx)
						}
						return check.SRes{Idx: idx, Ok: ok}
					})
				}
				for _, idx := range held {
					idx := idx
					hist.Record(i, check.SOp{Push: true, Idx: idx}, func() any {
						slab.ReleaseNode(idx)
						return nil
					})
				}
			})
		}
		if err := s.Run(); err != nil {
			return err
		}
		if r := check.CheckHistory(check.StackModel(initial), hist); !r.Ok {
			return errors.New(r.Info)
		}
		if slab.FreeNodes() != cap {
			return errors.New("nodes leaked from the free stack")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestSizeNeverNegativeDeterministic pins the Size regression under the
// deterministic scheduler, which can park an enqueuer between its
// publishing CAS and its enqs increment while a dequeuer takes the
// element and bumps deqs — the window where enqs − deqs reads negative.
// Size() must still never report a negative depth.
func TestSizeNeverNegativeDeterministic(t *testing.T) {
	err := check.Explore(100, 42, func(seed int64) error {
		slab := rbq.NewSlab(32)
		q := slab.NewQueue(rbq.Blue)
		s := check.NewSched(seed)
		rbq.SetSchedHook(s.YieldHook())
		defer rbq.SetSchedHook(nil)
		var bad atomic.Bool
		for p := 0; p < 2; p++ {
			s.Go(func(t *check.Thread) {
				for i := 0; i < 8; i++ {
					q.Enqueue(uint32(i + 1))
					if q.Size() < 0 {
						bad.Store(true)
					}
					q.Dequeue()
					if q.Size() < 0 {
						bad.Store(true)
					}
				}
			})
		}
		s.Go(func(t *check.Thread) { // dedicated sampler
			for i := 0; i < 32; i++ {
				if q.Size() < 0 {
					bad.Store(true)
				}
				t.Yield()
			}
		})
		if err := s.Run(); err != nil {
			return err
		}
		if bad.Load() {
			return errors.New("Size() went negative")
		}
		if q.Size() != q.Len() {
			return errors.New("quiescent Size() != Len()")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestSizeNeverNegativeStress is the same regression under real
// preemption: producers and consumers hammer the queue while samplers
// continuously read Size. The consumers stop short of the producers, so
// the storm quiesces with elements still queued, and the split counters
// must then agree with the pointer walk exactly.
func TestSizeNeverNegativeStress(t *testing.T) {
	slab := rbq.NewSlab(256)
	q := slab.NewQueue(rbq.Blue)
	const (
		producers = 4
		consumers = 4
		perProd   = 2000
		left      = 100 // still queued when the storm quiesces
	)
	var wg sync.WaitGroup
	var negative atomic.Bool
	stop := make(chan struct{})
	for sm := 0; sm < 2; sm++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				if q.Size() < 0 {
					negative.Store(true)
				}
			}
		}()
	}
	var produced, consumed atomic.Int64
	var cwg sync.WaitGroup
	for p := 0; p < producers; p++ {
		cwg.Add(1)
		go func(p int) {
			defer cwg.Done()
			for i := 0; i < perProd; i++ {
				for {
					if _, ok := q.Enqueue(uint32(p*perProd + i)); ok {
						produced.Add(1)
						break
					}
				}
			}
		}(p)
	}
	for c := 0; c < consumers; c++ {
		cwg.Add(1)
		go func() {
			defer cwg.Done()
			for consumed.Add(1) <= producers*perProd-left {
				for _, ok := q.Dequeue(); !ok; _, ok = q.Dequeue() {
				}
			}
		}()
	}
	cwg.Wait()
	close(stop)
	wg.Wait()
	if negative.Load() {
		t.Fatal("Size() reported a negative depth under concurrency")
	}
	if q.Size() != left || q.Len() != left {
		t.Fatalf("quiesced queue reports Size=%d Len=%d, want %d", q.Size(), q.Len(), left)
	}
	q.Drain(func(uint32) {})
	if q.Size() != 0 || q.Len() != 0 {
		t.Fatalf("drained queue reports Size=%d Len=%d", q.Size(), q.Len())
	}
}
