package check

import (
	"fmt"
	"strings"
	"testing"

	"memif/internal/rbq"
)

// mkOps builds a history from (client, input, output, call, return)
// tuples.
type opSpec struct {
	client   int
	in, out  any
	call, rt int64
}

func mkOps(specs []opSpec) []Op {
	ops := make([]Op, len(specs))
	for i, s := range specs {
		ops[i] = Op{Client: s.client, Input: s.in, Output: s.out, Call: s.call, Return: s.rt}
	}
	return ops
}

func TestQueueModelSequentialAccept(t *testing.T) {
	m := QueueModel(rbq.Blue)
	ops := mkOps([]opSpec{
		{0, QOp{Kind: QEnqueue, V: 1}, QRes{C: rbq.Blue, Ok: true}, 1, 2},
		{0, QOp{Kind: QEnqueue, V: 2}, QRes{C: rbq.Blue, Ok: true}, 3, 4},
		{0, QOp{Kind: QDequeue}, QRes{V: 1, Ok: true}, 5, 6},
		{0, QOp{Kind: QDequeue}, QRes{V: 2, Ok: true}, 7, 8},
		{0, QOp{Kind: QDequeue}, QRes{Ok: false}, 9, 10},
		{0, QOp{Kind: QSetColor, C: rbq.Red}, QRes{C: rbq.Blue, Ok: true}, 11, 12},
		{0, QOp{Kind: QEnqueue, V: 3}, QRes{C: rbq.Red, Ok: true}, 13, 14},
	})
	if r := Check(m, ops); !r.Ok {
		t.Fatalf("legal sequential history rejected: %s", r.Info)
	}
}

func TestQueueModelRejectsFIFOViolation(t *testing.T) {
	m := QueueModel(rbq.Blue)
	// Two sequential enqueues, then the *second* value dequeued first.
	ops := mkOps([]opSpec{
		{0, QOp{Kind: QEnqueue, V: 1}, QRes{C: rbq.Blue, Ok: true}, 1, 2},
		{0, QOp{Kind: QEnqueue, V: 2}, QRes{C: rbq.Blue, Ok: true}, 3, 4},
		{0, QOp{Kind: QDequeue}, QRes{V: 2, Ok: true}, 5, 6},
	})
	if r := Check(m, ops); r.Ok {
		t.Fatal("FIFO violation accepted")
	}
}

func TestQueueModelRejectsPhantomValue(t *testing.T) {
	m := QueueModel(rbq.Blue)
	ops := mkOps([]opSpec{
		{0, QOp{Kind: QEnqueue, V: 1}, QRes{C: rbq.Blue, Ok: true}, 1, 2},
		{0, QOp{Kind: QDequeue}, QRes{V: 99, Ok: true}, 3, 4},
	})
	if r := Check(m, ops); r.Ok {
		t.Fatal("dequeue of never-enqueued value accepted")
	}
}

func TestQueueModelRejectsStaleColor(t *testing.T) {
	m := QueueModel(rbq.Blue)
	// SetColor(Red) completes before the enqueue begins, yet the enqueue
	// claims it observed Blue.
	ops := mkOps([]opSpec{
		{0, QOp{Kind: QSetColor, C: rbq.Red}, QRes{C: rbq.Blue, Ok: true}, 1, 2},
		{0, QOp{Kind: QEnqueue, V: 1}, QRes{C: rbq.Blue, Ok: true}, 3, 4},
	})
	if r := Check(m, ops); r.Ok {
		t.Fatal("stale color observation accepted")
	}
}

// TestQueueModelStage: a stage on a blue queue kicks and turns it red,
// a second stage on the red queue does not kick, and the red stays until
// a recolor of the drained queue reports it.
func TestQueueModelStage(t *testing.T) {
	m := QueueModel(rbq.Blue)
	legal := mkOps([]opSpec{
		{0, QOp{Kind: QEnqueue, V: 1}, QRes{C: rbq.Blue, Ok: true}, 1, 2},
		{0, QOp{Kind: QStage, V: 2}, QRes{Kick: true, Ok: true}, 3, 4},
		{0, QOp{Kind: QStage, V: 3}, QRes{Ok: true}, 5, 6},
		{0, QOp{Kind: QDequeue}, QRes{V: 1, Ok: true}, 7, 8},
		{0, QOp{Kind: QDequeue}, QRes{V: 2, Ok: true}, 9, 10},
		{0, QOp{Kind: QDequeue}, QRes{V: 3, Ok: true}, 11, 12},
		{0, QOp{Kind: QDequeue}, QRes{Ok: false}, 13, 14},
		{0, QOp{Kind: QSetColor, C: rbq.Blue}, QRes{C: rbq.Red, Ok: true}, 15, 16},
		{0, QOp{Kind: QStage, V: 4}, QRes{Kick: true, Ok: true}, 17, 18},
	})
	if r := Check(m, legal); !r.Ok {
		t.Fatalf("legal stage history rejected: %s", r.Info)
	}
	// A drained staged queue that recolors from blue: the red Stage
	// wrote was lost. With no color on a dequeue, this recolor is the
	// one place that red can be seen.
	lostRed := mkOps([]opSpec{
		{0, QOp{Kind: QStage, V: 1}, QRes{Kick: true, Ok: true}, 1, 2},
		{0, QOp{Kind: QDequeue}, QRes{V: 1, Ok: true}, 3, 4},
		{0, QOp{Kind: QSetColor, C: rbq.Blue}, QRes{C: rbq.Blue, Ok: true}, 5, 6},
	})
	if r := Check(m, lostRed); r.Ok {
		t.Fatal("blue reported by the recolor of a drained staged queue accepted")
	}
	// A second stage that kicks: the queue was already red.
	twoKicks := mkOps([]opSpec{
		{0, QOp{Kind: QStage, V: 1}, QRes{Kick: true, Ok: true}, 1, 2},
		{0, QOp{Kind: QStage, V: 2}, QRes{Kick: true, Ok: true}, 3, 4},
	})
	if r := Check(m, twoKicks); r.Ok {
		t.Fatal("a second kick for one blue→red transition accepted")
	}
	// An enqueue after a stage that still observes blue.
	staleBlue := mkOps([]opSpec{
		{0, QOp{Kind: QStage, V: 1}, QRes{Kick: true, Ok: true}, 1, 2},
		{0, QOp{Kind: QEnqueue, V: 2}, QRes{C: rbq.Blue, Ok: true}, 3, 4},
	})
	if r := Check(m, staleBlue); r.Ok {
		t.Fatal("blue observed after a stage accepted")
	}
}

func TestQueueModelAcceptsConcurrentReorder(t *testing.T) {
	m := QueueModel(rbq.Blue)
	// Concurrent enqueues may linearize in either order; the dequeues
	// force 2-before-1, which is only legal because the enqueues overlap.
	ops := mkOps([]opSpec{
		{0, QOp{Kind: QEnqueue, V: 1}, QRes{C: rbq.Blue, Ok: true}, 1, 10},
		{1, QOp{Kind: QEnqueue, V: 2}, QRes{C: rbq.Blue, Ok: true}, 2, 9},
		{0, QOp{Kind: QDequeue}, QRes{V: 2, Ok: true}, 11, 12},
		{0, QOp{Kind: QDequeue}, QRes{V: 1, Ok: true}, 13, 14},
	})
	r := Check(m, ops)
	if !r.Ok {
		t.Fatalf("legal concurrent reorder rejected: %s", r.Info)
	}
	if len(r.Linearization) != len(ops) {
		t.Fatalf("witness has %d ops, want %d", len(r.Linearization), len(ops))
	}
}

func TestStackModel(t *testing.T) {
	m := StackModel([]uint32{1, 2, 3}) // 3 on top
	ok := mkOps([]opSpec{
		{0, SOp{}, SRes{Idx: 3, Ok: true}, 1, 2},
		{0, SOp{Push: true, Idx: 3}, nil, 3, 4},
		{0, SOp{}, SRes{Idx: 3, Ok: true}, 5, 6},
		{0, SOp{}, SRes{Idx: 2, Ok: true}, 7, 8},
	})
	if r := Check(m, ok); !r.Ok {
		t.Fatalf("legal stack history rejected: %s", r.Info)
	}
	wrongTop := mkOps([]opSpec{
		{0, SOp{}, SRes{Idx: 1, Ok: true}, 1, 2}, // 1 is the bottom
	})
	if r := Check(m, wrongTop); r.Ok {
		t.Fatal("non-LIFO pop accepted")
	}
	doubleFree := mkOps([]opSpec{
		{0, SOp{Push: true, Idx: 2}, nil, 1, 2}, // 2 is already on the stack
	})
	if r := Check(m, doubleFree); r.Ok {
		t.Fatal("double free accepted")
	}
}

func TestAreaModel(t *testing.T) {
	m := AreaModel(2)
	ok := mkOps([]opSpec{
		{0, AOp{Queue: AQFree}, ARes{Idx: 0, Ok: true}, 1, 2},
		{0, AOp{Queue: AQStaging, Enq: true, Idx: 0}, ARes{Ok: true}, 3, 4},
		{0, AOp{Queue: AQStaging}, ARes{Idx: 0, Ok: true}, 5, 6},
		{0, AOp{Queue: AQSubmission, Enq: true, Idx: 0}, ARes{Ok: true}, 7, 8},
		{0, AOp{Queue: AQSubmission}, ARes{Idx: 0, Ok: true}, 9, 10},
		{0, AOp{Queue: AQCompOK, Enq: true, Idx: 0}, ARes{Ok: true}, 11, 12},
		{0, AOp{Queue: AQCompOK}, ARes{Idx: 0, Ok: true}, 13, 14},
		{0, AOp{Queue: AQFree, Enq: true, Idx: 0}, ARes{Ok: true}, 15, 16},
	})
	if r := Check(m, ok); !r.Ok {
		t.Fatalf("legal protocol run rejected: %s", r.Info)
	}
	// Enqueueing an index the client does not hold (it is still on the
	// free list) violates ownership.
	stolen := mkOps([]opSpec{
		{0, AOp{Queue: AQStaging, Enq: true, Idx: 1}, ARes{Ok: true}, 1, 2},
	})
	if r := Check(m, stolen); r.Ok {
		t.Fatal("enqueue without ownership accepted")
	}
	// The same index surfacing from two queues means it was in two
	// places at once.
	twice := mkOps([]opSpec{
		{0, AOp{Queue: AQFree}, ARes{Idx: 0, Ok: true}, 1, 2},
		{0, AOp{Queue: AQStaging, Enq: true, Idx: 0}, ARes{Ok: true}, 3, 4},
		{0, AOp{Queue: AQStaging}, ARes{Idx: 0, Ok: true}, 5, 6},
		{0, AOp{Queue: AQStaging}, ARes{Idx: 0, Ok: true}, 7, 8},
	})
	if r := Check(m, twice); r.Ok {
		t.Fatal("index dequeued twice accepted")
	}
}

// buggyQueue is a deliberately broken bounded FIFO: head/tail updates
// are split across yield points with no atomicity, so the deterministic
// scheduler can interleave two enqueues into a lost update (both write
// the same slot; one value vanishes and a never-enqueued zero appears).
// The checker must reject the resulting histories.
type buggyQueue struct {
	buf        []uint32
	head, tail int
}

func (q *buggyQueue) enqueue(t *Thread, v uint32) {
	tail := q.tail
	t.Yield()
	q.buf[tail] = v
	t.Yield()
	q.tail = tail + 1
}

func (q *buggyQueue) dequeue(t *Thread) (uint32, bool) {
	if q.head == q.tail {
		return 0, false
	}
	head := q.head
	t.Yield()
	v := q.buf[head]
	t.Yield()
	q.head = head + 1
	return v, true
}

// runBuggy drives the broken queue under one seed and returns the
// checker error, nil if the history linearized.
func runBuggy(seed int64) error {
	q := &buggyQueue{buf: make([]uint32, 64)}
	hist := NewHistory(3)
	s := NewSched(seed)
	for p := 0; p < 2; p++ {
		p := p
		s.Go(func(t *Thread) {
			for i := 0; i < 3; i++ {
				v := uint32(100*(p+1) + i)
				hist.Record(p, QOp{Kind: QEnqueue, V: v}, func() any {
					q.enqueue(t, v)
					return QRes{C: rbq.Blue, Ok: true}
				})
			}
		})
	}
	s.Go(func(t *Thread) {
		for i := 0; i < 8; i++ {
			hist.Record(2, QOp{Kind: QDequeue}, func() any {
				v, ok := q.dequeue(t)
				return QRes{V: v, Ok: ok}
			})
			t.Yield()
		}
	})
	if err := s.Run(); err != nil {
		return err
	}
	if r := CheckHistory(QueueModel(rbq.Blue), hist); !r.Ok {
		return fmt.Errorf("not linearizable: %s", r.Info)
	}
	return nil
}

func TestCheckerRejectsBuggyQueue(t *testing.T) {
	// Some schedule in the corpus must expose the lost update...
	err := Explore(64, 1, runBuggy)
	if err == nil {
		t.Fatal("checker accepted every schedule of a deliberately-buggy queue")
	}
	if !strings.Contains(err.Error(), "seed") {
		t.Fatalf("failure does not name its seed: %v", err)
	}
	t.Logf("buggy queue rejected as expected: %v", err)
}

func TestBuggyQueueFailureReplaysBySeed(t *testing.T) {
	// Find the first failing seed, then replay it: the failure must
	// reproduce deterministically, with the identical schedule trace.
	var failing int64 = -1
	for seed := int64(1); seed <= 64; seed++ {
		if runBuggy(seed) != nil {
			failing = seed
			break
		}
	}
	if failing < 0 {
		t.Fatal("no failing seed in corpus")
	}
	err1 := runBuggy(failing)
	err2 := runBuggy(failing)
	if err1 == nil || err2 == nil {
		t.Fatalf("failing seed %d did not replay: first=%v second=%v", failing, err1, err2)
	}
	if err1.Error() != err2.Error() {
		t.Fatalf("replay diverged:\n  first:  %v\n  second: %v", err1, err2)
	}
}

func TestEmptyHistoryLinearizable(t *testing.T) {
	if r := Check(QueueModel(rbq.Blue), nil); !r.Ok {
		t.Fatal("empty history rejected")
	}
}
