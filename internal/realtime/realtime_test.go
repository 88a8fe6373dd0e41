package realtime

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"memif/internal/rbq"
)

func TestBasicCopy(t *testing.T) {
	d := Open(DefaultOptions())
	defer d.Close()

	src := bytes.Repeat([]byte{7}, 1<<16)
	dst := make([]byte, 1<<16)
	r := d.AllocRequest()
	if r == nil {
		t.Fatal("AllocRequest failed")
	}
	r.Src, r.Dst = src, dst
	if _, ok := r.Latency(); ok {
		t.Error("Latency reported valid before submission")
	}
	if err := d.Submit(r); err != nil {
		t.Fatal(err)
	}
	if !d.Poll(time.Second) {
		t.Fatal("Poll timed out")
	}
	got := d.RetrieveCompleted()
	if got != r {
		t.Fatalf("retrieved %v, want %v", got, r)
	}
	if got.Err != nil {
		t.Errorf("Err = %v", got.Err)
	}
	if !bytes.Equal(dst, src) {
		t.Error("copy corrupted data")
	}
	if lat, ok := got.Latency(); !ok || lat <= 0 {
		t.Errorf("latency = %v, %v", lat, ok)
	}
	d.FreeRequest(got)
}

func TestSizeMismatchRejected(t *testing.T) {
	d := Open(DefaultOptions())
	defer d.Close()
	r := d.AllocRequest()
	r.Src, r.Dst = make([]byte, 10), make([]byte, 20)
	if err := d.Submit(r); err == nil {
		t.Error("mismatched sizes accepted")
	}
}

// TestSubmitterOrderKept: the worker dispatches each submitter's
// same-class requests in the order that submitter staged them, however
// many submitters race. Four goroutines submit to one device, round
// after round, while the worker alternately sleeps and drains; the
// dispatch hook records the order, and each submitter's sequence
// numbers must rise.
func TestSubmitterOrderKept(t *testing.T) {
	const subs, per, rounds = 4, 32, 25
	var (
		d          *Device
		dispatched []uint64 // worker-written; read after the completions
	)
	d = Open(Options{NumReqs: subs * per, Chaos: &ChaosHooks{BeforeDispatch: func(idx uint32) {
		dispatched = append(dispatched, d.reqs[idx].Cookie)
	}}})
	defer d.Close()
	src := make([]byte, 256)
	for round := 0; round < rounds; round++ {
		var wg sync.WaitGroup
		for s := 0; s < subs; s++ {
			reqs := make([]*Request, per)
			for i := range reqs {
				reqs[i] = d.AllocRequest()
				reqs[i].Src, reqs[i].Dst = src, make([]byte, len(src))
				reqs[i].Cookie = uint64(s)<<32 | uint64(i)
			}
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i, r := range reqs {
					if i%8 == 7 {
						runtime.Gosched() // let the worker catch up and park
					}
					if err := d.Submit(r); err != nil {
						t.Error(err)
					}
				}
			}()
		}
		wg.Wait()
		for _, r := range drainAll(t, d, subs*per) {
			d.FreeRequest(r)
		}
	}
	next := make([]uint64, subs)
	for _, c := range dispatched {
		s, i := c>>32, c&(1<<32-1)
		if i != next[s] {
			t.Fatalf("submitter %d: request %d dispatched where %d was due", s, i, next[s])
		}
		next[s] = (i + 1) % per
	}
	if len(dispatched) != subs*per*rounds {
		t.Errorf("%d dispatches, want %d", len(dispatched), subs*per*rounds)
	}
}

// TestBurstSingleKick is the paper's headline property, counted rather
// than timed: a burst costs one kick-start, not one per request, whether
// one goroutine submits it or several. A primer request wakes the parked
// worker — that submit found the staging queue blue and must have
// kicked, once — and the worker is then held inside the primer's
// dispatch until every submit of the burst has returned, so it cannot
// recolor the queue mid-burst: every submit of the burst sees red and
// only enqueues.
func TestBurstSingleKick(t *testing.T) {
	for _, submitters := range []int{1, 4} {
		t.Run(fmt.Sprintf("submitters=%d", submitters), func(t *testing.T) {
			entered, stall := make(chan struct{}, 1), make(chan struct{})
			release := sync.OnceFunc(func() { close(stall) })
			o := DefaultOptions()
			o.Chaos = &ChaosHooks{BeforeDispatch: func(uint32) {
				select {
				case entered <- struct{}{}:
				default:
				}
				<-stall
			}}
			d := Open(o)
			defer d.Close()
			defer release()
			const n = 50
			src := make([]byte, 4096)
			submit := func(cookie uint64) {
				r := d.AllocRequest()
				r.Src, r.Dst = src, make([]byte, 4096)
				r.Cookie = cookie
				if err := d.Submit(r); err != nil {
					t.Error(err)
				}
			}
			submit(n) // the primer
			<-entered
			if k := d.Kicks(); k != 1 {
				t.Errorf("kicks = %d: the first submit to a parked worker must kick it, once", k)
			}
			var wg sync.WaitGroup
			for s := 0; s < submitters; s++ {
				wg.Add(1)
				go func(s int) {
					defer wg.Done()
					for i := s; i < n; i += submitters {
						submit(uint64(i))
					}
				}(s)
			}
			wg.Wait()
			if k := d.Kicks(); k != 1 {
				t.Errorf("kicks = %d for the primer and a %d-request burst from %d goroutines, want 1", k, n, submitters)
			}
			release()
			seen := make([]bool, n+1)
			for done := 0; done <= n; {
				if r := d.RetrieveCompleted(); r != nil {
					if seen[r.Cookie] {
						t.Fatalf("cookie %d completed twice", r.Cookie)
					}
					seen[r.Cookie] = true
					d.FreeRequest(r)
					done++
					continue
				}
				if !d.Poll(time.Second) {
					t.Fatal("Poll timed out")
				}
			}
		})
	}
}

func TestPollTimeout(t *testing.T) {
	d := Open(DefaultOptions())
	defer d.Close()
	start := time.Now()
	if d.Poll(20 * time.Millisecond) {
		t.Error("Poll reported ready on idle device")
	}
	if time.Since(start) < 15*time.Millisecond {
		t.Error("Poll returned early")
	}
}

func TestSubmitAfterClose(t *testing.T) {
	d := Open(DefaultOptions())
	r := d.AllocRequest()
	r.Src, r.Dst = make([]byte, 8), make([]byte, 8)
	d.Close()
	if err := d.Submit(r); err != ErrClosed {
		t.Errorf("Submit after Close = %v, want ErrClosed", err)
	}
	// Poll on a closed idle device returns promptly.
	done := make(chan bool, 1)
	go func() { done <- d.Poll(0) }()
	select {
	case <-done:
	case <-time.After(time.Second):
		t.Error("Poll hung on closed device")
	}
}

func TestCloseWaitsForOutstanding(t *testing.T) {
	d := Open(Options{NumReqs: 64, Controllers: 1})
	const n = 32
	dsts := make([][]byte, n)
	src := bytes.Repeat([]byte{0xCC}, 1<<20)
	for i := 0; i < n; i++ {
		dsts[i] = make([]byte, 1<<20)
		r := d.AllocRequest()
		r.Src, r.Dst = src, dsts[i]
		if err := d.Submit(r); err != nil {
			t.Fatal(err)
		}
	}
	d.Close()
	if got := d.Completed(); got != n {
		t.Fatalf("Close returned with %d of %d complete", got, n)
	}
	for i, dst := range dsts {
		if dst[0] != 0xCC || dst[len(dst)-1] != 0xCC {
			t.Fatalf("dst %d incomplete", i)
		}
	}
}

func TestDoubleCloseSafe(t *testing.T) {
	d := Open(DefaultOptions())
	d.Close()
	d.Close()
}

func TestAllocExhaustion(t *testing.T) {
	d := Open(Options{NumReqs: 4, Controllers: 1})
	defer d.Close()
	var rs []*Request
	for i := 0; i < 4; i++ {
		r := d.AllocRequest()
		if r == nil {
			t.Fatalf("alloc %d failed", i)
		}
		rs = append(rs, r)
	}
	if d.AllocRequest() != nil {
		t.Error("alloc beyond capacity succeeded")
	}
	d.FreeRequest(rs[0])
	if d.AllocRequest() == nil {
		t.Error("alloc after free failed")
	}
}

// drainOne blocks until one completion is retrieved.
func drainOne(t *testing.T, d *Device) *Request {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		if r := d.RetrieveCompleted(); r != nil {
			return r
		}
		if time.Now().After(deadline) {
			t.Fatal("no completion within 5s")
		}
		d.Poll(100 * time.Millisecond)
	}
}

func TestChunkedCopyCorrectness(t *testing.T) {
	d := Open(Options{NumReqs: 16, Controllers: 4, ChunkBytes: 4096})
	defer d.Close()
	// An odd size forces a short tail chunk.
	size := 1<<20 + 12345
	src := make([]byte, size)
	rand.New(rand.NewSource(42)).Read(src)
	dst := make([]byte, size)
	r := d.AllocRequest()
	r.Src, r.Dst = src, dst
	if err := d.Submit(r); err != nil {
		t.Fatal(err)
	}
	got := drainOne(t, d)
	if got.Err != nil {
		t.Fatalf("Err = %v", got.Err)
	}
	if !bytes.Equal(dst, src) {
		t.Fatal("chunked copy corrupted data")
	}
	st := d.Stats()
	wantChunks := int64((size + 4095) / 4096)
	if st.Chunks != wantChunks {
		t.Errorf("Chunks = %d, want %d", st.Chunks, wantChunks)
	}
	if st.BytesMoved != int64(size) {
		t.Errorf("BytesMoved = %d, want %d", st.BytesMoved, size)
	}
	d.FreeRequest(got)
}

func TestChunkingDisabled(t *testing.T) {
	d := Open(Options{NumReqs: 8, Controllers: 2, ChunkBytes: -1})
	defer d.Close()
	r := d.AllocRequest()
	r.Src, r.Dst = make([]byte, 4<<20), make([]byte, 4<<20)
	if err := d.Submit(r); err != nil {
		t.Fatal(err)
	}
	d.FreeRequest(drainOne(t, d))
	if st := d.Stats(); st.Chunks != 1 {
		t.Errorf("Chunks = %d with chunking disabled, want 1", st.Chunks)
	}
}

func TestCancelBeforeDispatch(t *testing.T) {
	// One controller, pinned down by a large copy, so the canceled
	// request is still queued when the cancel lands.
	d := Open(Options{NumReqs: 8, Controllers: 1, ChunkBytes: -1})
	defer d.Close()

	big := d.AllocRequest()
	big.Src, big.Dst = make([]byte, 32<<20), make([]byte, 32<<20)
	if err := d.Submit(big); err != nil {
		t.Fatal(err)
	}

	victim := d.AllocRequest()
	victim.Src = bytes.Repeat([]byte{0xAB}, 1<<16)
	victim.Dst = make([]byte, 1<<16)
	if err := d.Submit(victim); err != nil {
		t.Fatal(err)
	}
	canceled := d.Cancel(victim)

	var sawVictim bool
	for i := 0; i < 2; i++ {
		r := drainOne(t, d)
		if r == victim {
			sawVictim = true
			if canceled {
				if !errors.Is(r.Err, ErrCanceled) {
					t.Errorf("canceled request Err = %v, want ErrCanceled", r.Err)
				}
				if r.Dst[0] != 0 {
					t.Error("canceled-before-dispatch request copied bytes")
				}
			} else if r.Err != nil {
				t.Errorf("uncanceled request Err = %v", r.Err)
			}
		}
		d.FreeRequest(r)
	}
	if !sawVictim {
		t.Fatal("victim never completed")
	}
	if canceled {
		if st := d.Stats(); st.Canceled != 1 {
			t.Errorf("Stats.Canceled = %d, want 1", st.Canceled)
		}
	}
	// Cancel after completion must lose.
	if d.Cancel(victim) {
		t.Error("Cancel succeeded on a completed request")
	}
}

func TestDeadlineExpired(t *testing.T) {
	d := Open(Options{NumReqs: 8, Controllers: 2})
	defer d.Close()
	r := d.AllocRequest()
	r.Src = bytes.Repeat([]byte{1}, 4096)
	r.Dst = make([]byte, 4096)
	r.Deadline = time.Now().Add(-time.Millisecond) // already past
	if err := d.Submit(r); err != nil {
		t.Fatal(err)
	}
	got := drainOne(t, d)
	if !errors.Is(got.Err, ErrDeadline) {
		t.Fatalf("Err = %v, want ErrDeadline", got.Err)
	}
	if got.Dst[0] != 0 {
		t.Error("expired request copied bytes")
	}
	if st := d.Stats(); st.Expired != 1 {
		t.Errorf("Stats.Expired = %d, want 1", st.Expired)
	}
	d.FreeRequest(got)
}

func TestCloseDrain(t *testing.T) {
	d := Open(Options{NumReqs: 32, Controllers: 2})
	const n = 16
	src := bytes.Repeat([]byte{0xEE}, 1<<20)
	for i := 0; i < n; i++ {
		r := d.AllocRequest()
		r.Src, r.Dst = src, make([]byte, 1<<20)
		if err := d.Submit(r); err != nil {
			t.Fatal(err)
		}
	}
	if !d.CloseDrain(5 * time.Second) {
		t.Error("CloseDrain did not drain in time")
	}
	if got := d.Completed(); got != n {
		t.Errorf("Completed = %d, want %d", got, n)
	}
	r := &Request{Src: make([]byte, 8), Dst: make([]byte, 8)}
	if err := d.Submit(r); err != ErrClosed {
		t.Errorf("Submit after CloseDrain = %v, want ErrClosed", err)
	}
}

// TestMultiPollerNoLostWakeup pins the intended Poll semantics: with N
// completions pending, N pollers must all return promptly — the single
// buffered notify token must be re-armed, not swallowed.
func TestMultiPollerNoLostWakeup(t *testing.T) {
	for round := 0; round < 20; round++ {
		d := Open(Options{NumReqs: 8, Controllers: 2})
		var wg sync.WaitGroup
		for i := 0; i < 2; i++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for {
					if r := d.RetrieveCompleted(); r != nil {
						d.FreeRequest(r)
						return
					}
					if !d.Poll(10 * time.Second) {
						t.Error("Poll timed out with completions pending")
						return
					}
				}
			}()
		}
		time.Sleep(time.Millisecond) // let both pollers go to sleep
		src := make([]byte, 64)
		for i := 0; i < 2; i++ {
			r := d.AllocRequest()
			r.Src, r.Dst = src, make([]byte, 64)
			if err := d.Submit(r); err != nil {
				t.Fatal(err)
			}
		}
		donec := make(chan struct{})
		go func() { wg.Wait(); close(donec) }()
		select {
		case <-donec:
		case <-time.After(3 * time.Second):
			t.Fatal("a poller hung past a retrievable completion")
		}
		d.Close()
	}
}

// TestSlabExhaustionNoLeak is the regression test for the silent
// request drop: under artificial slab starvation (a parasite queue
// holding most of the slack nodes), every accepted submission must
// still complete — possibly with ErrNoSlots — and every slot must
// remain allocatable afterwards. A device that dropped an index on a
// failed enqueue would leak slots forever.
func TestSlabExhaustionNoLeak(t *testing.T) {
	d := Open(Options{NumReqs: 8, Controllers: 2})
	defer d.Close()

	// The slab is NewSlab(8 + 1 + 6): 8 live indices, staging's dummy
	// (the free list and completions are rings off the slab) and 6
	// slack nodes. A parasite queue takes one more as its dummy and
	// pins all but 2 of the rest — enough that the device works, tight
	// enough that transient exhaustion is constant under concurrency.
	const spare = 2
	parasite := d.slab.NewQueue(rbq.Blue)
	for i, pin := 0, d.slab.FreeNodes()-spare; i < pin; i++ {
		if _, ok := parasite.Enqueue(0); !ok {
			t.Fatalf("parasite enqueue %d failed at setup", i)
		}
	}

	const (
		submitters = 4
		perSub     = 200
	)
	var accepted, completed atomic.Int64
	stop := make(chan struct{})
	var rwg sync.WaitGroup
	rwg.Add(1)
	go func() {
		defer rwg.Done()
		for {
			if r := d.RetrieveCompleted(); r != nil {
				completed.Add(1)
				d.FreeRequest(r)
				continue
			}
			select {
			case <-stop:
				for {
					r := d.RetrieveCompleted()
					if r == nil {
						return
					}
					completed.Add(1)
					d.FreeRequest(r)
				}
			default:
				d.Poll(time.Millisecond)
			}
		}
	}()

	var wg sync.WaitGroup
	src := make([]byte, 64)
	for s := 0; s < submitters; s++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perSub; i++ {
				var r *Request
				for r == nil {
					r = d.AllocRequest()
					if r == nil {
						time.Sleep(time.Microsecond)
					}
				}
				r.Src, r.Dst = src, make([]byte, 64)
				for {
					err := d.Submit(r)
					if err == nil {
						accepted.Add(1)
						break
					}
					if !errors.Is(err, ErrNoSlots) {
						t.Errorf("submit: %v", err)
						return
					}
					time.Sleep(time.Microsecond)
				}
			}
		}()
	}
	wg.Wait()

	deadline := time.Now().Add(10 * time.Second)
	for d.Completed() < accepted.Load() {
		if time.Now().After(deadline) {
			t.Fatalf("completed %d of %d accepted submissions — indices were dropped",
				d.Completed(), accepted.Load())
		}
		time.Sleep(time.Millisecond)
	}
	close(stop)
	rwg.Wait()
	if completed.Load() != accepted.Load() {
		t.Errorf("retrieved %d completions for %d accepted submissions",
			completed.Load(), accepted.Load())
	}

	// No slot may have leaked: all NumReqs must be allocatable.
	var rs []*Request
	for i := 0; i < 8; i++ {
		r := d.AllocRequest()
		if r == nil {
			t.Fatalf("slot leak: only %d of 8 slots allocatable after drain", i)
		}
		rs = append(rs, r)
	}
	for _, r := range rs {
		d.FreeRequest(r)
	}
}

// TestAuditSlotsFreeRing pins where the audit reads the free list from:
// the free ring's own snapshot. A slot freed while the caller still
// lists it as held is in two places, and a slot neither free nor held
// has vanished.
func TestAuditSlotsFreeRing(t *testing.T) {
	d := Open(Options{NumReqs: 4, Controllers: 1})
	defer d.Close()
	r := d.AllocRequest()
	if err := d.AuditSlots([]uint32{r.idx}); err != nil {
		t.Fatalf("one slot held, three free: %v", err)
	}
	want := fmt.Sprintf("index %d vanished", r.idx)
	if err := d.AuditSlots(nil); err == nil || !strings.Contains(err.Error(), want) {
		t.Fatalf("held slot left unlisted: err = %v, want %q", err, want)
	}
	d.FreeRequest(r)
	want = fmt.Sprintf("index %d in two places: free and user-held", r.idx)
	if err := d.AuditSlots([]uint32{r.idx}); err == nil || !strings.Contains(err.Error(), want) {
		t.Fatalf("freed slot listed as held: err = %v, want %q", err, want)
	}
	if err := d.AuditSlots(nil); err != nil {
		t.Fatalf("every slot free: %v", err)
	}
}

func TestSubmitBatchBasic(t *testing.T) {
	d := Open(Options{NumReqs: 64, Controllers: 2})
	defer d.Close()
	const n = 32
	reqs := make([]*Request, n)
	srcs := make([][]byte, n)
	for i := range reqs {
		r := d.AllocRequest()
		if r == nil {
			t.Fatalf("alloc %d failed", i)
		}
		srcs[i] = bytes.Repeat([]byte{byte(i + 1)}, 2048)
		r.Src, r.Dst = srcs[i], make([]byte, 2048)
		r.Cookie = uint64(i)
		reqs[i] = r
	}
	if err := d.SubmitBatch(reqs); err != nil {
		t.Fatal(err)
	}
	got := drainAllReqs(t, d, n)
	for _, r := range got {
		if r.Err != nil {
			t.Errorf("request %d: err = %v", r.Cookie, r.Err)
		}
		if !bytes.Equal(r.Src, r.Dst) {
			t.Errorf("request %d: corrupt copy", r.Cookie)
		}
		d.FreeRequest(r)
	}
	st := d.Stats()
	if st.Batches != 1 {
		t.Errorf("Batches = %d, want 1", st.Batches)
	}
	// One quiet-device batch = one color observation = exactly one kick.
	if st.Kicks != 1 {
		t.Errorf("Kicks = %d for one batch on an idle device, want 1", st.Kicks)
	}
	if err := d.AuditSlots(nil); err != nil {
		t.Error(err)
	}
}

// drainAllReqs retrieves count completions via the batch retrieval API.
func drainAllReqs(t *testing.T, d *Device, count int) []*Request {
	t.Helper()
	var got []*Request
	buf := make([]*Request, 16)
	deadline := time.Now().Add(5 * time.Second)
	for len(got) < count {
		if n := d.RetrieveCompletedBatch(buf); n > 0 {
			got = append(got, buf[:n]...)
			continue
		}
		if time.Now().After(deadline) {
			t.Fatalf("drained %d/%d completions before timeout", len(got), count)
		}
		d.Poll(10 * time.Millisecond)
	}
	return got
}

func TestSubmitBatchValidation(t *testing.T) {
	d := Open(Options{NumReqs: 8})
	defer d.Close()
	good := d.AllocRequest()
	good.Src, good.Dst = make([]byte, 8), make([]byte, 8)
	bad := d.AllocRequest()
	bad.Src, bad.Dst = make([]byte, 8), make([]byte, 4)
	err := d.SubmitBatch([]*Request{good, bad})
	if !errors.Is(err, ErrBadSizes) {
		t.Fatalf("err = %v, want ErrBadSizes", err)
	}
	// Nothing was submitted: no completion may ever arrive.
	if st := d.Stats(); st.Submitted != 0 {
		t.Errorf("Submitted = %d after rejected batch, want 0", st.Submitted)
	}
	if d.SubmitBatch(nil) != nil {
		t.Error("empty batch returned an error")
	}
}

func TestSubmitBatchAfterClose(t *testing.T) {
	d := Open(DefaultOptions())
	r := d.AllocRequest()
	r.Src, r.Dst = make([]byte, 8), make([]byte, 8)
	d.Close()
	if err := d.SubmitBatch([]*Request{r}); !errors.Is(err, ErrClosed) {
		t.Errorf("SubmitBatch after Close = %v, want ErrClosed", err)
	}
}

func TestRetrieveCompletedBatchPartial(t *testing.T) {
	d := Open(Options{NumReqs: 16})
	defer d.Close()
	const n = 5
	src := make([]byte, 64)
	for i := 0; i < n; i++ {
		r := d.AllocRequest()
		r.Src, r.Dst = src, make([]byte, 64)
		if err := d.Submit(r); err != nil {
			t.Fatal(err)
		}
	}
	deadline := time.Now().Add(5 * time.Second)
	for d.Completed() < n {
		if time.Now().After(deadline) {
			t.Fatal("pipeline did not drain")
		}
		d.Poll(10 * time.Millisecond)
	}
	if got := d.Stats().CompletionDepth; got != n {
		t.Errorf("CompletionDepth = %d with %d completions pending", got, n)
	}
	// A buffer smaller than the backlog fills completely...
	buf := make([]*Request, 3)
	if got := d.RetrieveCompletedBatch(buf); got != 3 {
		t.Fatalf("first batch retrieve = %d, want 3", got)
	}
	for _, r := range buf {
		d.FreeRequest(r)
	}
	// ...and the rest comes on the next call, after which the queue is dry.
	if got := d.RetrieveCompletedBatch(buf); got != 2 {
		t.Fatalf("second batch retrieve = %d, want 2", got)
	}
	d.FreeRequest(buf[0])
	d.FreeRequest(buf[1])
	if got := d.RetrieveCompletedBatch(buf); got != 0 {
		t.Fatalf("empty batch retrieve = %d, want 0", got)
	}
	if err := d.AuditSlots(nil); err != nil {
		t.Error(err)
	}
}

// TestConcurrentSubmitters runs the concurrent-submitter workout,
// one Submit at a time and SubmitBatch of 8.
func TestConcurrentSubmitters(t *testing.T) {
	for _, batch := range []int{1, 8} {
		t.Run(fmt.Sprintf("batch=%d", batch), func(t *testing.T) {
			runConcurrentSubmitters(t, batch)
		})
	}
}

// TestStagingShardsConcurrent runs the concurrent-submitter workout at
// GOMAXPROCS 1, 2 and 4, batched and unbatched. shards=N is the number
// of staging queues a device once opened at GOMAXPROCS=N; it now opens
// one at every N, and the workout must read the same at each. N=1 also
// sends Poll straight to its timed park instead of spinning.
func TestStagingShardsConcurrent(t *testing.T) {
	for _, procs := range []int{1, 2, 4} {
		for _, batch := range []int{1, 8} {
			t.Run(fmt.Sprintf("shards=%d/batch=%d", procs, batch), func(t *testing.T) {
				defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
				runConcurrentSubmitters(t, batch)
			})
		}
	}
}

// runConcurrentSubmitters runs 4 submitter goroutines through the one
// staging queue — Submit when batch is 1, else SubmitBatch of batch —
// against a concurrent batch retriever, asserting every payload lands
// intact, every byte is counted and every slot is accounted for.
func runConcurrentSubmitters(t *testing.T, batch int) {
	t.Helper()
	d := Open(Options{NumReqs: 256, Controllers: 2})
	defer d.Close()
	const (
		submitters = 4
		perSub     = 200
		size       = 512
	)
	var wg sync.WaitGroup
	var retrieved, corrupt atomic.Int64
	stop := make(chan struct{})
	var rwg sync.WaitGroup
	rwg.Add(1)
	go func() {
		defer rwg.Done()
		buf := make([]*Request, 32)
		for {
			n := d.RetrieveCompletedBatch(buf)
			for i := 0; i < n; i++ {
				r := buf[i]
				if r.Err != nil || len(r.Dst) == 0 || r.Dst[0] != byte(r.Cookie) {
					corrupt.Add(1)
				}
				d.FreeRequest(r)
				retrieved.Add(1)
			}
			if n > 0 {
				continue
			}
			select {
			case <-stop:
				if d.RetrieveCompletedBatch(buf) == 0 {
					return
				}
			default:
				d.Poll(time.Millisecond)
			}
		}
	}()
	for s := 0; s < submitters; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			pending := make([]*Request, 0, batch)
			for i := 0; i < perSub; i++ {
				cookie := uint64(s*perSub+i) % 251
				var r *Request
				for r == nil {
					if r = d.AllocRequest(); r == nil {
						time.Sleep(time.Microsecond)
					}
				}
				r.Src = bytes.Repeat([]byte{byte(cookie)}, size)
				r.Dst = make([]byte, size)
				r.Cookie = cookie
				if batch == 1 {
					if err := d.Submit(r); err != nil {
						t.Errorf("Submit: %v", err)
						return
					}
					continue
				}
				pending = append(pending, r)
				if len(pending) == batch || i == perSub-1 {
					if err := d.SubmitBatch(pending); err != nil {
						t.Errorf("SubmitBatch: %v", err)
						return
					}
					pending = pending[:0]
				}
			}
		}(s)
	}
	wg.Wait()
	deadline := time.After(5 * time.Second)
	for d.Completed() < submitters*perSub {
		select {
		case <-deadline:
			t.Fatalf("only %d of %d completed", d.Completed(), submitters*perSub)
		case <-time.After(time.Millisecond):
		}
	}
	close(stop)
	rwg.Wait()
	if got := retrieved.Load(); got != submitters*perSub {
		t.Errorf("retrieved %d, want %d", got, submitters*perSub)
	}
	if corrupt.Load() != 0 {
		t.Errorf("%d corrupted copies", corrupt.Load())
	}
	if got := d.Stats().BytesMoved; got != submitters*perSub*size {
		t.Errorf("BytesMoved = %d, want %d", got, submitters*perSub*size)
	}
	if err := d.AuditSlots(nil); err != nil {
		t.Error(err)
	}
}

// TestStalledControllerStrandsNothing pins the point of the shared
// chunk ring: with one controller frozen mid-chunk, every other request
// must still complete — popped by the other controller — because no
// chunk waits on a ring only the frozen controller reads.
func TestStalledControllerStrandsNothing(t *testing.T) {
	stall := make(chan struct{})
	var once sync.Once
	defer once.Do(func() { close(stall) })
	var stalled atomic.Bool
	opts := Options{
		NumReqs:     32,
		Controllers: 2,
		ChunkBytes:  -1,
		Chaos: &ChaosHooks{
			BeforeChunkCopy: func(idx uint32, off, end int) {
				// Freeze exactly one controller: the first to take a chunk.
				if stalled.CompareAndSwap(false, true) {
					<-stall
				}
			},
		},
	}
	d := Open(opts)
	// Inline completion would have the worker copy these small
	// requests itself; this test is about the ring path.
	d.inline.Store(0)
	defer d.Close()

	const n = 16
	src := bytes.Repeat([]byte{0x5A}, 4096)
	reqs := make([]*Request, n)
	for i := range reqs {
		r := d.AllocRequest()
		r.Src, r.Dst = src, make([]byte, 4096)
		if err := d.Submit(r); err != nil {
			t.Fatal(err)
		}
		reqs[i] = r
	}
	// All but the frozen one must complete while the stall holds.
	deadline := time.Now().Add(5 * time.Second)
	for d.Completed() < n-1 {
		if time.Now().After(deadline) {
			t.Fatalf("only %d of %d completed with one controller stalled — chunks stranded",
				d.Completed(), n-1)
		}
		time.Sleep(time.Millisecond)
	}
	if st := d.Stats(); st.Steals != 0 {
		t.Errorf("Steals = %d, want 0: the controllers share one ring", st.Steals)
	}
	once.Do(func() { close(stall) })
	for _, r := range drainAllReqs(t, d, n) {
		if r.Err != nil || !bytes.Equal(r.Src, r.Dst) {
			t.Errorf("request %d: err=%v corrupt=%v", r.idx, r.Err, !bytes.Equal(r.Src, r.Dst))
		}
		d.FreeRequest(r)
	}
	if err := d.AuditSlots(nil); err != nil {
		t.Error(err)
	}
}

// TestStatsSnapshotAndTrace checks the counters and histograms of a
// small run and that every request's lifecycle — the trace memif-trace
// -rt prints — was captured with a full stamp vector.
func TestStatsSnapshotAndTrace(t *testing.T) {
	d := Open(Options{NumReqs: 16, Controllers: 2, ChunkBytes: 4096, TraceFullCapture: true})
	const n = 10
	src := bytes.Repeat([]byte{3}, 16384)
	for i := 0; i < n; i++ {
		r := d.AllocRequest()
		r.Src, r.Dst = src, make([]byte, 16384)
		if err := d.Submit(r); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < n; i++ {
		d.FreeRequest(drainOne(t, d))
	}
	st := d.Stats()
	if st.Submitted != n || st.Completed != n {
		t.Errorf("Submitted/Completed = %d/%d, want %d/%d", st.Submitted, st.Completed, n, n)
	}
	if st.BytesMoved != n*16384 {
		t.Errorf("BytesMoved = %d", st.BytesMoved)
	}
	if st.Chunks != n*4 {
		t.Errorf("Chunks = %d, want %d", st.Chunks, n*4)
	}
	if st.Latency.Count != n {
		t.Errorf("Latency.Count = %d, want %d", st.Latency.Count, n)
	}
	if st.Sizes.Count != n || st.Sizes.Sum != n*16384 {
		t.Errorf("Sizes = n%d sum%d", st.Sizes.Count, st.Sizes.Sum)
	}
	if len(st.Lifecycle.Captured) != n {
		t.Errorf("captured %d lifecycles, want %d", len(st.Lifecycle.Captured), n)
	}
	for _, lc := range st.Lifecycle.Captured {
		checkFullVector(t, lc)
	}
	d.Close()
}
