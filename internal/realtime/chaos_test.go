package realtime

// Chaos-driven coverage: fault injection through Options.Chaos forces
// the failure windows real load only samples — stalled controllers
// under a cancel storm, persistent slab exhaustion at the flush,
// shutdown with chunked requests in flight, and close/cancel races
// inside the submission protocol. After every storm the suite asserts
// the two invariants the device promises: no index ever vanishes
// (AuditSlots) and completion fires exactly once (DoubleCompletes == 0).
//
// These tests are the CI smoke corpus (`go test -run Chaos -count=20`):
// each run takes milliseconds and every scheduling decision the test
// itself makes is forced through hooks, so repeated runs explore fresh
// runtime interleavings cheaply.

import (
	"bytes"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"memif/internal/obs/lifecycle"
	"memif/internal/rbq"
)

// submitParked submits r once the worker is parked: the staging queue
// is blue — recolored by the worker's last Park, or never red since Open
// — and the worker sleeps without a kick pending, because only a
// blue→red flush kicks and it wakes once per kick before it parks again.
// So this submit's own flush, not the worker's drain, takes r off
// staging: the only staging→submission move, and the only path where
// the slab can run out.
func submitParked(t *testing.T, d *Device, r *Request) {
	t.Helper()
	awaitCond(t, "worker parked", func() bool { return d.staging.Color() == rbq.Blue })
	if err := d.Submit(r); err != nil {
		t.Fatalf("submit: %v", err)
	}
}

// drainAll retrieves every pending completion, polling until count
// completions arrived or the deadline passes.
func drainAll(t *testing.T, d *Device, count int) []*Request {
	t.Helper()
	var got []*Request
	deadline := time.Now().Add(5 * time.Second)
	for len(got) < count {
		if r := d.RetrieveCompleted(); r != nil {
			got = append(got, r)
			continue
		}
		if time.Now().After(deadline) {
			st := d.Stats()
			t.Fatalf("drained %d/%d completions before timeout; stats=%+v", len(got), count, st)
		}
		d.Poll(10 * time.Millisecond)
	}
	return got
}

// TestChaosCancelVsCompleteStalledControllers stalls every transfer
// controller on its first chunk, lands a cancel storm while the copies
// are frozen, then releases the stall: every request must complete
// exactly once, with either a clean result or ErrCanceled, and every
// slot must return to the free list.
func TestChaosCancelVsCompleteStalledControllers(t *testing.T) {
	stall := make(chan struct{})
	var once sync.Once
	opts := Options{
		NumReqs:     32,
		Controllers: 2,
		ChunkBytes:  1 << 10,
		Chaos: &ChaosHooks{
			BeforeChunkCopy: func(idx uint32, off, end int) { <-stall },
		},
	}
	d := Open(opts)
	defer d.Close()
	defer once.Do(func() { close(stall) })

	const n = 8
	reqs := make([]*Request, 0, n)
	for i := 0; i < n; i++ {
		r := d.AllocRequest()
		if r == nil {
			t.Fatal("alloc failed")
		}
		src := bytes.Repeat([]byte{byte(i + 1)}, 4<<10) // 4 chunks each
		r.Src, r.Dst = src, make([]byte, len(src))
		if err := d.Submit(r); err != nil {
			t.Fatalf("submit %d: %v", i, err)
		}
		reqs = append(reqs, r)
	}
	// Cancel storm while the controllers are frozen mid-pipeline: some
	// requests are stalled in chunks, some still queued.
	canceled := map[*Request]bool{}
	for i, r := range reqs {
		if i%2 == 0 {
			canceled[r] = d.Cancel(r)
		}
	}
	once.Do(func() { close(stall) })

	got := drainAll(t, d, n)
	seen := map[*Request]int{}
	for _, r := range got {
		seen[r]++
	}
	for i, r := range reqs {
		if seen[r] != 1 {
			t.Errorf("request %d completed %d times, want exactly once", i, seen[r])
		}
		switch {
		case r.Err == nil:
			if canceled[r] {
				t.Errorf("request %d: cancel won but completed clean", i)
			}
			if !bytes.Equal(r.Src, r.Dst) {
				t.Errorf("request %d: clean completion with corrupt payload", i)
			}
		case errors.Is(r.Err, ErrCanceled):
			if !canceled[r] {
				t.Errorf("request %d: ErrCanceled without a winning cancel", i)
			}
		default:
			t.Errorf("request %d: unexpected error %v", i, r.Err)
		}
	}
	var held []uint32
	for _, r := range got {
		held = append(held, r.idx)
	}
	if err := d.AuditSlots(held); err != nil {
		t.Error(err)
	}
	for _, r := range got {
		d.FreeRequest(r)
	}
	if err := d.AuditSlots(nil); err != nil {
		t.Error(err)
	}
	if st := d.Stats(); st.DoubleCompletes != 0 {
		t.Errorf("DoubleCompletes = %d, want 0", st.DoubleCompletes)
	}
}

// TestChaosChunkRingFullBackpressure fills the chunk ring behind a held
// controller until the worker backs off: one controller sits on its
// first chunk while the worker pushes the rest, and the ring's
// DefaultRingDepth slots run out before 100 chunks do. Once the worker
// has counted a retry the controller is released; every request must
// then complete exactly once and byte-exact, and no slot may vanish.
func TestChaosChunkRingFullBackpressure(t *testing.T) {
	release := make(chan struct{})
	var once sync.Once
	d := Open(Options{
		NumReqs:     128,
		Controllers: 1,
		ChunkBytes:  -1,
		Chaos: &ChaosHooks{
			BeforeChunkCopy: func(idx uint32, off, end int) { <-release },
		},
	})
	d.inline.Store(0)
	defer d.Close()
	defer once.Do(func() { close(release) })

	const n = 100
	for i := 0; i < n; i++ {
		r := d.AllocRequest()
		r.Src, r.Dst = bytes.Repeat([]byte{byte(i + 1)}, 4<<10), make([]byte, 4<<10)
		if err := d.Submit(r); err != nil {
			t.Fatalf("submit %d: %v", i, err)
		}
	}
	deadline := time.Now().Add(5 * time.Second)
	for d.Stats().DispatchRetries == 0 {
		if time.Now().After(deadline) {
			t.Fatalf("no dispatch retry with the controller held and %d chunks in the ring", d.Stats().RingDepth)
		}
		time.Sleep(time.Millisecond)
	}
	once.Do(func() { close(release) })

	got := drainAll(t, d, n)
	for _, r := range got {
		if r.Err != nil || !bytes.Equal(r.Src, r.Dst) {
			t.Errorf("slot %d: err=%v corrupt=%v", r.idx, r.Err, !bytes.Equal(r.Src, r.Dst))
		}
		d.FreeRequest(r)
	}
	if st := d.Stats(); st.Chunks != n || st.DoubleCompletes != 0 {
		t.Errorf("Chunks/DoubleCompletes = %d/%d, want %d/0", st.Chunks, st.DoubleCompletes, n)
	}
	if err := d.AuditSlots(nil); err != nil {
		t.Error(err)
	}
}

// TestChaosForcedExhaustionErrNoSlots makes every staging→submission
// flush attempt fail and submits each request to a parked worker, so
// its own flush takes it down the ErrNoSlots completion path; the slots
// must come back through the completion queue, and the device must
// recover fully once the fault clears.
func TestChaosForcedExhaustionErrNoSlots(t *testing.T) {
	var failing atomic.Bool
	failing.Store(true)
	opts := Options{
		NumReqs: 16,
		Chaos: &ChaosHooks{
			FlushEnqueue: func(idx uint32) bool { return failing.Load() },
		},
	}
	d := Open(opts)
	defer d.Close()

	const n = 4
	for i := 0; i < n; i++ {
		r := d.AllocRequest()
		r.Src, r.Dst = []byte{1, 2, 3}, make([]byte, 3)
		submitParked(t, d, r)
	}
	got := drainAll(t, d, n)
	for i, r := range got {
		if !errors.Is(r.Err, ErrNoSlots) {
			t.Errorf("request %d: err = %v, want ErrNoSlots", i, r.Err)
		}
		d.FreeRequest(r)
	}
	if err := d.AuditSlots(nil); err != nil {
		t.Error(err)
	}

	// Fault cleared: the same slots must serve clean copies again.
	failing.Store(false)
	r := d.AllocRequest()
	r.Src, r.Dst = []byte{9, 8, 7}, make([]byte, 3)
	if err := d.Submit(r); err != nil {
		t.Fatalf("post-recovery submit: %v", err)
	}
	rr := drainAll(t, d, 1)[0]
	if rr.Err != nil || !bytes.Equal(rr.Src, rr.Dst) {
		t.Fatalf("post-recovery completion: err=%v dst=%v", rr.Err, rr.Dst)
	}
	d.FreeRequest(rr)
	if st := d.Stats(); st.DoubleCompletes != 0 {
		t.Errorf("DoubleCompletes = %d, want 0", st.DoubleCompletes)
	}
}

// TestChaosCloseDrainInFlightChunked slows every chunk copy and then
// CloseDrains with chunked requests mid-pipeline: the drain must wait
// for all of them, and nothing may vanish across the shutdown.
func TestChaosCloseDrainInFlightChunked(t *testing.T) {
	opts := Options{
		NumReqs:     16,
		Controllers: 2,
		ChunkBytes:  1 << 10,
		Chaos: &ChaosHooks{
			BeforeChunkCopy: func(idx uint32, off, end int) { time.Sleep(100 * time.Microsecond) },
		},
	}
	d := Open(opts)

	const n = 6
	var reqs []*Request
	for i := 0; i < n; i++ {
		r := d.AllocRequest()
		src := bytes.Repeat([]byte{byte(i + 1)}, 8<<10) // 8 chunks each
		r.Src, r.Dst = src, make([]byte, len(src))
		if err := d.Submit(r); err != nil {
			t.Fatalf("submit: %v", err)
		}
		reqs = append(reqs, r)
	}
	if !d.CloseDrain(5 * time.Second) {
		t.Fatal("CloseDrain timed out with in-flight chunked requests")
	}
	got := drainAll(t, d, n)
	var held []uint32
	for _, r := range got {
		if r.Err != nil {
			t.Errorf("request %d failed across drain: %v", r.idx, r.Err)
		} else if !bytes.Equal(r.Src, r.Dst) {
			t.Errorf("request %d: payload corrupt across drain", r.idx)
		}
		held = append(held, r.idx)
	}
	if err := d.AuditSlots(held); err != nil {
		t.Error(err)
	}
	if err := d.Submit(reqs[0]); !errors.Is(err, ErrClosed) {
		t.Errorf("submit after CloseDrain: err = %v, want ErrClosed", err)
	}
	if st := d.Stats(); st.DoubleCompletes != 0 {
		t.Errorf("DoubleCompletes = %d, want 0", st.DoubleCompletes)
	}
}

// TestChaosSubmitCloseRaceNoLostRequests is the regression test for the
// submitter-gate fix: a Submit that has passed the closing check while
// Close runs must either be rejected or produce a completion — before
// the gate, its staging enqueue could land after the worker's final
// drain and strand the request (and its slot) forever.
func TestChaosSubmitCloseRaceNoLostRequests(t *testing.T) {
	for iter := 0; iter < 30; iter++ {
		d := Open(Options{NumReqs: 8, Controllers: 1})
		var accepted, recycled atomic.Int64
		stop := make(chan struct{})
		var wg sync.WaitGroup
		wg.Add(1)
		go func() {
			defer wg.Done()
			src := []byte{1, 2, 3, 4}
			for {
				select {
				case <-stop:
					return
				default:
				}
				// Recycle finished slots so submissions keep flowing
				// while Close runs.
				for c := d.RetrieveCompleted(); c != nil; c = d.RetrieveCompleted() {
					d.FreeRequest(c)
					recycled.Add(1)
				}
				r := d.AllocRequest()
				if r == nil {
					continue
				}
				r.Src, r.Dst = src, make([]byte, 4)
				if err := d.Submit(r); err != nil {
					return // ErrClosed: the slot stays user-held, fine
				}
				accepted.Add(1)
			}
		}()
		// Let a few submissions through, then slam the door.
		for d.Completed() == 0 {
			time.Sleep(10 * time.Microsecond)
		}
		d.Close()
		close(stop)
		wg.Wait()
		// Close waited out the worker, so every accepted request's
		// completion is already posted — unless one was stranded in
		// staging, the lost-index bug this test pins.
		var got int64
		for d.RetrieveCompleted() != nil {
			got++
		}
		if total := recycled.Load() + got; total != accepted.Load() {
			t.Fatalf("iter %d: accepted %d submissions but saw %d completions — request lost across Close",
				iter, accepted.Load(), total)
		}
	}
}

// TestChaosCancelVsFailedSubmitHonored is the regression test for the
// cancel-vs-failed-submit fix: when Cancel wins its CAS inside Submit's
// enqueue-failure window, the old code stored the request back to idle
// and returned ErrNoSlots — the cancel's promised ErrCanceled
// completion never fired. Now Submit detects the lost CAS and completes
// the request through the normal path.
func TestChaosCancelVsFailedSubmitHonored(t *testing.T) {
	inWindow := make(chan *Request, 1)
	proceed := make(chan struct{})
	var arm atomic.Bool
	var dev *Device
	opts := Options{
		NumReqs: 8,
		Chaos: &ChaosHooks{
			StagingEnqueue: func(idx uint32) bool {
				if !arm.Load() {
					return false
				}
				r, _ := dev.req(idx)
				inWindow <- r // request is stPending, not yet enqueued
				<-proceed     // hold Submit here until Cancel has won
				return true   // then force the enqueue failure
			},
		},
	}
	d := Open(opts)
	dev = d
	defer d.Close()

	r := d.AllocRequest()
	r.Src, r.Dst = []byte{1}, make([]byte, 1)
	arm.Store(true)
	errc := make(chan error, 1)
	go func() { errc <- d.Submit(r) }()

	target := <-inWindow
	arm.Store(false)
	won := d.Cancel(target)
	close(proceed)
	err := <-errc

	if !won {
		t.Fatal("cancel lost a race it was engineered to win")
	}
	if err != nil {
		t.Fatalf("Submit returned %v; a canceled-in-window submit must be accepted", err)
	}
	rr := drainAll(t, d, 1)[0]
	if rr != r || !errors.Is(rr.Err, ErrCanceled) {
		t.Fatalf("completion = %v err=%v, want the canceled request with ErrCanceled", rr, rr.Err)
	}
	d.FreeRequest(rr)
	if err := d.AuditSlots(nil); err != nil {
		t.Error(err)
	}
	if st := d.Stats(); st.DoubleCompletes != 0 {
		t.Errorf("DoubleCompletes = %d, want 0", st.DoubleCompletes)
	}
}

// TestChaosBatchFlushExhaustionMidBatch forces every staging→submission
// flush attempt to fail while a batch is submitted to a parked worker,
// so the batch's one flush moves every request: all of them must
// surface as ErrNoSlots completions — none stranded, none silently
// dropped — and the device must recover once the fault clears.
func TestChaosBatchFlushExhaustionMidBatch(t *testing.T) {
	var failing atomic.Bool
	failing.Store(true)
	d := Open(Options{
		NumReqs: 16,
		Chaos: &ChaosHooks{
			FlushEnqueue: func(idx uint32) bool { return failing.Load() },
		},
	})
	defer d.Close()

	const n = 6
	batch := make([]*Request, n)
	for i := range batch {
		r := d.AllocRequest()
		r.Src, r.Dst = []byte{1, 2, 3}, make([]byte, 3)
		batch[i] = r
	}
	awaitCond(t, "worker parked", func() bool { return d.staging.Color() == rbq.Blue })
	if err := d.SubmitBatch(batch); err != nil {
		t.Fatalf("SubmitBatch: %v", err)
	}
	got := drainAll(t, d, n)
	for i, r := range got {
		if !errors.Is(r.Err, ErrNoSlots) {
			t.Errorf("request %d: err = %v, want ErrNoSlots", i, r.Err)
		}
		d.FreeRequest(r)
	}
	if err := d.AuditSlots(nil); err != nil {
		t.Error(err)
	}

	// Fault cleared: the same slots must serve a clean batch again.
	failing.Store(false)
	for i := range batch {
		r := d.AllocRequest()
		if r == nil {
			t.Fatalf("slot leak: alloc %d failed after exhausted batch", i)
		}
		r.Src, r.Dst = []byte{9, 8, 7}, make([]byte, 3)
		batch[i] = r
	}
	if err := d.SubmitBatch(batch); err != nil {
		t.Fatalf("post-recovery SubmitBatch: %v", err)
	}
	for _, r := range drainAll(t, d, n) {
		if r.Err != nil || !bytes.Equal(r.Src, r.Dst) {
			t.Errorf("post-recovery completion: err=%v dst=%v", r.Err, r.Dst)
		}
		d.FreeRequest(r)
	}
	if st := d.Stats(); st.DoubleCompletes != 0 {
		t.Errorf("DoubleCompletes = %d, want 0", st.DoubleCompletes)
	}
}

// TestChaosBatchStagingExhaustionMidBatch fails the staging enqueue for
// every other request of a batch: the failed half must surface as
// ErrNoSlots completions and the staged half must complete cleanly —
// the batch contract is exactly len(batch) completions either way.
func TestChaosBatchStagingExhaustionMidBatch(t *testing.T) {
	var ctr atomic.Uint32
	d := Open(Options{
		NumReqs: 16,
		Chaos: &ChaosHooks{
			StagingEnqueue: func(idx uint32) bool { return ctr.Add(1)%2 == 0 },
		},
	})
	defer d.Close()

	const n = 8
	batch := make([]*Request, n)
	for i := range batch {
		r := d.AllocRequest()
		r.Src, r.Dst = bytes.Repeat([]byte{byte(i + 1)}, 128), make([]byte, 128)
		batch[i] = r
	}
	if err := d.SubmitBatch(batch); err != nil {
		t.Fatalf("SubmitBatch: %v", err)
	}
	got := drainAll(t, d, n)
	var clean, noSlots int
	for _, r := range got {
		switch {
		case r.Err == nil:
			clean++
			if !bytes.Equal(r.Src, r.Dst) {
				t.Errorf("request %d: clean completion with corrupt payload", r.idx)
			}
		case errors.Is(r.Err, ErrNoSlots):
			noSlots++
		default:
			t.Errorf("request %d: unexpected error %v", r.idx, r.Err)
		}
		d.FreeRequest(r)
	}
	if clean != n/2 || noSlots != n/2 {
		t.Errorf("clean/noSlots = %d/%d, want %d/%d", clean, noSlots, n/2, n/2)
	}
	if err := d.AuditSlots(nil); err != nil {
		t.Error(err)
	}
	if st := d.Stats(); st.DoubleCompletes != 0 {
		t.Errorf("DoubleCompletes = %d, want 0", st.DoubleCompletes)
	}
}

// TestChaosBatchCancelStormStalledControllers lands a cancel storm on a
// batch whose chunks are frozen inside the controllers: every request
// must complete exactly once — clean or ErrCanceled, with the cancel's
// promise honored — and every slot must return to the free list.
func TestChaosBatchCancelStormStalledControllers(t *testing.T) {
	stall := make(chan struct{})
	var once sync.Once
	d := Open(Options{
		NumReqs:     32,
		Controllers: 2,
		ChunkBytes:  1 << 10,
		Chaos: &ChaosHooks{
			BeforeChunkCopy: func(idx uint32, off, end int) { <-stall },
		},
	})
	defer d.Close()
	defer once.Do(func() { close(stall) })

	const n = 10
	batch := make([]*Request, n)
	for i := range batch {
		r := d.AllocRequest()
		src := bytes.Repeat([]byte{byte(i + 1)}, 4<<10) // 4 chunks each
		r.Src, r.Dst = src, make([]byte, len(src))
		batch[i] = r
	}
	if err := d.SubmitBatch(batch); err != nil {
		t.Fatalf("SubmitBatch: %v", err)
	}
	canceled := map[*Request]bool{}
	for i, r := range batch {
		if i%2 == 1 {
			canceled[r] = d.Cancel(r)
		}
	}
	once.Do(func() { close(stall) })

	got := drainAll(t, d, n)
	seen := map[*Request]int{}
	for _, r := range got {
		seen[r]++
	}
	for i, r := range batch {
		if seen[r] != 1 {
			t.Errorf("request %d completed %d times, want exactly once", i, seen[r])
		}
		switch {
		case r.Err == nil:
			if canceled[r] {
				t.Errorf("request %d: cancel won but completed clean", i)
			}
			if !bytes.Equal(r.Src, r.Dst) {
				t.Errorf("request %d: corrupt payload", i)
			}
		case errors.Is(r.Err, ErrCanceled):
			if !canceled[r] {
				t.Errorf("request %d: ErrCanceled without a winning cancel", i)
			}
		default:
			t.Errorf("request %d: unexpected error %v", i, r.Err)
		}
	}
	var held []uint32
	for _, r := range got {
		held = append(held, r.idx)
	}
	if err := d.AuditSlots(held); err != nil {
		t.Error(err)
	}
	for _, r := range got {
		d.FreeRequest(r)
	}
	if err := d.AuditSlots(nil); err != nil {
		t.Error(err)
	}
	if st := d.Stats(); st.DoubleCompletes != 0 {
		t.Errorf("DoubleCompletes = %d, want 0", st.DoubleCompletes)
	}
}

// TestChaosBatchSubmitCloseRaceNoLostRequests is the batched analogue
// of the submitter-gate regression test: a SubmitBatch that has passed
// the closing check while Close runs must either be rejected whole or
// produce a completion for every request it accepted — mid-batch, no
// request may be stranded in the staging queue past the worker's final
// drain.
func TestChaosBatchSubmitCloseRaceNoLostRequests(t *testing.T) {
	for iter := 0; iter < 20; iter++ {
		d := Open(Options{NumReqs: 16, Controllers: 1})
		var accepted, recycled atomic.Int64
		stop := make(chan struct{})
		var wg sync.WaitGroup
		wg.Add(1)
		go func() {
			defer wg.Done()
			src := []byte{1, 2, 3, 4}
			buf := make([]*Request, 8)
			batch := make([]*Request, 0, 4)
			for {
				select {
				case <-stop:
					return
				default:
				}
				for n := d.RetrieveCompletedBatch(buf); n > 0; n = d.RetrieveCompletedBatch(buf) {
					for i := 0; i < n; i++ {
						d.FreeRequest(buf[i])
					}
					recycled.Add(int64(n))
				}
				batch = batch[:0]
				for len(batch) < 4 {
					r := d.AllocRequest()
					if r == nil {
						break
					}
					r.Src, r.Dst = src, make([]byte, 4)
					batch = append(batch, r)
				}
				if len(batch) == 0 {
					continue
				}
				if err := d.SubmitBatch(batch); err != nil {
					return // ErrClosed: the slots stay user-held, fine
				}
				accepted.Add(int64(len(batch)))
			}
		}()
		for d.Completed() == 0 {
			time.Sleep(10 * time.Microsecond)
		}
		d.Close()
		close(stop)
		wg.Wait()
		var got int64
		for d.RetrieveCompleted() != nil {
			got++
		}
		if total := recycled.Load() + got; total != accepted.Load() {
			t.Fatalf("iter %d: accepted %d batch submissions but saw %d completions — request lost across Close",
				iter, accepted.Load(), total)
		}
	}
}

// TestChaosDispatchStallCancelStorm parks the worker inside dispatch
// (after the request left the submission queue, before chunking) while
// cancels land: the cancel must be observed before any byte moves, and
// the completion must still fire exactly once.
func TestChaosDispatchStallCancelStorm(t *testing.T) {
	entered := make(chan uint32, 16)
	release := make(chan struct{})
	opts := Options{
		NumReqs: 8,
		Chaos: &ChaosHooks{
			BeforeDispatch: func(idx uint32) {
				entered <- idx
				<-release
			},
		},
	}
	d := Open(opts)
	defer d.Close()

	r := d.AllocRequest()
	r.Src, r.Dst = bytes.Repeat([]byte{7}, 1<<10), make([]byte, 1<<10)
	if err := d.Submit(r); err != nil {
		t.Fatal(err)
	}
	<-entered // worker is parked inside dispatch
	if !d.Cancel(r) {
		t.Fatal("cancel of a parked pending request failed")
	}
	close(release)
	rr := drainAll(t, d, 1)[0]
	if !errors.Is(rr.Err, ErrCanceled) {
		t.Fatalf("err = %v, want ErrCanceled", rr.Err)
	}
	for _, b := range rr.Dst {
		if b != 0 {
			t.Fatal("bytes moved after a pre-dispatch cancel")
		}
	}
	d.FreeRequest(rr)
	if err := d.AuditSlots(nil); err != nil {
		t.Error(err)
	}
}

// TestChaosStalledWorkerBacklogVisible wedges the worker on its first
// dispatch with the rest of a 50-request batch already drained into the
// scheduler's buckets. The 49 waiting requests are on no queue, yet they
// are the backlog: SubmissionDepth and the tenant's QueueDepth must both
// count them, and the watchdog must report the wedged worker, because
// its queued-work probe reads the same backlog. Released, every request
// completes byte-exact and every slot comes home.
func TestChaosStalledWorkerBacklogVisible(t *testing.T) {
	const n, size = 50, 4 << 10
	entered, stall := make(chan struct{}), make(chan struct{})
	var first atomic.Bool
	d := Open(Options{Chaos: &ChaosHooks{BeforeDispatch: func(uint32) {
		if first.CompareAndSwap(false, true) {
			close(entered)
			<-stall
		}
	}}})
	defer d.Close()
	release := sync.OnceFunc(func() { close(stall) })
	defer release()

	reqs := make([]*Request, n)
	for i := range reqs {
		r := d.AllocRequest()
		r.Src, r.Dst = bytes.Repeat([]byte{byte(i + 1)}, size), make([]byte, size)
		r.Cookie = uint64(i)
		reqs[i] = r
	}
	if err := d.SubmitBatch(reqs); err != nil {
		t.Fatal(err)
	}
	<-entered
	// The batch's own flush emptied staging before SubmitBatch returned,
	// and the worker holds one request in dispatch: the other 49 wait
	// behind it, on the submission queue or in the scheduler's buckets.
	st := d.Stats()
	if st.SubmissionDepth != n-1 || st.Tenants[0].QueueDepth != n-1 || st.StagingDepth != 0 {
		t.Errorf("worker wedged with %d waiting: SubmissionDepth %d, Tenants[0].QueueDepth %d, StagingDepth %d; want %d, %d, 0",
			n-1, st.SubmissionDepth, st.Tenants[0].QueueDepth, st.StagingDepth, n-1, n-1)
	}
	stalled := func() bool {
		for _, o := range d.FlightSnapshot().Outliers {
			if o.Kind == lifecycle.KindStall && o.Reason == lifecycle.ReasonWorkerStall {
				return true
			}
		}
		return false
	}
	for deadline := time.Now().Add(5 * time.Second); !stalled(); time.Sleep(5 * time.Millisecond) {
		if time.Now().After(deadline) {
			fs := d.FlightSnapshot()
			t.Fatalf("no worker-stall report after 5s of a wedged worker with %d queued: stalls %d, queuedWork %v",
				n-1, fs.Stalls, d.queuedWork())
		}
	}

	release()
	for _, r := range drainAll(t, d, n) {
		if r.Err != nil {
			t.Errorf("request %d: %v", r.Cookie, r.Err)
		} else if !bytes.Equal(r.Dst, r.Src) {
			t.Errorf("request %d: destination differs from source", r.Cookie)
		}
		d.FreeRequest(r)
	}
	if st := d.Stats(); st.SubmissionDepth != 0 || st.DoubleCompletes != 0 {
		t.Errorf("after drain: SubmissionDepth %d, DoubleCompletes %d; want 0, 0", st.SubmissionDepth, st.DoubleCompletes)
	}
	if err := d.AuditSlots(nil); err != nil {
		t.Error(err)
	}
}

// TestChaosWorkerDrainsStagingDirectly pins the worker's own drain. Two
// primers reach the parked worker through a batch's flush — the
// submission queue — and the worker is held in the first one's dispatch
// while n more are staged behind the red queue, where only the worker
// can take them. Released once, it drains them straight into its
// buckets, behind the second primer, and is held again in that primer's
// dispatch: the n are the backlog (SubmissionDepth n, StagingDepth 0)
// and never touched the submission queue (SubmissionHighWater still 2).
// Released for good, they dispatch in staging order, the backlog reads
// 0 and every slot comes home.
func TestChaosWorkerDrainsStagingDirectly(t *testing.T) {
	const n, size = 8, 4 << 10
	entered := make(chan struct{}, 2)
	gates := [2]chan struct{}{make(chan struct{}), make(chan struct{})}
	open := [2]func(){
		sync.OnceFunc(func() { close(gates[0]) }),
		sync.OnceFunc(func() { close(gates[1]) }),
	}
	var dispatched []uint32 // worker-written; read after the completions
	d := Open(Options{NumReqs: n + 2, Chaos: &ChaosHooks{BeforeDispatch: func(idx uint32) {
		k := len(dispatched)
		dispatched = append(dispatched, idx)
		if k < len(gates) {
			entered <- struct{}{}
			<-gates[k]
		}
	}}})
	defer d.Close()
	defer open[1]()
	defer open[0]()

	var want []uint32
	alloc := func(i int) *Request {
		r := d.AllocRequest()
		r.Src, r.Dst = bytes.Repeat([]byte{byte(i + 1)}, size), make([]byte, size)
		want = append(want, r.idx)
		return r
	}
	if err := d.SubmitBatch([]*Request{alloc(0), alloc(1)}); err != nil {
		t.Fatal(err)
	}
	<-entered
	const hw = 2 // the batch's flush; the worker slept through it
	if st := d.Stats(); st.SubmissionHighWater != hw {
		t.Fatalf("SubmissionHighWater = %d after a 2-request flush, want %d", st.SubmissionHighWater, hw)
	}
	for i := 0; i < n; i++ {
		if err := d.Submit(alloc(2 + i)); err != nil {
			t.Fatal(err)
		}
	}
	if st := d.Stats(); st.StagingDepth != n || st.SubmissionDepth != 1 {
		t.Errorf("held on the first primer: StagingDepth %d, SubmissionDepth %d; want %d, 1",
			st.StagingDepth, st.SubmissionDepth, n)
	}
	open[0]()
	<-entered
	st := d.Stats()
	if st.SubmissionDepth != n || st.Tenants[0].QueueDepth != n || st.StagingDepth != 0 || st.SubmissionHighWater != hw {
		t.Errorf("held on the second primer: SubmissionDepth %d, QueueDepth %d, StagingDepth %d, SubmissionHighWater %d; want %d, %d, 0, %d",
			st.SubmissionDepth, st.Tenants[0].QueueDepth, st.StagingDepth, st.SubmissionHighWater, n, n, hw)
	}
	open[1]()
	for _, r := range drainAll(t, d, n+2) {
		if r.Err != nil || !bytes.Equal(r.Dst, r.Src) {
			t.Errorf("slot %d: err=%v, or destination differs from source", r.idx, r.Err)
		}
		d.FreeRequest(r)
	}
	if fmt.Sprint(dispatched) != fmt.Sprint(want) {
		t.Errorf("dispatch order %v, want the primers then staging order: %v", dispatched, want)
	}
	if st := d.Stats(); st.SubmissionDepth != 0 || st.SubmissionHighWater != hw || st.DoubleCompletes != 0 {
		t.Errorf("after drain: SubmissionDepth %d, SubmissionHighWater %d, DoubleCompletes %d; want 0, %d, 0",
			st.SubmissionDepth, st.SubmissionHighWater, st.DoubleCompletes, hw)
	}
	if err := d.AuditSlots(nil); err != nil {
		t.Error(err)
	}
}

// TestChaosParkRechecksSubmission closes the lost wake of ROADMAP item
// 4(c)'s second window on a fixed schedule. Flusher A takes its index
// off staging and is held (FlushEnqueue) before moving it on. B stages
// and flushes its own request, turning staging red and kicking the
// worker, which dispatches it and drains again. The rbq scheduling hook
// holds the worker right after that drain found the submission queue
// empty, before its Park. Released, A moves its index onto the
// submission queue and finds staging red, so it owes no kick. Then the
// worker parks staging blue: unless it looks at the submission queue
// once more before sleeping, A's index waits there for a kick that
// never comes. The guard below only reports that hang; the schedule is
// sequenced on hooks alone.
func TestChaosParkRechecksSubmission(t *testing.T) {
	var aIdx, bIdx atomic.Int64
	aIdx.Store(-1)
	bIdx.Store(-1)
	aHeld, aGo := make(chan struct{}), make(chan struct{})
	var armed atomic.Bool
	d := Open(Options{NumReqs: 2, Controllers: 1, Flight: lifecycle.FlightOptions{Disable: true},
		Chaos: &ChaosHooks{
			FlushEnqueue: func(idx uint32) bool {
				if int64(idx) == aIdx.Load() {
					close(aHeld)
					<-aGo
				}
				return false
			},
			BeforeDispatch: func(idx uint32) {
				if int64(idx) == bIdx.Load() {
					armed.Store(true)
				}
			},
		}})
	defer d.Close()
	a, b := d.AllocRequest(), d.AllocRequest()
	for _, r := range []*Request{a, b} {
		r.Src, r.Dst = bytes.Repeat([]byte{byte(r.idx + 1)}, 1<<10), make([]byte, 1<<10)
	}
	aIdx.Store(int64(a.idx))
	bIdx.Store(int64(b.idx))

	// Armed in B's dispatch, the hook sees only the worker: A is held
	// in its flush, this goroutine waits, and the controller and the
	// monitor (disarmed here) never touch an rbq queue. The worker's
	// next drain calls it once per empty Dequeue — the submission
	// queue's, then staging's — so the second call is the point after
	// the submission queue was found empty and before the Park.
	workerHeld, workerGo := make(chan struct{}), make(chan struct{})
	var calls atomic.Int32
	rbq.SetSchedHook(func() {
		if armed.Load() && calls.Add(1) == 2 {
			close(workerHeld)
			<-workerGo
		}
	})
	defer rbq.SetSchedHook(nil)

	aDone := make(chan error, 1)
	go func() { aDone <- d.Submit(a) }()
	<-aHeld
	if err := d.Submit(b); err != nil {
		t.Fatal(err)
	}
	<-workerHeld
	close(aGo)
	if err := <-aDone; err != nil {
		t.Fatal(err)
	}
	if k, n, c := d.Kicks(), d.submission.Size(), d.staging.Color(); k != 1 || n != 1 || c != rbq.Red {
		t.Fatalf("schedule missed the window: kicks %d, submission depth %d, staging %v; want 1, 1, red", k, n, c)
	}
	close(workerGo)

	got := 0
	for deadline := time.Now().Add(waitGuard); got < 2; {
		if r := d.RetrieveCompleted(); r != nil {
			if r.Err != nil || !bytes.Equal(r.Dst, r.Src) {
				t.Errorf("slot %d: err=%v, or destination differs from source", r.idx, r.Err)
			}
			got++
			continue
		}
		if time.Now().After(deadline) {
			t.Fatalf("slot %d stranded on the submission queue (depth %d) behind a parked worker",
				a.idx, d.submission.Size())
		}
		d.Poll(time.Millisecond)
	}
}

// TestChaosCancelDuringShed lands a cancel storm inside the admission
// shed window: the pipeline is saturated with stalled foreground work so
// every scavenger in a batch is shed, while a concurrent canceler races
// the shed-completion path for the same requests. Each scavenger must
// complete exactly once — with ErrOverload if the shed won or
// ErrCanceled if the cancel claimed it first — and no slot may leak.
func TestChaosCancelDuringShed(t *testing.T) {
	stall := make(chan struct{})
	var once sync.Once
	opts := Options{
		NumReqs:     16,
		Controllers: 1,
		ChunkBytes:  1 << 10,
		Chaos: &ChaosHooks{
			BeforeChunkCopy: func(idx uint32, off, end int) { <-stall },
		},
	}
	d := Open(opts)
	d.inline.Store(0) // keep copies off the worker
	defer d.Close()
	defer once.Do(func() { close(stall) })

	// Saturate to the scavenger admission threshold (50% of 16 = 8
	// slots) with foreground requests frozen in the controller.
	const nFG = 8
	fgs := make([]*Request, 0, nFG)
	for i := 0; i < nFG; i++ {
		r := d.AllocRequest()
		r.Src, r.Dst = bytes.Repeat([]byte{byte(i + 1)}, 4<<10), make([]byte, 4<<10)
		if err := d.Submit(r); err != nil {
			t.Fatalf("foreground submit %d: %v", i, err)
		}
		fgs = append(fgs, r)
	}

	// Batch-submit scavengers — all shed by admission — while a cancel
	// storm races the shed completions for the same requests.
	const nScav = 6
	scavs := make([]*Request, 0, nScav)
	for i := 0; i < nScav; i++ {
		r := d.AllocRequest()
		r.Class = ClassScavenger
		r.Src, r.Dst = bytes.Repeat([]byte{0xEE}, 1<<10), make([]byte, 1<<10)
		scavs = append(scavs, r)
	}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			for _, r := range scavs {
				d.Cancel(r)
			}
		}
	}()
	if err := d.SubmitBatch(scavs); err != nil {
		t.Fatalf("SubmitBatch: %v", err)
	}
	close(stop)
	wg.Wait()
	once.Do(func() { close(stall) })

	got := drainAll(t, d, nFG+nScav)
	seen := map[*Request]int{}
	for _, r := range got {
		seen[r]++
	}
	for i, r := range fgs {
		if seen[r] != 1 {
			t.Errorf("foreground %d completed %d times, want exactly once", i, seen[r])
		}
		if r.Err != nil {
			t.Errorf("foreground %d: %v, want clean completion", i, r.Err)
		} else if !bytes.Equal(r.Src, r.Dst) {
			t.Errorf("foreground %d: clean completion with corrupt payload", i)
		}
	}
	for i, r := range scavs {
		if seen[r] != 1 {
			t.Errorf("scavenger %d completed %d times, want exactly once", i, seen[r])
		}
		switch {
		case errors.Is(r.Err, ErrOverload):
			var oe *OverloadError
			if !errors.As(r.Err, &oe) || oe.Class != ClassScavenger {
				t.Errorf("scavenger %d: shed error %v lacks the typed class", i, r.Err)
			}
		case errors.Is(r.Err, ErrCanceled):
			// The cancel claimed the request inside the shed window.
		default:
			t.Errorf("scavenger %d: err = %v, want ErrOverload or ErrCanceled", i, r.Err)
		}
		for _, b := range r.Dst {
			if b != 0 {
				t.Errorf("scavenger %d: bytes moved despite shed/cancel", i)
				break
			}
		}
	}

	var held []uint32
	for _, r := range got {
		held = append(held, r.idx)
	}
	if err := d.AuditSlots(held); err != nil {
		t.Error(err)
	}
	if st := d.Stats(); st.DoubleCompletes != 0 {
		t.Errorf("DoubleCompletes = %d, want 0", st.DoubleCompletes)
	} else if st.Shed == 0 {
		t.Error("no shed was recorded — the overload window never opened")
	}
}

// TestChaosTenantCancelStorm is the multi-tenant isolation storm: an
// aggressor tenant cancels every one of its requests mid-flight, over
// and over, while two victim tenants submit steadily. The device must
// keep its exactly-once completion promise for everyone, the storm must
// never shed or cancel a victim request, and every slot must come home.
func TestChaosTenantCancelStorm(t *testing.T) {
	d := Open(Options{
		NumReqs:     64,
		Controllers: 2,
		ChunkBytes:  1 << 10,
		Chaos: &ChaosHooks{
			BeforeChunkCopy: func(idx uint32, off, end int) { time.Sleep(5 * time.Microsecond) },
		},
	})
	defer d.Close()

	aggr, err := d.OpenTenant(TenantConfig{Name: "aggressor", Weight: 1, SlotQuota: 16})
	if err != nil {
		t.Fatal(err)
	}
	victims := make([]*Tenant, 2)
	for i := range victims {
		v, err := d.OpenTenant(TenantConfig{Name: fmt.Sprintf("victim%d", i), Weight: 2, SlotQuota: 16})
		if err != nil {
			t.Fatal(err)
		}
		victims[i] = v
	}

	const perVictim = 60
	var (
		wg        sync.WaitGroup
		retrieved atomic.Int64
		stopDrain = make(chan struct{})
	)
	// Drainer: frees every completion; per-tenant outcomes are checked
	// through the tenant counters afterwards.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			if r := d.RetrieveCompleted(); r != nil {
				if r.Err == nil && !bytes.Equal(r.Src, r.Dst) {
					t.Errorf("request %d: clean completion with corrupt payload", r.idx)
				}
				d.FreeRequest(r)
				retrieved.Add(1)
				continue
			}
			select {
			case <-stopDrain:
				return
			default:
				d.Poll(time.Millisecond)
			}
		}
	}()

	// Victims: steady submission, multi-chunk payloads so cancels have a
	// window, every submit must be admitted (their quota is theirs alone).
	var accepted atomic.Int64
	for vi, v := range victims {
		wg.Add(1)
		go func(vi int, v *Tenant) {
			defer wg.Done()
			src := bytes.Repeat([]byte{byte(vi + 1)}, 4<<10)
			for n := 0; n < perVictim; {
				// Stay under the victim's own quota so a shed can only
				// mean cross-tenant leakage, never self-inflicted
				// admission pressure.
				if v.Stats().InFlight >= 12 {
					time.Sleep(20 * time.Microsecond)
					continue
				}
				r := d.AllocRequest()
				if r == nil {
					time.Sleep(20 * time.Microsecond)
					continue
				}
				r.Src, r.Dst = src, make([]byte, len(src))
				if err := v.Submit(r); err != nil {
					t.Errorf("victim %d submit: %v — aggressor storm leaked into a victim", vi, err)
					d.FreeRequest(r)
					return
				}
				accepted.Add(1)
				n++
			}
		}(vi, v)
	}

	// Aggressor: floods its quota and mass-cancels everything, forever.
	stopStorm := make(chan struct{})
	stormDone := make(chan struct{})
	go func() {
		defer close(stormDone)
		src := bytes.Repeat([]byte{0xAA}, 4<<10)
		for {
			select {
			case <-stopStorm:
				return
			default:
			}
			for i := 0; i < 8; i++ {
				r := d.AllocRequest()
				if r == nil {
					break
				}
				r.Src, r.Dst = src, make([]byte, len(src))
				if err := aggr.Submit(r); err != nil {
					d.FreeRequest(r)
					break
				}
				accepted.Add(1)
			}
			aggr.CancelAll()
		}
	}()

	// Let the storm rage until every victim request has been accepted,
	// then stop the aggressor and wait for the pipeline to go quiet.
	deadline := time.Now().Add(10 * time.Second)
	for {
		done := true
		for _, v := range victims {
			if v.Stats().Submitted < perVictim {
				done = false
			}
		}
		if done || time.Now().After(deadline) {
			break
		}
		time.Sleep(time.Millisecond)
	}
	close(stopStorm)
	<-stormDone // its last burst is accepted before the quiesce wait reads the count
	for retrieved.Load() < accepted.Load() && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	close(stopDrain)
	wg.Wait()

	if got, want := retrieved.Load(), accepted.Load(); got != want {
		t.Errorf("retrieved %d completions for %d accepted submissions", got, want)
	}
	for vi, v := range victims {
		st := v.Stats()
		if st.Submitted != perVictim {
			t.Errorf("victim %d: submitted %d, want %d", vi, st.Submitted, perVictim)
		}
		if st.Completed != st.Submitted {
			t.Errorf("victim %d: completed %d of %d", vi, st.Completed, st.Submitted)
		}
		if st.Shed != 0 {
			t.Errorf("victim %d: %d sheds — the aggressor's overload reached a victim", vi, st.Shed)
		}
		if st.Canceled != 0 {
			t.Errorf("victim %d: %d canceled — the aggressor's storm claimed a victim request", vi, st.Canceled)
		}
		if st.InFlight != 0 || st.QueueDepth != 0 {
			t.Errorf("victim %d: inFlight=%d queueDepth=%d after quiesce", vi, st.InFlight, st.QueueDepth)
		}
	}
	ast := aggr.Stats()
	if ast.Completed != ast.Submitted {
		t.Errorf("aggressor: completed %d of %d", ast.Completed, ast.Submitted)
	}
	if err := d.AuditSlots(nil); err != nil {
		t.Error(err)
	}
	if st := d.Stats(); st.DoubleCompletes != 0 {
		t.Errorf("DoubleCompletes = %d, want 0", st.DoubleCompletes)
	}
}
