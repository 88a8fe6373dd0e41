package realtime

// Unit coverage for the QoS layer: the admission controller's occupancy thresholds and typed overload error, the
// strict-priority-with-aging dispatch order, the adaptive inline
// threshold retuner, and the context-based poll/drain entry points.

import (
	"bytes"
	"context"
	"errors"
	"sync"
	"testing"
	"time"

	"memif/internal/obs"
	"memif/internal/qos"
	"memif/internal/rbq"
)

// TestSubmitBatchBadClass: Class is a caller-set uint8, so the batch's
// all-or-nothing validation pass must reject an undefined one exactly as
// Submit does — ErrBadClass, nothing staged, nothing counted — through
// the device and the tenant entry points alike. (Before PR 22 the pass
// checked sizes only, and a bad class indexed past the per-class
// counters in accept: a panic reachable from any facade caller.)
func TestSubmitBatchBadClass(t *testing.T) {
	d := Open(Options{NumReqs: 8, Controllers: 1})
	defer d.Close()
	ten, err := d.OpenTenant(TenantConfig{Name: "t", SlotQuota: 4})
	if err != nil {
		t.Fatal(err)
	}
	for name, door := range map[string]struct {
		one   func(*Request) error
		batch func([]*Request) error
	}{
		"device": {d.Submit, d.SubmitBatch},
		"tenant": {ten.Submit, ten.SubmitBatch},
	} {
		good, bad := d.AllocRequest(), d.AllocRequest()
		good.Src, good.Dst = []byte{1, 2, 3, 4}, make([]byte, 4)
		bad.Src, bad.Dst, bad.Class = good.Src, make([]byte, 4), 7
		if err := door.one(bad); !errors.Is(err, ErrBadClass) {
			t.Errorf("%s Submit(class 7) = %v, want ErrBadClass", name, err)
		}
		if err := door.batch([]*Request{good, bad}); !errors.Is(err, ErrBadClass) {
			t.Errorf("%s SubmitBatch(class 7) = %v, want ErrBadClass", name, err)
		}
		st := d.Stats()
		if st.Submitted != 0 || st.Completed != 0 || st.Batches != 0 || st.Shed != 0 || st.StagingDepth != 0 {
			t.Errorf("%s: a rejected batch was counted or staged: %+v", name, st)
		}
		if err := d.AuditSlots([]uint32{good.idx, bad.idx}); err != nil {
			t.Errorf("%s: %v", name, err)
		}
		d.FreeRequest(good)
		d.FreeRequest(bad)
	}
}

// TestAdmitShedsAtClassThreshold drives the admission check directly by
// inflating the in-flight count (submitted-completed): with 8 slots the
// scavenger limit is 4 and the background limit 6, while foreground is
// never shed by admission at all.
func TestAdmitShedsAtClassThreshold(t *testing.T) {
	d := Open(Options{NumReqs: 8, Controllers: 1})
	defer d.Close()

	admit := func(c Class) error { return d.admit(&Request{Class: c}) }
	inFlight := func(n int64) {
		for d.m.submitted.Load()-d.m.completed.Load() < n {
			d.m.submitted.Inc()
		}
	}

	for _, c := range []Class{ClassForeground, ClassBackground, ClassScavenger} {
		if err := admit(c); err != nil {
			t.Fatalf("idle admit(%v): %v", c, err)
		}
	}

	inFlight(4) // scavenger threshold: 0.5 * 8
	if err := admit(ClassScavenger); !errors.Is(err, ErrOverload) {
		t.Errorf("scavenger at 4/8 in flight: err=%v, want ErrOverload", err)
	}
	if err := admit(ClassBackground); err != nil {
		t.Errorf("background at 4/8 in flight: %v, want admitted", err)
	}

	inFlight(6) // background threshold: int(0.85 * 8)
	if err := admit(ClassBackground); !errors.Is(err, ErrOverload) {
		t.Errorf("background at 6/8 in flight: err=%v, want ErrOverload", err)
	}

	inFlight(8) // full slab: foreground admission still never sheds
	if err := admit(ClassForeground); err != nil {
		t.Errorf("foreground at 8/8 in flight: %v, want admitted", err)
	}

	err := admit(ClassScavenger)
	var oe *OverloadError
	if !errors.As(err, &oe) {
		t.Fatalf("shed error is %T, want *OverloadError", err)
	}
	if oe.Class != ClassScavenger {
		t.Errorf("OverloadError.Class = %v, want scavenger", oe.Class)
	}
	if oe.RetryAfter < minRetryAfter {
		t.Errorf("RetryAfter = %v, below the %v floor", oe.RetryAfter, minRetryAfter)
	}

	if got := d.m.shed.Load(); got == 0 {
		t.Error("shed counter did not move")
	}
	if got := d.m.classShed[ClassScavenger].Load(); got < 2 {
		t.Errorf("scavenger classShed = %d, want >= 2", got)
	}
	if got := d.m.classShed[ClassForeground].Load(); got != 0 {
		t.Errorf("foreground classShed = %d, want 0", got)
	}
}

func TestAdmitRejectsUnknownClass(t *testing.T) {
	d := Open(Options{NumReqs: 8, Controllers: 1})
	defer d.Close()
	if err := d.admit(&Request{Class: Class(7)}); !errors.Is(err, ErrBadClass) {
		t.Errorf("admit(class 7) = %v, want ErrBadClass", err)
	}
}

// TestRetryAfterTracksLatencyEWMA: the overload hint follows the
// completion-latency EWMA, floored at minRetryAfter.
func TestRetryAfterTracksLatencyEWMA(t *testing.T) {
	d := Open(Options{NumReqs: 8, Controllers: 1})
	defer d.Close()

	if ra := d.overloadError(ClassScavenger, "").RetryAfter; ra != minRetryAfter {
		t.Errorf("cold retry-after = %v, want floor %v", ra, minRetryAfter)
	}
	for i := 0; i < 64; i++ {
		d.observeLatEWMA(int64(8 * time.Millisecond))
	}
	ra := d.overloadError(ClassScavenger, "").RetryAfter
	if ra < time.Millisecond || ra > 8*time.Millisecond {
		t.Errorf("warm retry-after = %v, want near the 8ms EWMA", ra)
	}
}

// popDevice builds the minimal Device popSubmission needs: the staging
// queue, the default tenant and the scheduler.
// credit stands in for the agingCredit constant Open hands the
// scheduler.
func popDevice(credit int64) *Device {
	d := &Device{}
	d.staging = rbq.NewSlabForQueues(32, 1, 6).NewQueue(rbq.Red)
	d.reqs = make([]*Request, 32)
	for i := range d.reqs {
		d.reqs[i] = &Request{idx: uint32(i)}
	}
	tab := []*tenantState{newDefaultTenant()}
	d.tenants.Store(&tab)
	d.sched = newTenantSched(d.staging, qos.NumClasses, d.owner, d.tenantWeight, credit)
	return d
}

// nextPop is one worker step on d: drain into the buckets, then pop.
func nextPop(d *Device) (uint32, bool) {
	d.sched.drain(func(uint32) {})
	return d.popSubmission()
}

// enqueue stages request idx on d at class c.
func enqueue(d *Device, c qos.Class, idx uint32) {
	d.reqs[idx].Class = c
	d.staging.Enqueue(idx)
}

// TestPopSubmissionStrictPriority: with a single class loaded, pops come
// in FIFO order; with all classes loaded, higher classes drain first.
func TestPopSubmissionStrictPriority(t *testing.T) {
	d := popDevice(1 << 20) // credit high enough that aging never fires
	enqueue(d, ClassScavenger, 20)
	enqueue(d, ClassBackground, 10)
	enqueue(d, ClassForeground, 0)
	enqueue(d, ClassForeground, 1)

	want := []uint32{0, 1, 10, 20}
	for i, w := range want {
		idx, ok := nextPop(d)
		if !ok || idx != w {
			t.Fatalf("pop %d = (%d, %v), want (%d, true)", i, idx, ok, w)
		}
	}
	if _, ok := nextPop(d); ok {
		t.Error("pop on empty queues reported work")
	}
	if d.m.agedPops.Load() != 0 {
		t.Errorf("agedPops = %d on a pure strict-priority run", d.m.agedPops.Load())
	}
}

// TestPopSubmissionAging: a lower class passed over its aging credit
// while non-empty is served one pop out of order, so a saturating
// foreground stream cannot starve it forever.
func TestPopSubmissionAging(t *testing.T) {
	d := popDevice(2)
	for i := uint32(0); i < 4; i++ {
		enqueue(d, ClassForeground, i)
	}
	enqueue(d, ClassBackground, 10)
	enqueue(d, ClassBackground, 11)

	// Pops 1-2 serve foreground and accrue background credit; pop 3 is
	// the aged background pop; strict priority resumes for pops 4-5
	// (re-accruing credit), and pop 6 serves the last background request
	// as a second aged pop.
	want := []uint32{0, 1, 10, 2, 3, 11}
	for i, w := range want {
		idx, ok := nextPop(d)
		if !ok || idx != w {
			t.Fatalf("pop %d = (%d, %v), want (%d, true)", i, idx, ok, w)
		}
	}
	if got := d.m.agedPops.Load(); got != 2 {
		t.Errorf("agedPops = %d, want 2", got)
	}
	if d.sched.credits[ClassBackground] != 0 {
		t.Errorf("background credit = %d after its queue drained, want 0", d.sched.credits[ClassBackground])
	}
}

// TestInlineRetuneMovesThreshold: with lifecycle full capture on and
// enough dispatches to cross the retune cadence a few times, a stream
// of ring-path requests gives the retuner the span signal it needs; the
// threshold must move off its floor and stay inside
// [minInlineThreshold, chunkBytes].
func TestInlineRetuneMovesThreshold(t *testing.T) {
	opts := Options{
		NumReqs:          16,
		Controllers:      1,
		ChunkBytes:       64 << 10,
		TraceFullCapture: true,
	}
	d := Open(opts)
	d.inline.Store(minInlineThreshold) // start at the floor
	defer d.Close()

	src := make([]byte, 48<<10) // single chunk, well above the floor: ring path
	dst := make([]byte, len(src))
	const dispatches = 4 * retuneEvery
	for i := 0; i < dispatches; i++ {
		r := d.AllocRequest()
		if r == nil {
			t.Fatal("alloc failed")
		}
		r.Src, r.Dst = src, dst
		if err := d.Submit(r); err != nil {
			t.Fatalf("submit %d: %v", i, err)
		}
		for d.RetrieveCompleted() == nil {
			d.Poll(10 * time.Millisecond)
		}
		d.FreeRequest(r)
	}

	st := d.Stats()
	if st.Retunes == 0 {
		t.Fatalf("no retunes after %d dispatches, one is due every %d", dispatches, retuneEvery)
	}
	th := st.InlineThresholdBytes
	if th < minInlineThreshold || th > int64(opts.ChunkBytes) {
		t.Errorf("threshold %d outside [%d, %d]", th, minInlineThreshold, opts.ChunkBytes)
	}
	if th == minInlineThreshold {
		t.Errorf("threshold never moved off the %d floor despite ring-wait signal", minInlineThreshold)
	}
}

// TestInlineCompletionCountsAndCopies: a request at or under the
// threshold is copied by the worker itself and counted as inline; one
// above it takes the ring path, and so does everything on a device
// opened with inline completion off.
func TestInlineCompletionCountsAndCopies(t *testing.T) {
	run := func(d *Device, n int) *Request {
		r := d.AllocRequest()
		src := make([]byte, n)
		for i := range src {
			src[i] = byte(i)
		}
		r.Src, r.Dst = src, make([]byte, n)
		if err := d.Submit(r); err != nil {
			t.Fatalf("submit: %v", err)
		}
		for d.RetrieveCompleted() == nil {
			d.Poll(10 * time.Millisecond)
		}
		return r
	}

	d := Open(Options{NumReqs: 8, Controllers: 1})
	d.inline.Store(4 << 10) // two dispatches: far short of a retune
	defer d.Close()

	small := run(d, 4<<10)
	if got := d.Stats().InlineCompleted; got != 1 {
		t.Errorf("InlineCompleted after small request = %d, want 1", got)
	}
	if small.Err != nil || !bytes.Equal(small.Src, small.Dst) {
		t.Errorf("inline completion corrupt: err=%v", small.Err)
	}
	d.FreeRequest(small)

	large := run(d, 8<<10)
	if got := d.Stats().InlineCompleted; got != 1 {
		t.Errorf("InlineCompleted after large request = %d, want still 1", got)
	}
	if large.Err != nil {
		t.Errorf("ring-path completion: %v", large.Err)
	}
	d.FreeRequest(large)

	off := Open(Options{NumReqs: 8, Controllers: 1})
	off.inline.Store(0)
	defer off.Close()
	if r := run(off, 4<<10); r.Err != nil || !bytes.Equal(r.Src, r.Dst) {
		t.Errorf("always-notify completion corrupt: err=%v", r.Err)
	}
	if got := off.Stats().InlineCompleted; got != 0 {
		t.Errorf("InlineCompleted = %d with inline completion off, want 0", got)
	}
}

// TestLatencyIsSumOfClasses: finish observes each request's latency
// once, in its class's histogram, and Stats().Latency is the sum of the
// class snapshots — count, sum and every bucket — after a run that
// spans all three classes with a size mix on both completion paths.
func TestLatencyIsSumOfClasses(t *testing.T) {
	d := Open(Options{NumReqs: 32, Controllers: 2, ChunkBytes: 16 << 10})
	defer d.Close()
	classes := []qos.Class{ClassForeground, ClassBackground, ClassScavenger}
	const rounds = 4
	for i := 0; i < rounds*len(classes); i++ {
		r := d.AllocRequest()
		n := 1 << (10 + i%7) // 1 KiB .. 64 KiB: inline, ring, chunked
		r.Src, r.Dst = make([]byte, n), make([]byte, n)
		r.Class = classes[i%len(classes)]
		if err := d.Submit(r); err != nil {
			t.Fatal(err)
		}
	}
	for _, r := range drainAll(t, d, rounds*len(classes)) {
		if r.Err != nil {
			t.Fatalf("request %d: %v", r.idx, r.Err)
		}
		d.FreeRequest(r)
	}
	st := d.Stats()
	var sum obs.HistogramSnapshot
	for c, cs := range st.Classes {
		if cs.Latency.Count != cs.Completed {
			t.Errorf("class %d: %d latency samples for %d completions", c, cs.Latency.Count, cs.Completed)
		}
		sum.Count += cs.Latency.Count
		sum.Sum += cs.Latency.Sum
		for i, n := range cs.Latency.Buckets {
			sum.Buckets[i] += n
		}
	}
	if st.Latency != sum {
		t.Errorf("Latency %+v is not the sum of the classes' %+v", st.Latency, sum)
	}
	if st.Latency.Count != st.Completed || st.Completed != rounds*int64(len(classes)) {
		t.Errorf("Latency.Count %d, Completed %d; want both %d", st.Latency.Count, st.Completed, rounds*len(classes))
	}
}

// TestPollContextCanceled: an already-canceled context returns
// immediately, reporting whether a completion is ready (it is not).
func TestPollContextCanceled(t *testing.T) {
	d := Open(Options{NumReqs: 8, Controllers: 1})
	defer d.Close()

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	start := time.Now()
	if d.PollContext(ctx) {
		t.Error("PollContext on an idle device reported a completion")
	}
	if elapsed := time.Since(start); elapsed > time.Second {
		t.Errorf("canceled PollContext blocked for %v", elapsed)
	}
}

// TestCloseDrainContextStalled: with a controller frozen mid-copy and a
// canceled context, CloseDrainContext reports the pipeline did not
// drain — but still closes the device once the stall lifts.
func TestCloseDrainContextStalled(t *testing.T) {
	stalled := make(chan struct{})
	release := make(chan struct{})
	var once sync.Once
	d := Open(Options{
		NumReqs:     8,
		Controllers: 1,
		Chaos: &ChaosHooks{
			BeforeChunkCopy: func(idx uint32, off, end int) {
				once.Do(func() { close(stalled) })
				<-release
			},
		},
	})
	d.inline.Store(0) // keep the copy off the worker

	r := d.AllocRequest()
	r.Src, r.Dst = make([]byte, 1<<10), make([]byte, 1<<10)
	if err := d.Submit(r); err != nil {
		t.Fatalf("submit: %v", err)
	}
	<-stalled

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	go func() {
		time.Sleep(10 * time.Millisecond)
		close(release)
	}()
	if d.CloseDrainContext(ctx) {
		t.Error("CloseDrainContext reported drained with a stalled request in flight")
	}
	if err := d.Submit(r); !errors.Is(err, ErrClosed) {
		t.Errorf("submit after close: %v, want ErrClosed", err)
	}
}

// TestCloseDrainContextIdle: an idle device drains immediately.
func TestCloseDrainContextIdle(t *testing.T) {
	d := Open(Options{NumReqs: 8, Controllers: 1})
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if !d.CloseDrainContext(ctx) {
		t.Error("idle device did not drain")
	}
}
