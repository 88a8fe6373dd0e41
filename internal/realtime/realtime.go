// Package realtime runs the memif interface protocol under real
// concurrency: actual goroutines, actual memory copies, wall-clock time.
//
// Where package core executes the full system (page tables, DMA engine,
// cost model) on the simulated KeyStone II, this package is the
// user/kernel *interface* alone — the paper's central contribution —
// deployed as a host-side asynchronous copy service:
//
//   - application goroutines stage requests on the same red-blue
//     lock-free staging queue (package rbq);
//   - the Section 4.4 protocol decides with one atomically-observed
//     color whether the caller must kick the worker;
//   - a worker goroutine plays the kernel thread: woken by the "syscall"
//     (a channel send), it drains staging, splits large requests into
//     chunks, and dispatches them to a pool of transfer goroutines (the
//     DMA engine's transfer controllers), recoloring the staging queue
//     blue before sleeping;
//   - completions are posted from the transfer goroutines — the
//     interrupt path — without the application holding any lock, onto
//     one bounded MPMC completion ring sized to NumReqs; a single
//     buffered notify edge backs the (rare) parked pollers, and Poll
//     blocks exactly like poll(2) on the device file — after a bounded
//     spin-before-sleep micro-wait (when a completer can run
//     concurrently; see spinWait) so a completion landing within ~1 µs
//     costs no timer or channel round trip.
//
// # One staging queue
//
// The device keeps one red-blue staging queue, as the paper's interface
// does, and the worker is its only consumer. The Section 4.4 protocol
// runs on it through the queue's own two steps: a submitter stages
// (rbq.Queue.Stage), which turns the queue red in the same CAS that
// publishes the request, and kicks once if its stage found the queue
// blue; the worker drains it and parks it (rbq.Queue.Park) before
// sleeping. After the worker sleeps the queue is blue, so a burst —
// from one goroutine or many — costs exactly one kick. Unlike the
// paper's application, a submitter never flushes: with one consumer,
// each submitter's requests reach the scheduler in the order it staged
// them (DESIGN.md §7).
//
// # Batched submission
//
// SubmitBatch validates a whole slice of requests against the checks
// Submit makes (sizes, class — all or nothing), stages them, and kicks
// at most once for the batch — Figure 7's batching amortization without
// giving up per-request completions.
// RetrieveCompletedBatch symmetrically drains many completions in one
// call so high-rate pollers don't pay one Poll wakeup per request;
// RetrieveCompleted is a batch of one, and Poll and PollContext are two
// doors onto one wait.
//
// # Chunked parallel transfers on one ring
//
// A request larger than Options.ChunkBytes is split into chunks,
// mirroring how the EDMA3 engine spreads one scatter-gather program
// across its transfer controllers. The worker pushes every chunk onto
// one bounded lock-free ring shared by all the controllers, and each
// controller pops the oldest chunk there, so a large request's chunks
// flow to whichever controllers have cycles instead of queuing behind a
// busy one. The worker only waits when the ring is full (whole-engine
// backpressure, not head-of-line blocking). A per-request atomic
// remaining-chunk counter makes the completion path (Release + Notify)
// fire exactly once, from whichever controller finishes last.
//
// # Cancellation, deadlines, shutdown
//
// Cancel flips a pending request to canceled with one CAS; controllers
// observe the state before touching bytes, so a canceled or
// deadline-expired request completes with ErrCanceled / ErrDeadline
// instead of copying (its Dst contents are undefined if some chunks had
// already moved). CloseDrain bounds shutdown: it rejects new
// submissions, waits for the pipeline to drain, then closes.
//
// # Observability
//
// Every edge (submit, kick, wake, dispatch, chunk, complete, cancel) is
// counted through the lock-free primitives of package obs; Stats returns
// a consistent-enough snapshot at any time, including under full load.
//
// Every request also carries its own stage stamps (see Request): the
// goroutine that owns the request at each handoff writes the stamp into
// a plain field, and the retrieval path assembles them into the
// seven-stage vector that feeds the flight recorder's breach check for
// every request and the lifecycle span histograms for the sampled one in
// 2^TraceSampleShift.
//
// Running this under `go test -race` validates the protocol's lock
// freedom claims with real preemption, which the deterministic simulator
// cannot.
//
// # Verification
//
// Beyond stress, the device carries a fault-injection layer
// (Options.Chaos, test-only hooks on the staging enqueue, dispatch, the
// chunk copy, and the completion path) that the chaos suite uses to
// force slab exhaustion, stalled controllers, and cancel/close storms
// deterministically; AuditSlots asserts the "no index may ever vanish"
// invariant after each storm, and the DoubleCompletes counter proves
// completion fired exactly once. The same hooks make the scenario tests
// event-counted instead of timed: a worker held in BeforeDispatch, a
// waiter counted into PollerParks (TestWaitScenarios runs one table
// through Poll and PollContext). The underlying queues are separately
// checked for linearizability by internal/check. DESIGN.md §8.3 maps
// each file of the package to its pipeline stage and its writers.
package realtime

import (
	"context"
	"errors"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"memif/internal/obs/lifecycle"
	"memif/internal/qos"
	"memif/internal/rbq"
)

// Errors returned by the device.
var (
	ErrClosed   = errors.New("realtime: device closed")
	ErrNoSlots  = errors.New("realtime: no free request slots")
	ErrBadSizes = errors.New("realtime: src and dst lengths differ")
	ErrCanceled = errors.New("realtime: request canceled")
	ErrDeadline = errors.New("realtime: request deadline exceeded")
)

// DefaultChunkBytes is the default split threshold and chunk size for
// large requests: big enough that per-chunk dispatch overhead is noise,
// small enough that a 1 MB request spreads across four controllers.
const DefaultChunkBytes = 256 << 10

// ChaosHooks are test-only fault-injection points threaded through the
// device's paths (installed via Options.Chaos; nil in production, where
// each site costs one pointer check). They let the verification suite
// force the failure windows that real load only samples: slab
// exhaustion at staging, stalled transfer controllers, and
// cancel/close storms landing inside the submission protocol. Hooks run
// on the device's own goroutines — a hook that blocks stalls exactly
// the path it is installed on.
type ChaosHooks struct {
	// StagingEnqueue, when it returns true, forces this request's
	// staging enqueue in Submit/SubmitBatch to report slab exhaustion.
	StagingEnqueue func(idx uint32) bool
	// BeforeDispatch runs in the worker just before a submission is
	// chunked; blocking here holds an accepted request undispatched.
	BeforeDispatch func(idx uint32)
	// BeforeChunkCopy runs in a transfer controller before a chunk's
	// bytes move; blocking here models a stalled controller.
	BeforeChunkCopy func(idx uint32, off, end int)
	// OnFinish runs after a request's terminal outcome is resolved,
	// just before its completion is posted.
	OnFinish func(idx uint32, err error)
}

// Options configures a Device.
type Options struct {
	// NumReqs is the number of request slots (default 256).
	NumReqs int
	// Controllers is the number of concurrent copy goroutines — the
	// transfer controllers of the DMA engine. Default
	// min(4, GOMAXPROCS), mirroring the EDMA3's four TCs.
	Controllers int
	// ChunkBytes splits requests larger than this into that many-byte
	// chunks dispatched to the controllers independently. 0 means
	// DefaultChunkBytes; negative disables chunking (one chunk per
	// request, the pre-chunking behavior).
	ChunkBytes int
	// TraceSampleShift tunes lifecycle sampling: one request in 2^shift
	// is stamped with fresh clock reads at every stage and attributed to
	// the per-stage latency histograms and the capture ring behind
	// Stats().Lifecycle. 0 means DefaultTraceSampleShift; negative
	// disables lifecycle sampling entirely.
	TraceSampleShift int
	// TraceFullCapture samples every request regardless of
	// TraceSampleShift — the debug mode for reconstructing a complete
	// timeline. Its overhead is measured in EXPERIMENTS.md; leave it off
	// in production and benchmarks.
	TraceFullCapture bool
	// Flight configures the always-on flight recorder: retroactive
	// outlier capture (every request's stage stamps kept, breaching
	// requests snapshotted into a bounded ring), the stall watchdog,
	// and per-class/per-tenant SLO burn rates. The zero value arms it
	// with defaults; set Flight.Disable to fall back to pure
	// 1-in-2^TraceSampleShift lifecycle sampling. The recorder is
	// independent of the sampling: every request carries stage stamps
	// while it is armed, so capture has no sampling holes even with
	// TraceSampleShift negative.
	Flight lifecycle.FlightOptions
	// Chaos installs test-only fault-injection hooks. Leave nil outside
	// the verification suite.
	Chaos *ChaosHooks
}

// DefaultTraceSampleShift is the default lifecycle sampling rate: one
// request in 2^7 = 128, cheap enough to leave on under full load (the
// overhead guard in the bench suite holds it under 3% on the 8-submitter
// small-request benchmark) while still collecting thousands of samples
// per second at realistic rates.
const DefaultTraceSampleShift = 7

// DefaultOptions mirrors the EDMA3-ish defaults.
func DefaultOptions() Options {
	return Options{NumReqs: 256, Controllers: defaultControllers(), ChunkBytes: DefaultChunkBytes}
}

func defaultControllers() int {
	n := runtime.GOMAXPROCS(0)
	if n > 4 {
		n = 4
	}
	if n < 1 {
		n = 1
	}
	return n
}

// Request lifecycle states, held in the low stateBits of Request.state.
// The remaining bits carry the owning tenant id while the request is in
// a non-terminal claimed state (pending/canceled/expired), so a cancel
// is a single CAS that atomically checks both "still pending" and
// "still mine" — the mechanism behind Tenant.CancelAll's isolation
// guarantee. stIdle and stDone are stored unpacked (tenant 0 pattern):
// an idle or completed slot is not claimable by state word alone.
const (
	stIdle     uint32 = iota // allocated, not submitted
	stPending                // submitted, not yet terminal
	stCanceled               // Cancel won the race against completion
	stExpired                // deadline observed before dispatch
	stDone                   // completion posted

	stateBits = 3
	stateMask = 1<<stateBits - 1
)

// packState builds the state word for tenant's claim on a request.
func packState(tenant, st uint32) uint32 { return tenant<<stateBits | st }

// Request is the realtime mov_req: a copy between two caller-owned byte
// slices. Populate Src, Dst and (optionally) Cookie and Deadline before
// Submit; after the completion is retrieved, Err reports the outcome and
// Latency the submission-to-completion time.
type Request struct {
	idx uint32

	Src, Dst []byte
	Cookie   uint64
	// Class is the request's priority class: admission, dispatch order
	// and shedding key off it. The zero value is ClassForeground, so
	// callers that never set it behave exactly as before classes
	// existed. Set before Submit.
	Class qos.Class
	// Deadline, when nonzero, expires the request: if the worker
	// reaches it after the deadline it completes with ErrDeadline
	// without copying.
	Deadline time.Time

	// Err is the request outcome, valid once the completion has been
	// retrieved: nil, ErrCanceled, ErrDeadline or ErrNoSlots.
	Err error

	// tenant is the owning tenant id, stamped by the Submit wrappers
	// (0 = the device's default namespace) and reset at AllocRequest.
	// Atomic so a concurrent Cancel may read it race-free.
	tenant     atomic.Uint32
	state      atomic.Uint32
	chunksLeft atomic.Int32

	// The request's stage stamps (UnixNano), the one record of where its
	// time went: stamps (below) assembles them into the seven-stage
	// vector on the retrieval path. Every stamping site writes the same
	// field whether the request is sampled or not and only chooses its
	// clock — a fresh nanotime for a sampled request, the site's
	// pass-amortized clock otherwise (0, and no store, with the flight
	// recorder disarmed).
	//
	// submitted and completed are atomic because Latency may race their
	// writers. The rest are written by whichever goroutine owns the
	// request at that stage and published by the queue handoff that
	// passes it on, so they are plain fields:
	//
	//   - stageSeq, sampled: the submitter, in stage, before the staging
	//     enqueue. stageSeq counts this slot's submissions and drives the
	//     1-in-2^shift decision slot-locally.
	//   - flushedNs: the worker, as its drain takes the request off
	//     staging, before the bucket push.
	//   - dispatchedNs, inlined: the worker, in dispatch, before any
	//     chunk push or the inline copy.
	//   - copyStartNs: parallel chunk controllers race for it (the first
	//     stamp of this life wins the CAS), so it is atomic.
	//
	// None are cleared on slot reuse. Every writer clamps its stamp up
	// to submitted (an amortized clock may predate the submission), so a
	// value below the current submitted stamp can only be a previous
	// occupant's, and the reader treats it as "stage not reached".
	// inlined is read only behind a current dispatchedNs, sampled only
	// behind a nonzero submitted.
	submitted    atomic.Int64
	completed    atomic.Int64
	stageSeq     uint64
	sampled      bool
	inlined      bool
	flushedNs    int64
	dispatchedNs int64
	copyStartNs  atomic.Int64
}

// word packs st with the request's tenant claim.
func (r *Request) word(st uint32) uint32 { return packState(r.tenant.Load(), st) }

// Index returns the request's slot index in [0, Options.NumReqs). A
// slot is exclusive from AllocRequest to FreeRequest, so the index is a
// stable identity for per-slot caller state (e.g. a preallocated
// destination buffer that can never be written by two in-flight
// requests at once).
func (r *Request) Index() int { return int(r.idx) }

// Latency returns the submission-to-completion time, measured on the
// monotonic clock the stage stamps use (on the UnixNano scale). ok is
// false — and the duration 0 — until the request has actually
// completed, so a racing reader can never observe a garbage negative
// duration.
func (r *Request) Latency() (time.Duration, bool) {
	c := r.completed.Load()
	s := r.submitted.Load()
	if s == 0 || c == 0 {
		return 0, false
	}
	return time.Duration(c - s), true
}

// Device is one realtime memif instance.
type Device struct {
	chunkBytes int // resolved: 0 disables chunking
	reqs       []*Request
	slab       *rbq.Slab

	// freeList holds the unallocated slot indices. AllocRequest pops and
	// FreeRequest pushes, from any goroutine. It is sized to NumReqs and
	// a slot is on it at most once, so a push is never refused (ring.push).
	freeList *ring[uint32]
	staging  *rbq.Queue // the red-blue staging queue; the worker drains it into the scheduler (tsched.go)
	// completions holds completed request indices. Producers are the
	// finishers (controllers + the worker's inline path); consumers are
	// RetrieveCompleted/RetrieveCompletedBatch callers, any number of
	// them. It is sized to NumReqs: a slot has at most one outstanding
	// completion — the next submission of that slot requires
	// AllocRequest, which requires the previous completion to have been
	// retrieved — so a push can never find it full.
	completions *ring[uint32]

	classLimit  [qos.NumClasses]int64 // admission occupancy thresholds (slots)
	inline      atomic.Int64          // adaptive inline-completion threshold (bytes; 0 = off)
	_           [56]byte              // inline is read per dispatch; keep finisher writes below off its line
	latEWMA     atomic.Int64          // completion-latency EWMA (ns), the retry-after hint
	_           [56]byte
	dispatchSeq uint64 // worker-only, drives retune cadence
	_           [56]byte

	tenants  atomic.Pointer[[]*tenantState] // COW tenant table; [0] = default namespace
	tenantMu sync.Mutex                     // serializes OpenTenant appends
	sched    *tenantSched                   // worker-only tenant-aware scheduler (owns aging credits)

	kick   chan struct{} // the MOV_ONE "syscall": wake the worker
	notify chan struct{} // completion edge for parked Polls
	done   chan struct{} // closed at Close: unblocks sleeping Polls

	// chunks holds the dispatched chunks. The worker is its only
	// producer; every transfer controller pops from it, so consumption
	// needs the multi-consumer protocol. It holds DefaultRingDepth
	// chunks per controller, and a full ring is where the worker backs
	// off.
	chunks *ring[chunk]
	work   chan struct{} // work-available edge for parked controllers

	// ctr holds the per-controller counter blocks; ctr[Controllers] is
	// the worker's slot for the inline-completion path. See ctrCounters.
	ctr []ctrCounters

	pollSpin bool // poller micro-wait enabled; see spinWait

	closing atomic.Bool // CloseDrain: reject new submissions
	closed  atomic.Bool
	_       [56]byte     // closing/closed are read per submit; active's RMW traffic stays off their line
	active  atomic.Int64 // Submit calls in flight; Close waits them out
	_       [56]byte
	wg      sync.WaitGroup
	m       metrics
	chaos   *ChaosHooks

	// rec is the device's recorder: sampled spans and lifecycles, and
	// (unless Options.Flight.Disable) outliers, SLOs and the watchdog.
	// With its outlier half armed, stampAll is set — every request is
	// stamped, not just the sampled ones — and the monitor goroutine
	// ticks it until frStop closes.
	rec      *lifecycle.Recorder
	stampAll bool
	frStop   chan struct{}
	frWg     sync.WaitGroup
}

// Open creates a device and starts its worker and transfer controllers.
func Open(opts Options) *Device {
	if opts.NumReqs <= 0 {
		opts.NumReqs = 256
	}
	if opts.Controllers <= 0 {
		opts.Controllers = defaultControllers()
	}
	chunkBytes := opts.ChunkBytes
	if chunkBytes == 0 {
		chunkBytes = DefaultChunkBytes
	} else if chunkBytes < 0 {
		chunkBytes = 0 // disabled
	}
	// staging alone (the free list and the completions live on MPMC
	// rings, not the slab); slack scales with the queue count since
	// every queue can sit in a transient dummy-recycling window at once.
	const numQueues = 1
	slab := rbq.NewSlabForQueues(opts.NumReqs, numQueues, 5+numQueues)
	d := &Device{
		chunkBytes:  chunkBytes,
		classLimit:  classLimits(int64(opts.NumReqs)),
		reqs:        make([]*Request, opts.NumReqs),
		slab:        slab,
		freeList:    newRing[uint32](opts.NumReqs),
		staging:     slab.NewQueue(rbq.Blue),
		completions: newRing[uint32](opts.NumReqs),
		ctr:         make([]ctrCounters, opts.Controllers+1),
		pollSpin:    runtime.GOMAXPROCS(0) > 1,
		kick:        make(chan struct{}, 1),
		notify:      make(chan struct{}, 1),
		done:        make(chan struct{}),
		chaos:       opts.Chaos,
	}
	d.inline.Store(DefaultInlineThreshold)
	tab := []*tenantState{newDefaultTenant()}
	d.tenants.Store(&tab)
	d.sched = newTenantSched(d.staging, qos.NumClasses, d.owner, d.tenantWeight, agingCredit)
	d.chunks = newRing[chunk](DefaultRingDepth * opts.Controllers)
	d.work = make(chan struct{}, opts.Controllers)
	lcShift := opts.TraceSampleShift
	if opts.TraceFullCapture {
		lcShift = 0
	} else if lcShift == 0 {
		lcShift = DefaultTraceSampleShift
	}
	d.rec = lifecycle.NewRecorder(lifecycle.Config{
		SampleShift: lcShift,
		Classes:     qos.NumClasses,
		Flight:      opts.Flight,
		WallClock:   true,
		Ambient:     d.ambient,
		Stamps:      func(slot int, nano int64) ([lifecycle.NumStages]int64, uint32) { return d.reqs[slot].stamps(nano) },
	})
	if d.stampAll = !opts.Flight.Disable; d.stampAll {
		// Retroactive capture needs stage stamps for every request, not
		// 1/128 — cheap ones: plain Request fields fed by amortized
		// clocks (the stamping sites branch on stampAll). Only the
		// sampled requests pay for fresh clock reads.
		d.frStop = make(chan struct{})
		d.frWg.Add(1)
		go d.monitor()
	}
	for i := range d.reqs {
		d.reqs[i] = &Request{idx: uint32(i)}
		d.freeList.push(uint32(i))
	}
	d.wg.Add(1 + opts.Controllers)
	go d.worker()
	for c := 0; c < opts.Controllers; c++ {
		go d.controller(c)
	}
	return d
}

// clockOrigin is the wall clock, read once; clockOriginNano is that
// instant on the UnixNano scale.
var (
	clockOrigin     = time.Now()
	clockOriginNano = clockOrigin.UnixNano()
)

// nanotime is the clock of every stage stamp and of the flight
// recorder: the wall-clock origin plus the monotonic time elapsed since
// it. One monotonic read, where time.Now().UnixNano() reads the wall
// clock as well; the stamps stay on the UnixNano scale the lifecycle
// and outlier records use, and never step with the wall clock.
func nanotime() int64 { return clockOriginNano + int64(time.Since(clockOrigin)) }

// backoff is the bounded spin-then-sleep discipline shared by every
// wait loop that must not burn a core unboundedly: yield for a while,
// then start sleeping.
func backoff(attempt int) {
	if attempt%256 == 255 {
		time.Sleep(10 * time.Microsecond)
	} else {
		runtime.Gosched()
	}
}

// Close shuts the device down and waits for the kernel-side goroutines.
// Requests already accepted are completed first (the worker drains the
// queues before exiting); a Submit racing Close may still be rejected
// with ErrClosed. Use CloseDrain for a bounded-wait shutdown that
// closes the submission window first.
func (d *Device) Close() {
	d.closing.Store(true)
	// Wait out Submit calls already past the closing check (the
	// submitter gate incremented active before that check, so with
	// sequentially consistent atomics no Submit can slip in unseen).
	// Without this, a staging enqueue could land after the worker's
	// final drain and strand the request forever — the lost-index bug
	// the chaos close-race test pins. Spin-then-sleep: a preempted
	// submitter can hold the gate for a scheduling quantum, and a
	// pure-Gosched wait would burn this core for all of it.
	for attempt := 0; d.active.Load() != 0; attempt++ {
		backoff(attempt)
	}
	if d.closed.Swap(true) {
		return
	}
	if d.frStop != nil {
		close(d.frStop)
		d.frWg.Wait()
	}
	select {
	case d.kick <- struct{}{}:
	default:
	}
	d.wg.Wait()
	close(d.done) // unblock any sleeping Poll
}

// CloseDrain rejects new submissions, waits up to timeout for every
// outstanding request to reach its completion queue, then closes the
// device. It reports whether the pipeline drained fully within the
// timeout; on false the close still proceeds (with Close's semantics).
// Thin wrapper over CloseDrainContext.
func (d *Device) CloseDrain(timeout time.Duration) bool {
	ctx, cancel := context.WithTimeout(context.Background(), timeout)
	defer cancel()
	return d.CloseDrainContext(ctx)
}

// CloseDrainContext rejects new submissions, waits until every
// outstanding request has reached its completion queue or ctx is done,
// then closes the device. It reports whether the pipeline drained fully;
// on false the close still proceeds (with Close's semantics).
func (d *Device) CloseDrainContext(ctx context.Context) bool {
	d.closing.Store(true)
	drained := true
	for d.m.completed.Load() < d.m.submitted.Load() {
		if d.closed.Load() {
			break
		}
		if ctx.Err() != nil {
			drained = false
			break
		}
		time.Sleep(50 * time.Microsecond)
	}
	d.Close()
	return drained
}
