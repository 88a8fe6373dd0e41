// Package realtime runs the memif interface protocol under real
// concurrency: actual goroutines, actual memory copies, wall-clock time.
//
// Where package core executes the full system (page tables, DMA engine,
// cost model) on the simulated KeyStone II, this package is the
// user/kernel *interface* alone — the paper's central contribution —
// deployed as a host-side asynchronous copy service:
//
//   - application goroutines submit requests through the same staging /
//     submission / completion queues, built on the same red-blue
//     lock-free queue (package rbq);
//   - the SubmitRequest flush protocol (Section 4.4) decides with one
//     atomically-observed color whether the caller must kick the worker;
//   - a worker goroutine plays the kernel thread: woken by the "syscall"
//     (a channel send), it drains the queues, splits large requests into
//     chunks, and dispatches them to a pool of transfer goroutines (the
//     DMA engine's transfer controllers), recoloring the staging queues
//     blue before sleeping;
//   - completions are posted from the transfer goroutines — the
//     interrupt path — without the application holding any lock, onto
//     min(GOMAXPROCS, Controllers) bounded MPMC completion rings (ring
//     idx % N), so concurrent finishers and concurrent pollers never
//     serialize on one queue head; a single buffered notify edge backs
//     the (rare) parked pollers, and Poll blocks exactly like poll(2)
//     on the device file — after a bounded spin-before-sleep micro-wait
//     (when a completer can run concurrently; see spinWait) so a
//     completion landing within ~1 µs costs no timer or channel round
//     trip.
//
// # Sharded staging
//
// One staging queue makes every submitter CAS the same Michael–Scott
// tail. The device therefore keeps Options.StagingShards independent
// red-blue staging queues on the shared slab, each carrying its own
// color, and pins each submitting goroutine to a shard with a cheap
// pooled token (sync.Pool is per-P, so repeat submitters from the same
// context reuse the same shard and concurrent submitters spread out).
// The Section 4.4 protocol runs per shard unchanged: a submitter that
// observes blue flushes *its* shard and kicks once; the worker drains
// shards round-robin and recolors each blue independently before
// sleeping — so the single-kick amortization argument holds shard-wise,
// and a burst over S shards costs at most S kicks rather than one per
// request.
//
// # Batched submission
//
// SubmitBatch stages a whole slice of requests and runs the flush
// protocol and the kick once for the batch — Figure 7's batching
// amortization without giving up per-request completions.
// RetrieveCompletedBatch symmetrically drains many completions in one
// call so high-rate pollers don't pay one Poll wakeup per request.
//
// # Chunked parallel transfers, rings and stealing
//
// A request larger than Options.ChunkBytes is split into per-controller
// chunks, mirroring how the EDMA3 engine spreads one scatter-gather
// program across its transfer controllers. Chunks are distributed
// round-robin over per-controller bounded lock-free rings; an idle
// controller steals from its neighbors' rings, so a large request's
// chunks flow to whichever controllers have cycles instead of queuing
// behind a busy one, and the worker only waits when every ring is full
// (whole-engine backpressure, not head-of-line blocking). A per-request
// atomic remaining-chunk counter makes the completion path (Release +
// Notify) fire exactly once, from whichever controller finishes last.
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
// (Options.Chaos, test-only hooks on the staging enqueue, the flush,
// dispatch, the chunk copy, and the completion path) that the chaos
// suite uses to force slab exhaustion, stalled controllers, and
// cancel/close storms deterministically; AuditSlots asserts the "no
// index may ever vanish" invariant after each storm, and the
// DoubleCompletes counter proves completion fired exactly once. The
// underlying queues are separately checked for linearizability by
// internal/check.
package realtime

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"memif/internal/obs"
	"memif/internal/obs/flight"
	"memif/internal/obs/lifecycle"
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
// exhaustion at the flush, stalled transfer controllers, and
// cancel/close storms landing inside the submission protocol. Hooks run
// on the device's own goroutines — a hook that blocks stalls exactly
// the path it is installed on.
type ChaosHooks struct {
	// StagingEnqueue, when it returns true, forces this request's
	// staging enqueue in Submit/SubmitBatch to report slab exhaustion.
	StagingEnqueue func(idx uint32) bool
	// FlushEnqueue, when it returns true, forces one staging→submission
	// enqueue attempt to fail as if the slab were exhausted; returning
	// true persistently exhausts the flush retry budget and drives the
	// request down the ErrNoSlots completion path.
	FlushEnqueue func(idx uint32) bool
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
	// StagingShards is the number of independent red-blue staging
	// queues submitters are spread across. 0 means min(4, GOMAXPROCS);
	// 1 reproduces the single-staging-queue behavior of the original
	// protocol (and of the paper's single shared area).
	StagingShards int
	// RingDepth is the per-controller chunk ring capacity, rounded up
	// to a power of two. 0 means DefaultRingDepth.
	RingDepth int
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
	// QoS tunes priority classes, admission control and adaptive
	// completion; the zero value applies the defaults (see QoSOptions).
	QoS QoSOptions
	// CompletionRings is the number of MPMC completion rings
	// completions are spread across (ring = slot index % N). 0 means
	// min(GOMAXPROCS, Controllers), clamped to [1, NumReqs].
	CompletionRings int
	// Flight configures the always-on flight recorder: retroactive
	// outlier capture (every request's stage stamps kept, breaching
	// requests snapshotted into a bounded ring), the stall watchdog,
	// and per-class/per-tenant SLO burn rates. The zero value arms it
	// with defaults; set Flight.Disable to fall back to pure
	// 1-in-2^TraceSampleShift lifecycle sampling. The recorder is
	// independent of the sampling: every request carries stage stamps
	// while it is armed, so capture has no sampling holes even with
	// TraceSampleShift negative.
	Flight flight.Options
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

// defaultStagingShards matches the controller default: enough shards
// that GOMAXPROCS submitters rarely share a tail, without inflating the
// worst-case kicks-per-burst (one per shard) beyond the controller
// count.
func defaultStagingShards() int { return defaultControllers() }

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
// Latency the submission-to-completion wall time.
type Request struct {
	idx uint32

	Src, Dst []byte
	Cookie   uint64
	// Class is the request's priority class: admission, dispatch order
	// and shedding key off it. The zero value is ClassForeground, so
	// callers that never set it behave exactly as before classes
	// existed. Set before Submit.
	Class Class
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
	// clock — a fresh time.Now for a sampled request, the site's
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
	//   - flushedNs: the flusher (submitter or worker), before the
	//     submission-queue enqueue.
	//   - dispatchedNs, inlined: the worker, in dispatch, before any
	//     chunk push or the inline copy.
	//   - copyStartNs: parallel chunk controllers race for it (the first
	//     stamp of this life wins the CAS), so it is atomic. stolenNs
	//     likewise: any controller that stole a chunk of a sampled
	//     request stores its pop time.
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
	stolenNs     atomic.Int64
}

// word packs st with the request's tenant claim.
func (r *Request) word(st uint32) uint32 { return packState(r.tenant.Load(), st) }

// Index returns the request's slot index in [0, Options.NumReqs). A
// slot is exclusive from AllocRequest to FreeRequest, so the index is a
// stable identity for per-slot caller state (e.g. a preallocated
// destination buffer that can never be written by two in-flight
// requests at once).
func (r *Request) Index() int { return int(r.idx) }

// Latency returns the wall-clock submission-to-completion time. ok is
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

// chunk is one unit of controller work: a byte range of one request.
// nano carries the ring-push timestamp when the request is sampled (0
// otherwise), so the consumer can attribute the dispatch-ring wait —
// and steal delay — without any per-chunk allocation.
type chunk struct {
	idx      uint32
	off, end int
	nano     int64
}

// metrics is the device's obs instrument set.
//
// False-sharing audit (PR 8): the hot counters are grouped by writer
// population — submitters, the worker, the finishers (controllers plus
// the worker's inline path), and pollers — with a cache-line pad
// between groups, so one population's RMW traffic doesn't invalidate
// another's line. Within a group the writers genuinely share the
// counter (true sharing, the price of a global count); the per-chunk
// counters that used to true-share here (chunks, bytesMoved, steals)
// moved to per-controller ctrCounters blocks instead.
type metrics struct {
	// Submitter-side: bumped on Submit/SubmitBatch/admit.
	submitted, kicks obs.Counter
	batches, shed    obs.Counter
	_                [64]byte
	// Finisher-side: bumped in finish, from whichever controller (or
	// the worker, inline) retires the request.
	completed, canceled obs.Counter
	expired, failed     obs.Counter
	overloaded          obs.Counter
	doubleCompletes     obs.Counter
	_                   [64]byte
	// Worker-side: bumped only on the dispatch goroutine.
	wakes, inlineCompleted obs.Counter
	agedPops, retunes      obs.Counter
	dispatchRetries        obs.Counter
	dispatched             obs.Counter
	_                      [64]byte
	// Poller-side: bumped in Poll/PollContext's micro-wait and on the
	// retrieval paths (the watchdog's progress probe).
	pollerSpins, pollerParks obs.Counter
	retrieved                obs.Counter
	_                        [64]byte
	// Cold or mixed-writer instruments.
	enqueueRetries obs.Counter
	classSubmitted [NumClasses]obs.Counter
	classCompleted [NumClasses]obs.Counter
	classShed      [NumClasses]obs.Counter
	classLatency   [NumClasses]obs.Histogram
	submissionHW   obs.Gauge
	sizes          obs.Histogram
	_              [64]byte
	completionHW   obs.Gauge
	latency        obs.Histogram
}

// ctrCounters is one transfer controller's private counter block,
// padded to a cache line. The old shared chunks/bytesMoved/steals
// counters were the hottest true sharing in the engine — every
// controller RMW'd the same three adjacent words once per chunk — so
// each controller (plus one extra slot for the worker's inline-copy
// path) now counts privately and Stats sums the blocks.
type ctrCounters struct {
	chunks, bytesMoved, steals atomic.Int64
	_                          [40]byte
}

// paddedCount is an atomic counter on its own cache line, for arrays
// of per-class/per-shard counters whose neighbors are written by
// different goroutine populations.
type paddedCount struct {
	n atomic.Int64
	_ [56]byte
}

// StatsSnapshot is a point-in-time view of the device counters,
// histograms, queue watermarks and sampled lifecycles. Safe to take
// from any goroutine at any time.
type StatsSnapshot struct {
	// Request outcomes. Completed counts every terminal request,
	// including the Canceled / Expired / Failed subsets.
	Submitted, Completed      int64
	Canceled, Expired, Failed int64
	// Kicks counts the kick-start syscall-equivalents; WorkerWakes the
	// times the worker actually slept and was woken (amortization means
	// Kicks can stay near 1 for a burst). Batches counts SubmitBatch
	// calls — each costs at most one kick regardless of its length.
	Kicks, WorkerWakes, Batches int64
	// PollerSpins counts Poll/PollContext calls whose bounded
	// spin-before-sleep micro-wait observed a completion without
	// parking; PollerParks counts blocking waits on the notify edge.
	PollerSpins, PollerParks int64
	// Chunks counts controller work units; BytesMoved the payload
	// actually copied (canceled chunks don't count).
	Chunks, BytesMoved int64
	// Steals counts chunks a controller popped from another
	// controller's ring; DispatchRetries counts worker backoffs with
	// every ring full.
	Steals, DispatchRetries int64
	// EnqueueRetries counts transient slab-exhaustion retries in the
	// flush path.
	EnqueueRetries int64
	// DoubleCompletes counts completion paths that found the request
	// already terminal. The protocol guarantees completion fires exactly
	// once, so any nonzero value is a bug; the chaos suite asserts it
	// stays zero.
	DoubleCompletes int64
	// Shed counts submissions the admission controller rejected with
	// ErrOverload (single submits returned the error; batch members
	// surfaced it through their completion). Overloaded is the subset
	// that surfaced as completions. Both exclude ErrNoSlots, which
	// remains a Failed outcome.
	Shed, Overloaded int64
	// InlineCompleted counts requests copied inline by the worker (the
	// adaptive poll path); InlineThresholdBytes is the current
	// self-tuned cutoff (0 = inline completion disabled); Retunes counts
	// threshold recomputations.
	InlineCompleted, InlineThresholdBytes, Retunes int64
	// AgedPops counts dispatches that served a lower class out of
	// strict-priority order via the aging credit.
	AgedPops int64
	// Classes breaks submissions down by priority class.
	Classes [NumClasses]ClassStats
	// Tenants breaks submissions down by tenant namespace, default
	// tenant (id 0) first, then OpenTenant order.
	Tenants []TenantStats
	// Queue-depth high watermarks, from rbq's atomic Size.
	SubmissionHighWater, CompletionHighWater int64
	// Live queue depths sampled at Stats time (the watermark fields
	// above carry the maxima): per-shard staging, submission,
	// completion, and per-controller dispatch-ring occupancy.
	// CompletionDepth sums the per-ring occupancies in
	// CompletionDepths (one entry per completion ring).
	StagingDepths                    []int64
	SubmissionDepth, CompletionDepth int64
	CompletionDepths                 []int64
	RingDepths                       []int64
	// Latency is the submission-to-completion histogram (ns); Sizes the
	// request payload histogram (bytes).
	Latency, Sizes obs.HistogramSnapshot
	// Lifecycle is the sampled-lifecycle snapshot: per-stage latency
	// histograms (staging wait, dispatch wait, ring wait, steal delay,
	// copy, completion dwell) and the last captured complete lifecycles.
	// Enabled is false when Options.TraceSampleShift < 0.
	Lifecycle lifecycle.Snapshot
	// Flight is the flight-recorder snapshot: captured outliers and
	// stall reports, adaptive per-lane thresholds, and SLO burn rates.
	// Flight.Enabled is false when Options.Flight.Disable is set.
	Flight flight.Snapshot
}

// ClassStats is one priority class's slice of the device counters.
type ClassStats struct {
	// Submitted counts accepted submissions at this class; Completed
	// the terminal ones; Shed the admission rejections (never accepted,
	// except batch members, which also complete with ErrOverload).
	Submitted, Completed, Shed int64
	// InFlight is the live accepted-but-not-terminal count.
	InFlight int64
	// QueueDepth is the class's submission-queue depth at Stats time.
	QueueDepth int64
	// Latency is the submission-to-completion histogram (ns) of this
	// class alone.
	Latency obs.HistogramSnapshot
}

// submitterToken pins a submitting goroutine to one staging shard.
// Tokens live in a sync.Pool, whose per-P caches make the pin cheap and
// naturally aligned with the scheduler: a goroutine that keeps
// submitting from the same P keeps hitting the same shard, and
// goroutines on different Ps land on different shards.
type submitterToken struct{ shard uint32 }

// Device is one realtime memif instance.
type Device struct {
	opts       Options
	chunkBytes int // resolved: 0 disables chunking
	qos        QoSOptions
	reqs       []*Request
	slab       *rbq.Slab

	freeList   *rbq.Queue
	staging    []*rbq.Queue           // per-shard red-blue staging queues
	submission [NumClasses]*rbq.Queue // per-class, popped in priority order
	// compRings hold completed request indices. The device keeps
	// min(GOMAXPROCS, Controllers) of them and routes each completion to
	// ring idx % N, so finishers on different controllers publish to
	// different rings and concurrent pollers never serialize on one
	// Michael–Scott head the way the old single completion queue forced
	// them to. Producers are the finishers (controllers + the worker's
	// inline path); consumers are RetrieveCompleted/RetrieveCompletedBatch
	// callers, any number of them. Each ring is sized for every slot
	// index mapped to it (ceil(NumReqs/N) rounded up to a power of two):
	// a slot has at most one outstanding completion — the next
	// submission of that slot requires AllocRequest, which requires the
	// previous completion to have been retrieved — so a correctly sized
	// ring can never refuse a push.
	compRings []*ring[uint32]

	classLimit [NumClasses]int64 // admission occupancy thresholds (slots)
	// classInFlight is written by submitters (accept) and finishers
	// (finish) at once; each class sits on its own line so foreground
	// accounting traffic doesn't drag the scavenger counter's line
	// around (and vice versa).
	classInFlight [NumClasses]paddedCount
	inline        atomic.Int64 // adaptive inline-completion threshold (bytes; 0 = off)
	_             [56]byte     // inline is read per dispatch; keep finisher writes below off its line
	latEWMA       atomic.Int64 // completion-latency EWMA (ns), the retry-after hint
	_             [56]byte
	dispatchSeq   uint64 // worker-only, drives retune cadence
	nextRing      int    // worker-only round-robin cursor over rings
	_             [48]byte

	tenants  atomic.Pointer[[]*tenantState] // COW tenant table; [0] = default namespace
	tenantMu sync.Mutex                     // serializes OpenTenant appends
	sched    *tenantSched                   // worker-only tenant-aware scheduler (owns aging credits)

	tokens   sync.Pool     // *submitterToken: shard affinity for submitters
	tokenSeq atomic.Uint32 // round-robin shard assignment for new tokens

	pollTokens sync.Pool     // *pollerToken: preferred completion ring per poller
	pollSeq    atomic.Uint32 // round-robin ring assignment for new poller tokens

	kick   chan struct{} // the MOV_ONE "syscall": wake the worker
	notify chan struct{} // completion edge for parked Polls
	done   chan struct{} // closed at Close: unblocks sleeping Polls

	// rings hold each transfer controller's pending chunks. The worker
	// is the only producer in practice, but consumption is genuinely
	// multi-consumer: the owning controller pops from its ring and idle
	// controllers steal from it, so the full MPMC protocol is kept.
	rings []*ring[chunk]
	work  chan struct{} // work-available edge for parked controllers

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
	lc      *lifecycle.Collector // nil when lifecycle sampling is disabled
	chaos   *ChaosHooks

	// Flight recorder (nil fields when Options.Flight.Disable). The
	// monitor goroutine (flight.go) ticks it and the stall watchdog,
	// and exits when frStop closes.
	fr     *flight.Recorder
	frStop chan struct{}
	frWg   sync.WaitGroup
	// frArmed mirrors fr != nil as a plain bool the stamping sites
	// branch on: with the recorder armed they keep a pass-amortized
	// clock, so every unsampled request carries stage stamps too.
	frArmed bool
	compCap int64 // summed completion-ring capacity (watchdog high water)
}

// pollerToken pins a polling goroutine to a preferred completion ring —
// the local-first bias: each retrieval scans all rings round-robin but
// starts at its own, so concurrent pollers drain different rings
// instead of racing CAS-for-CAS on ring 0.
type pollerToken struct{ ring uint32 }

// Open creates a device and starts its worker and transfer controllers.
func Open(opts Options) *Device {
	if opts.NumReqs <= 0 {
		opts.NumReqs = 256
	}
	if opts.Controllers <= 0 {
		opts.Controllers = defaultControllers()
	}
	if opts.StagingShards <= 0 {
		opts.StagingShards = defaultStagingShards()
	}
	if opts.RingDepth <= 0 {
		opts.RingDepth = DefaultRingDepth
	}
	chunkBytes := opts.ChunkBytes
	if chunkBytes == 0 {
		chunkBytes = DefaultChunkBytes
	} else if chunkBytes < 0 {
		chunkBytes = 0 // disabled
	}
	nCompRings := opts.CompletionRings
	if nCompRings <= 0 {
		nCompRings = runtime.GOMAXPROCS(0)
		if nCompRings > opts.Controllers {
			nCompRings = opts.Controllers
		}
	}
	if nCompRings < 1 {
		nCompRings = 1
	}
	if nCompRings > opts.NumReqs {
		nCompRings = opts.NumReqs
	}
	opts.CompletionRings = nCompRings
	qos := resolveQoS(opts.QoS)
	// free + one submission queue per class + one dummy per staging
	// shard (completions live on the MPMC rings, not the slab); slack
	// scales with the queue count since every queue can sit in a
	// transient dummy-recycling window at once.
	shards := opts.StagingShards
	numQueues := 1 + NumClasses + shards
	slab := rbq.NewSlabForQueues(opts.NumReqs, numQueues, 5+numQueues)
	d := &Device{
		opts:       opts,
		chunkBytes: chunkBytes,
		qos:        qos,
		reqs:       make([]*Request, opts.NumReqs),
		slab:       slab,
		freeList:   slab.NewQueue(rbq.Blue),
		staging:    make([]*rbq.Queue, shards),
		compRings:  make([]*ring[uint32], nCompRings),
		ctr:        make([]ctrCounters, opts.Controllers+1),
		pollSpin:   runtime.GOMAXPROCS(0) > 1,
		kick:       make(chan struct{}, 1),
		notify:     make(chan struct{}, 1),
		done:       make(chan struct{}),
		chaos:      opts.Chaos,
	}
	// Size each ring for every slot mapped to it, so a push can never
	// find it full (a slot has at most one outstanding completion).
	perRing := (opts.NumReqs + nCompRings - 1) / nCompRings
	for i := range d.compRings {
		d.compRings[i] = newRing[uint32](perRing)
	}
	d.compCap = int64(perRing) * int64(nCompRings)
	for c := range d.submission {
		d.submission[c] = slab.NewQueue(rbq.Blue)
	}
	for c, share := range qos.ClassShares {
		limit := int64(share * float64(opts.NumReqs))
		if share >= 1 || limit > int64(opts.NumReqs) {
			limit = int64(opts.NumReqs)
		}
		if limit < 1 {
			limit = 1
		}
		d.classLimit[c] = limit
	}
	d.inline.Store(int64(qos.InlineThreshold))
	tab := []*tenantState{newDefaultTenant()}
	d.tenants.Store(&tab)
	d.sched = newTenantSched(d.submission[:],
		func(idx uint32) uint32 { return d.reqs[idx].tenant.Load() },
		d.tenantWeight, int64(qos.AgingCredit))
	for i := range d.staging {
		d.staging[i] = slab.NewQueue(rbq.Blue)
	}
	d.tokens.New = func() any {
		return &submitterToken{shard: d.tokenSeq.Add(1) % uint32(shards)}
	}
	d.pollTokens.New = func() any {
		return &pollerToken{ring: d.pollSeq.Add(1) % uint32(nCompRings)}
	}
	d.rings = make([]*ring[chunk], opts.Controllers)
	for i := range d.rings {
		d.rings[i] = newRing[chunk](opts.RingDepth)
	}
	d.work = make(chan struct{}, opts.Controllers)
	lcShift := opts.TraceSampleShift
	if opts.TraceFullCapture {
		lcShift = 0
	} else if lcShift == 0 {
		lcShift = DefaultTraceSampleShift
	}
	d.lc = lifecycle.NewCollector(lcShift, NumClasses)
	if d.fr = flight.New(opts.Flight, true); d.fr != nil {
		// Retroactive capture needs stage stamps for every request, not
		// 1/128 — cheap ones: plain Request fields fed by amortized
		// clocks. Only the sampled requests pay for fresh clock reads.
		d.frArmed = true
		d.frStop = make(chan struct{})
		d.frWg.Add(1)
		go d.monitor()
	}
	for i := range d.reqs {
		d.reqs[i] = &Request{idx: uint32(i)}
		if _, ok := d.freeList.Enqueue(uint32(i)); !ok {
			panic("realtime: slab sized too small")
		}
	}
	d.wg.Add(1 + opts.Controllers)
	go d.worker()
	for c := 0; c < opts.Controllers; c++ {
		go d.controller(c)
	}
	return d
}

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

// req validates an index off a queue.
func (d *Device) req(idx uint32) (*Request, bool) {
	if int(idx) >= len(d.reqs) {
		return nil, false
	}
	return d.reqs[idx], true
}

// AllocRequest takes a request slot off the free list; nil when
// exhausted.
func (d *Device) AllocRequest() *Request {
	idx, _, ok := d.freeList.Dequeue()
	if !ok {
		return nil
	}
	r := d.reqs[idx]
	r.Src, r.Dst, r.Cookie, r.Err = nil, nil, 0, nil
	r.Class = ClassForeground
	r.Deadline = time.Time{}
	r.tenant.Store(0)
	r.state.Store(stIdle)
	r.submitted.Store(0)
	r.completed.Store(0)
	return r
}

// FreeRequest returns a slot to the free list.
func (d *Device) FreeRequest(r *Request) {
	d.mustEnqueue(d.freeList, r.idx)
}

// lcOutcome classifies a retrieved request's error for the lifecycle
// and the outlier record.
func lcOutcome(err error) lifecycle.Outcome {
	switch {
	case err == nil:
		return lifecycle.OutcomeOK
	case errors.Is(err, ErrCanceled):
		return lifecycle.OutcomeCanceled
	case errors.Is(err, ErrDeadline):
		return lifecycle.OutcomeExpired
	default:
		return lifecycle.OutcomeFailed
	}
}

// stamps assembles r's seven-stage vector and path flags from its stamp
// fields, on the retrieval path, ending at retrieved (no earlier than
// its completed stamp). A field below the submitted stamp was last
// written for the slot's previous occupant: this request never reached
// that stage (it failed at the flush, or was canceled before any chunk
// ran) and the stage stays 0. A stage that was reached is clamped up to
// the stage before it, because an amortized clock can lag a fresher
// upstream stamp by microseconds. An inline request's copy began at its
// dispatch stamp — the worker copied right there and wrote no
// copy-start of its own. CopyEnd has no field: the finisher's one clock
// read is both the end of the last chunk and the completion.
func (r *Request) stamps(retrieved int64) (ts [lifecycle.NumStages]int64, flags uint32) {
	sub := r.submitted.Load()
	last := sub
	at := func(v int64) int64 {
		if v < sub {
			return 0
		}
		if v < last {
			v = last
		}
		last = v
		return v
	}
	fl := at(r.flushedNs)
	disp := at(r.dispatchedNs)
	cs := r.copyStartNs.Load()
	if disp != 0 && r.inlined {
		cs, flags = disp, lifecycle.FlagInline
	}
	cs = at(cs)
	comp := at(r.completed.Load())
	var ce int64
	if cs != 0 {
		ce = comp
	}
	if r.stolenNs.Load() >= sub {
		flags |= lifecycle.FlagStolen
	}
	return lifecycle.Stamps(sub, fl, disp, cs, ce, comp, retrieved), flags
}

// lcEnd closes r's lifecycle on the retrieval path. With the flight
// recorder armed, the completed latency runs the breach check through
// the caller's batch accumulator (which also trains the lane EWMA and
// SLO counters, folded once per batch by acc.Flush) — for every
// retrieved request, so capture has no sampling holes. Only a breach or
// a sampled request builds the one captured record: a sampled request
// hands it to the collector, which derives the global, per-class and
// per-tenant stage spans from it and keeps it in the sampled ring; a
// breach adds the ambient congestion picture and pushes the same record
// into the outlier ring.
//
// nano is the caller's batch-amortized retrieve timestamp (0 = read the
// clock here); a sampled request reads a fresh one regardless. The
// shared clock can predate a completion that landed while the batch was
// being drained, hence the clamp.
func (d *Device) lcEnd(r *Request, nano int64, acc *flight.Acc) {
	sub := r.submitted.Load()
	if sub == 0 {
		// Shed before staging (admission or slot exhaustion): there is
		// no pipeline latency to attribute, nano-sub would read as an
		// epoch-sized breach, and r.sampled is a previous occupant's.
		return
	}
	if !r.sampled && d.fr == nil {
		return
	}
	if r.sampled || nano == 0 {
		nano = time.Now().UnixNano()
	}
	if comp := r.completed.Load(); nano < comp {
		nano = comp
	}
	lat := nano - sub
	tenant := int(r.tenant.Load())
	thr, breach := acc.Observe(int(r.Class), tenant, lat, r.Err == nil)
	if !breach && !r.sampled {
		return
	}
	lc := lifecycle.Lifecycle{
		Nano:        nano,
		Slot:        int(r.idx),
		Class:       int(r.Class),
		Tenant:      tenant,
		Bytes:       int64(len(r.Src)),
		Outcome:     lcOutcome(r.Err),
		LatencyNs:   lat,
		ThresholdNs: thr,
	}
	lc.TS, lc.Flags = r.stamps(nano)
	if r.sampled {
		d.lc.Collect(&lc, &d.tenantOf(r).spans)
	}
	if breach {
		lc.Ambient = d.ambient()
		d.fr.Capture(&lc)
	}
}

// wake posts the (single-token) completion edge for parked Polls.
func (d *Device) wake() {
	select {
	case d.notify <- struct{}{}:
	default:
	}
}

// pushCompletion posts one completed request index onto its completion
// ring. The rings are sized so the push cannot fail (one outstanding
// completion per slot, every slot's ring fits all of its slots); the
// backoff loop is defense in depth, not a code path.
func (d *Device) pushCompletion(idx uint32) {
	cr := d.compRings[int(idx)%len(d.compRings)]
	for attempt := 0; !cr.tryPush(idx); attempt++ {
		backoff(attempt)
	}
}

// popCompletion scans the completion rings round-robin from start and
// pops the first pending completion it finds.
func (d *Device) popCompletion(start int) (uint32, bool) {
	n := len(d.compRings)
	for i := 0; i < n; i++ {
		if idx, ok := d.compRings[(start+i)%n].tryPop(); ok {
			return idx, true
		}
	}
	return 0, false
}

// pollerRing picks the calling goroutine's preferred starting ring for
// the local-first drain bias. sync.Pool's per-P caches keep a repeat
// poller on the same ring and spread concurrent pollers out, exactly
// like the submitter shard tokens.
func (d *Device) pollerRing() int {
	if len(d.compRings) == 1 {
		return 0
	}
	t := d.pollTokens.Get().(*pollerToken)
	ring := int(t.ring)
	d.pollTokens.Put(t)
	return ring
}

// completionEmpty reports whether every completion ring is empty (racy
// snapshot, same contract the old single queue's Empty had).
func (d *Device) completionEmpty() bool {
	for _, cr := range d.compRings {
		if !cr.empty() {
			return false
		}
	}
	return true
}

// completionDepth sums the per-ring occupancies.
func (d *Device) completionDepth() int64 {
	var n int64
	for _, cr := range d.compRings {
		n += cr.size()
	}
	return n
}

// flushRetries bounds the transient-slab-exhaustion retry loop in the
// staging→submission flush. Exhaustion there is always transient — every
// request index occupies at most one queue node, and the slab carries
// slack beyond NumReqs — so a handful of yields is enough unless the
// slab is being starved externally.
const flushRetries = 64

// enqueueSubmission moves one request index onto its class's submission
// queue, retrying briefly across transient slab exhaustion. false means
// the retry budget ran out and the caller must fail the request rather
// than drop it. nano is the caller's flush-pass clock for the flushed
// stamp (0 with the flight recorder disarmed): flush loops read the
// clock once per pass instead of once per request, and only a sampled
// request reads its own.
func (d *Device) enqueueSubmission(idx uint32, nano int64) bool {
	class := ClassForeground
	var ts *tenantState
	r, valid := d.req(idx)
	if valid {
		class = r.Class
		ts = d.tenantOf(r)
		if r.sampled {
			nano = time.Now().UnixNano()
		}
		if nano != 0 {
			// Plain field: written before the enqueue publishes idx, so
			// the retrieval-side reader is ordered behind it.
			r.flushedNs = max(nano, r.submitted.Load())
		}
	}
	q := d.submission[class]
	for attempt := 0; ; attempt++ {
		forced := d.chaos != nil && d.chaos.FlushEnqueue != nil && d.chaos.FlushEnqueue(idx)
		if !forced {
			if _, ok := q.Enqueue(idx); ok {
				if ts != nil {
					ts.queued.Add(1) // popSubmission decrements at dispatch
				}
				d.m.submissionHW.Observe(d.submissionDepth())
				return true
			}
		}
		if attempt >= flushRetries {
			if valid {
				r.flushedNs = 0 // never flushed: the caller fails it from here
			}
			return false
		}
		d.m.enqueueRetries.Inc()
		runtime.Gosched()
	}
}

// submissionDepth sums the per-class submission queue depths.
func (d *Device) submissionDepth() int64 {
	var n int64
	for _, q := range d.submission {
		n += int64(q.Size())
	}
	return n
}

// mustEnqueue retries until the enqueue succeeds. Used on the
// completion and free paths, where losing the index would leak the slot
// forever; progress is guaranteed because the consumer of those queues
// frees a node per dequeue.
func (d *Device) mustEnqueue(q *rbq.Queue, idx uint32) {
	for attempt := 0; ; attempt++ {
		if _, ok := q.Enqueue(idx); ok {
			return
		}
		d.m.enqueueRetries.Inc()
		backoff(attempt)
	}
}

// finish completes r exactly once: it resolves the terminal state,
// stamps the completion time, posts the completion (Release) and wakes
// a poller (Notify). forced supplies the outcome for requests failing
// off-protocol (the slab-exhaustion path) — but a cancel or deadline
// that already claimed the request wins over it, because Cancel's
// contract ("will complete with ErrCanceled") must hold no matter which
// path posts the completion.
func (d *Device) finish(r *Request, forced error) {
	old := r.state.Swap(stDone) & stateMask
	if old == stDone {
		// Completion already fired. This must never happen; count it
		// (the chaos suite asserts zero) and bail out rather than
		// posting the index to the completion queue twice.
		d.m.doubleCompletes.Inc()
		return
	}
	err := forced
	switch old {
	case stCanceled:
		err = ErrCanceled
	case stExpired:
		err = ErrDeadline
	}
	r.Err = err
	now := time.Now().UnixNano()
	r.completed.Store(now)
	ts := d.tenantOf(r)
	if s := r.submitted.Load(); s > 0 {
		lat := now - s
		d.m.latency.Observe(lat)
		d.m.classLatency[r.Class].Observe(lat)
		ts.latency.Observe(lat)
		d.observeLatEWMA(lat)
	}
	switch {
	case err == nil:
	case errors.Is(err, ErrCanceled):
		d.m.canceled.Inc()
		ts.canceled.Inc()
	case errors.Is(err, ErrDeadline):
		d.m.expired.Inc()
	case errors.Is(err, ErrOverload):
		d.m.overloaded.Inc()
	default:
		d.m.failed.Inc()
	}
	d.m.completed.Inc()
	d.m.classCompleted[r.Class].Inc()
	d.classInFlight[r.Class].n.Add(-1)
	ts.completed.Inc()
	ts.inFlight.Add(-1)
	if d.chaos != nil && d.chaos.OnFinish != nil {
		d.chaos.OnFinish(r.idx, err)
	}
	d.pushCompletion(r.idx)
	d.m.completionHW.Observe(d.completionDepth())
	d.wake()
}

// shard picks the submitting goroutine's staging queue.
func (d *Device) shard() *rbq.Queue {
	if len(d.staging) == 1 {
		return d.staging[0]
	}
	t := d.tokens.Get().(*submitterToken)
	sh := d.staging[t.shard]
	d.tokens.Put(t)
	return sh
}

// stage marks r pending and enqueues it on sh, returning the color
// observed atomically with the enqueue. ok is false on slab exhaustion
// (or a forced chaos failure), with r left stPending for the caller to
// resolve. It also takes the submitted stamp and makes the request's
// sampling decision, slot-locally: both are published to every later
// stamping site by the staging enqueue.
func (d *Device) stage(sh *rbq.Queue, r *Request) (rbq.Color, bool) {
	r.submitted.Store(time.Now().UnixNano())
	r.stageSeq++
	r.sampled = d.lc.Sample(r.stageSeq)
	r.state.Store(r.word(stPending))
	if d.chaos != nil && d.chaos.StagingEnqueue != nil && d.chaos.StagingEnqueue(r.idx) {
		return 0, false // forced slab exhaustion
	}
	// Once enqueued the slot is the pipeline's: it can complete, be freed
	// and be resubmitted by another tenant before this call returns, so
	// whatever is accounted after the enqueue is read before it.
	class, ts, size := r.Class, d.tenantOf(r), int64(len(r.Src))
	color, ok := sh.Enqueue(r.idx)
	if !ok {
		return 0, false
	}
	d.accept(class, ts)
	d.m.sizes.Observe(size)
	return color, true
}

// accept does the accepted-submission accounting: the global, per-class
// and per-tenant submitted counters plus the class and tenant in-flight
// tokens, which finish releases. Every path that will eventually reach
// finish must come through here exactly once, with the class and tenant
// read while the caller still owns the request.
func (d *Device) accept(class Class, ts *tenantState) {
	d.m.submitted.Inc()
	d.m.classSubmitted[class].Inc()
	d.classInFlight[class].n.Add(1)
	ts.submitted.Inc()
	ts.inFlight.Add(1)
}

// unstage resolves a failed staging enqueue: return r to idle, unless a
// concurrent Cancel claimed the request inside the submission window
// and promised the caller an ErrCanceled completion — then honor it
// rather than silently un-submitting (the cancel-vs-failed-submit race
// the chaos suite pins). Reports whether a completion was posted.
func (d *Device) unstage(r *Request) bool {
	if !r.state.CompareAndSwap(r.word(stPending), stIdle) {
		d.accept(r.Class, d.tenantOf(r))
		d.finish(r, nil)
		return true
	}
	// The request never entered the pipeline: the caller gets the error
	// back and keeps the slot, so a sampled lifecycle ends here.
	if r.sampled {
		d.lc.Drop()
	}
	return false
}

// flushShard runs the blue-side of the Section 4.4 protocol on one
// shard: drain it into the submission queue, recolor it red, and kick
// the worker if nobody else already has.
func (d *Device) flushShard(sh *rbq.Queue) {
	// One clock read covers the flushed stamp of every unsampled request
	// in this drain.
	var flushNano int64
	if d.frArmed {
		flushNano = time.Now().UnixNano()
	}
flush:
	for {
		idx, _, ok := sh.Dequeue()
		if !ok {
			break
		}
		if !d.enqueueSubmission(idx, flushNano) {
			// The slot must not vanish: complete it with an error so
			// the owner gets it back through the normal path.
			if fr, valid := d.req(idx); valid {
				d.finish(fr, ErrNoSlots)
			}
		}
	}
	old, ok := sh.SetColor(rbq.Red)
	if !ok {
		goto flush
	}
	if old == rbq.Red {
		return
	}
	// The kick-start "syscall".
	d.m.kicks.Inc()
	select {
	case d.kick <- struct{}{}:
	default: // worker already has a pending kick
	}
}

// Submit queues an asynchronous copy of r.Src into r.Dst, implementing
// the Section 4.4 protocol on the submitter's staging shard. It never
// blocks beyond the bounded flush. The request is submitted under the
// device's default tenant namespace; use Tenant.Submit for tenant
// quotas, weights and attribution.
func (d *Device) Submit(r *Request) error {
	r.tenant.Store(0)
	return d.submit(r)
}

// submit is the tenant-agnostic Submit body: r.tenant is already
// stamped by the caller-facing wrapper.
func (d *Device) submit(r *Request) error {
	// Submitter gate: the increment precedes the closing check, so
	// Close's active-wait cannot complete while this call is between
	// the check and its staging enqueue.
	d.active.Add(1)
	defer d.active.Add(-1)
	if d.closing.Load() || d.closed.Load() {
		return ErrClosed
	}
	if len(r.Src) != len(r.Dst) {
		return fmt.Errorf("%w: %d vs %d", ErrBadSizes, len(r.Src), len(r.Dst))
	}
	if err := d.admit(r); err != nil {
		return err
	}
	sh := d.shard()
	color, ok := d.stage(sh, r)
	if !ok {
		if d.unstage(r) {
			return nil
		}
		return ErrNoSlots
	}
	if color == rbq.Blue {
		d.flushShard(sh)
	}
	return nil
}

// Cancel attempts to cancel a submitted request. It reports whether the
// cancel won: true means the request will complete with ErrCanceled and
// no further bytes will be copied (chunks already moved leave Dst
// partially written). false means the request had already completed —
// or was never pending — and its result stands.
func (d *Device) Cancel(r *Request) bool {
	// One tenant load builds both sides of the CAS: the claim can only
	// succeed against the pending word of that same owner, so the
	// written canceled word always carries a consistent tenant id.
	ten := r.tenant.Load()
	return r.state.CompareAndSwap(packState(ten, stPending), packState(ten, stCanceled))
}

// workerClockEvery bounds how many unsampled stage stamps reuse one
// worker/controller clock read: staleness stays under ~16 op-times
// (microseconds) while the per-request clock cost drops to ~1/16 of a
// time.Now (which at ~60ns would alone consume the recorder's whole
// overhead budget).
const workerClockEvery = 16

// worker is the kernel thread: drain the staging shards, chunk and
// dispatch submissions to the controllers, then recolor the shards blue
// and sleep.
func (d *Device) worker() {
	defer func() {
		close(d.work) // controllers drain their rings and exit
		d.wg.Done()
	}()
	// wNano is the worker's amortized clock for the flushed and
	// dispatched stamps of unsampled requests, kept only with the flight
	// recorder armed: refreshed at least every workerClockEvery stamps,
	// never per request. The stamps it feeds only ever surface in breach
	// records, where millisecond latencies dwarf the microseconds of
	// staleness; the sampled 1/2^shift requests read fresh clocks.
	var wNano int64
	sinceClock := 0
	for {
		// Drain every shard round-robin: one element per shard per
		// pass, so no shard starves behind a full neighbor. Flushed
		// stamps share the worker's amortized clock — under load a
		// pass often moves a single element before the next dispatch,
		// so a per-pass read would degenerate to per-request.
		for {
			moved := false
			var drainNano int64
			for _, sh := range d.staging {
				idx, _, ok := sh.Dequeue()
				if !ok {
					continue
				}
				moved = true
				if d.frArmed {
					if sinceClock >= workerClockEvery || wNano == 0 {
						wNano, sinceClock = time.Now().UnixNano(), 0
					}
					sinceClock++
					drainNano = wNano
				}
				if !d.enqueueSubmission(idx, drainNano) {
					if r, valid := d.req(idx); valid {
						d.finish(r, ErrNoSlots)
					}
				}
			}
			if !moved {
				break
			}
		}
		if idx, ok := d.popSubmission(); ok {
			if d.frArmed {
				if sinceClock >= workerClockEvery || wNano == 0 {
					wNano, sinceClock = time.Now().UnixNano(), 0
				}
				sinceClock++
			}
			d.dispatch(idx, wNano)
			continue
		}
		// Before sleeping, recolor each shard blue independently; a
		// shard that refilled under us refuses the recolor and sends
		// the worker around again. This is the Section 4.4 invariant
		// per shard: after the worker sleeps, every shard is blue, so
		// the first submitter to any shard kicks exactly once.
		refilled := false
		for _, sh := range d.staging {
			if _, ok := sh.SetColor(rbq.Blue); !ok {
				refilled = true
			}
		}
		if refilled {
			continue
		}
		if d.closed.Load() {
			// Drain anything that slipped in before the close.
			pending := false
			for _, q := range d.submission {
				if !q.Empty() {
					pending = true
				}
			}
			for _, sh := range d.staging {
				if !sh.Empty() {
					pending = true
				}
			}
			if pending {
				for _, sh := range d.staging {
					sh.SetColor(rbq.Red)
				}
				continue
			}
			return
		}
		<-d.kick
		d.m.wakes.Inc()
	}
}

// dispatch splits one request into chunks and feeds the controllers —
// or, when the request is small enough for the adaptive inline
// threshold, copies it right here on the worker (the poll path: no ring
// push, no controller wakeup, no notify hop for the copy itself).
func (d *Device) dispatch(idx uint32, wNano int64) {
	r, ok := d.req(idx)
	if !ok {
		return
	}
	d.maybeRetune()
	d.m.dispatched.Inc()
	if d.chaos != nil && d.chaos.BeforeDispatch != nil {
		d.chaos.BeforeDispatch(idx)
	}
	// The dispatched stamp: a fresh clock for a sampled request (it also
	// serves as every chunk's ring-push stamp below), the worker's
	// amortized one otherwise. Plain fields, written before any handoff
	// publishes idx onward; inlined is set on the inline path below.
	stamp := wNano
	if r.sampled {
		stamp = time.Now().UnixNano()
	}
	if stamp != 0 {
		r.dispatchedNs = max(stamp, r.submitted.Load())
		r.inlined = false
	}
	// Observe cancellation and deadline before any byte moves.
	if !r.Deadline.IsZero() && time.Now().After(r.Deadline) {
		r.state.CompareAndSwap(r.word(stPending), r.word(stExpired))
	}
	if st := r.state.Load() & stateMask; st == stCanceled || st == stExpired {
		d.finish(r, nil)
		return
	}
	n := len(r.Src)
	nChunks := 1
	if d.chunkBytes > 0 && n > d.chunkBytes {
		nChunks = (n + d.chunkBytes - 1) / d.chunkBytes
	}
	r.chunksLeft.Store(int32(nChunks))
	// Adaptive completion, the paper's Section 5 poll/interrupt split:
	// a single-chunk request at or below the inline threshold is copied
	// by the worker itself. runChunk keeps every invariant (cancel
	// check, chunk countdown, exactly-once finish); only the transport
	// changes.
	if nChunks == 1 {
		if th := d.inline.Load(); th > 0 && int64(n) <= th {
			d.m.inlineCompleted.Inc()
			// The copy starts right here on the worker, so the dispatched
			// stamp is also the exact copy-start: no second stamp, just
			// the mark that makes a slow inline request legible as one.
			r.inlined = true
			d.runChunk(chunk{idx: idx, off: 0, end: n}, len(d.ctr)-1, false, 0)
			return
		}
	}
	// One ring-push stamp serves every chunk of a sampled request: the
	// pushes below are a tight loop, and the per-chunk ring wait is
	// measured against it on the consumer side (zero = unsampled —
	// deliberately 1/2^shift even with the flight recorder armed, so
	// controllers don't pay a clock read plus a histogram push per
	// chunk for every request; breach forensics needs stage stamps, not
	// ring-wait spans).
	var pushNano int64
	if r.sampled {
		pushNano = stamp
	}
	for i := 0; i < nChunks; i++ {
		c := chunk{idx: idx, off: 0, end: n, nano: pushNano}
		if nChunks > 1 {
			c.off = i * d.chunkBytes
			c.end = c.off + d.chunkBytes
			if c.end > n {
				c.end = n
			}
		}
		d.pushChunk(c)
	}
}

// pushChunk places one chunk on a controller ring, round-robin from the
// ring after the last one used, skipping full rings. Only when every
// ring is full does the worker back off — backpressure when the whole
// copy engine is saturated, never because one controller is slow (its
// backlog is steal-able by the others).
func (d *Device) pushChunk(c chunk) {
	n := len(d.rings)
	for attempt := 0; ; attempt++ {
		for i := 0; i < n; i++ {
			ri := (d.nextRing + i) % n
			if d.rings[ri].tryPush(c) {
				d.nextRing = (ri + 1) % n
				select {
				case d.work <- struct{}{}:
				default: // enough wake tokens buffered to rouse everyone
				}
				return
			}
		}
		d.m.dispatchRetries.Inc()
		backoff(attempt)
	}
}

// controller is transfer controller id: it pops chunks from its own
// ring, steals from its neighbors' rings when its own runs dry, and
// whichever controller retires a request's last chunk runs the
// completion path (the interrupt handler's Release+Notify).
func (d *Device) controller(id int) {
	defer d.wg.Done()
	own := d.rings[id]
	n := len(d.rings)
	spins := 0
	// csNano is this controller's amortized clock for the copy-start
	// stamps of unsampled requests, refreshed every workerClockEvery
	// chunks (see wNano in the worker for the staleness argument).
	var csNano int64
	sinceClock := 0
	for {
		c, ok := own.tryPop()
		stolen := false
		if !ok {
			for i := 1; i < n && !ok; i++ {
				if c, ok = d.rings[(id+i)%n].tryPop(); ok {
					d.ctr[id].steals.Add(1)
					stolen = true
				}
			}
		}
		if ok {
			spins = 0
			if d.frArmed {
				if sinceClock >= workerClockEvery || csNano == 0 {
					csNano, sinceClock = time.Now().UnixNano(), 0
				}
				sinceClock++
			}
			d.runChunk(c, id, stolen, csNano)
			continue
		}
		// Nothing anywhere: spin briefly (work often lands within a
		// few scheduler quanta under load), then park on the work edge.
		// The check-empty-then-park order plus the buffered channel
		// makes the park lossless: a chunk pushed after our scan left
		// its wake token in the buffer for us.
		if spins < 8 {
			spins++
			runtime.Gosched()
			continue
		}
		spins = 0
		if _, open := <-d.work; !open {
			// Shutdown: the worker dispatched its last chunk before
			// closing the channel. Sweep every ring dry, then leave.
			for {
				c, ok := own.tryPop()
				for i := 1; i < n && !ok; i++ {
					c, ok = d.rings[(id+i)%n].tryPop()
				}
				if !ok {
					return
				}
				d.runChunk(c, id, false, csNano)
			}
		}
	}
}

// runChunk copies one chunk (unless its request is already terminal)
// and fires the completion when it was the request's last chunk. slot
// selects the caller's private counter block: the controller id, or the
// worker's extra slot on the inline path. stolen marks a chunk popped
// from another controller's ring. csNano is the caller's amortized
// clock for the copy-start stamp (0 with the flight recorder disarmed,
// and on the inline path, whose copy starts at its dispatched stamp).
func (d *Device) runChunk(c chunk, slot int, stolen bool, csNano int64) {
	r, ok := d.req(c.idx)
	if !ok {
		return
	}
	if c.nano != 0 {
		// A sampled request's chunk, off a ring: one fresh clock read
		// closes the chunk's ring wait (and steal delay) and is its
		// copy-start stamp.
		csNano = time.Now().UnixNano()
		d.lc.ObserveQueueWait(int(r.Class), csNano-c.nano, stolen)
		if stolen {
			r.stolenNs.Store(csNano)
		}
	}
	if d.chaos != nil && d.chaos.BeforeChunkCopy != nil {
		d.chaos.BeforeChunkCopy(c.idx, c.off, c.end)
	}
	if csNano != 0 {
		// The copy window opens at the first chunk to reach any
		// controller and closes when the finisher retires the last one —
		// a canceled request still gets the stamp, bounding the time its
		// chunks occupied controllers. A value below the submitted stamp
		// is a leftover from the slot's previous life and loses to this
		// chunk's stamp; a failed CAS means a parallel chunk of the same
		// request won the race.
		sub := r.submitted.Load()
		if cs := r.copyStartNs.Load(); cs < sub {
			r.copyStartNs.CompareAndSwap(cs, max(csNano, sub))
		}
	}
	// A cancel or deadline that won after dispatch stops the
	// copying; the chunk countdown still runs so the completion
	// fires exactly once.
	if r.state.Load()&stateMask == stPending {
		copy(r.Dst[c.off:c.end], r.Src[c.off:c.end])
		d.ctr[slot].bytesMoved.Add(int64(c.end - c.off))
	}
	d.ctr[slot].chunks.Add(1)
	if r.chunksLeft.Add(-1) == 0 {
		d.finish(r, nil)
	}
}

// RetrieveCompleted pops one completion notification without blocking;
// nil when none is pending. The scan starts at the caller's preferred
// ring (local-first bias) and wraps round-robin across the rest.
func (d *Device) RetrieveCompleted() *Request {
	idx, ok := d.popCompletion(d.pollerRing())
	if !ok {
		return nil
	}
	r, valid := d.req(idx)
	if !valid {
		return nil
	}
	d.m.retrieved.Inc()
	// Single-completion retrieve: the accumulator holds one request's
	// worth of lane accounting, flushed immediately (same cost shape as
	// the unbatched recorder path). lcEnd reads its own clock.
	var acc flight.Acc
	acc.Init(d.fr)
	d.lcEnd(r, 0, &acc)
	acc.Flush()
	if !d.completionEmpty() {
		d.wake() // keep concurrent pollers from sleeping past pending completions
	}
	return r
}

// ready reports whether a completion is pending, re-arming the notify
// token when it is so concurrent pollers can't be starved by the single
// buffered edge.
func (d *Device) ready() bool {
	if d.completionEmpty() {
		return false
	}
	d.wake()
	return true
}

// pollSpinBudget bounds the spin-before-sleep micro-wait in
// Poll/PollContext: enough yields that a completion landing within a
// few microseconds is caught without a timer or channel round trip,
// few enough (and all below backoff's sleep threshold) that a poller
// headed for a real wait gets there quickly.
const pollSpinBudget = 128

// spinWait is the poll-side micro-wait: spin through the shared
// backoff discipline watching for a completion, true when one arrived
// within the budget.
//
// Spinning only pays when a completer can make progress while this
// poller burns cycles: on GOMAXPROCS > 1 the worker/controllers run
// on other Ps. On a single-P device the yields are pure overhead — each
// backoff pass is a real context switch that delays the controllers
// the poller is waiting on (measured: ~3× overload throughput loss at
// GOMAXPROCS=1) — so there the poller goes straight to its timed
// sleep, which is itself the yield that lets copies proceed.
func (d *Device) spinWait() bool {
	if !d.completionEmpty() {
		return true
	}
	if !d.pollSpin {
		return false
	}
	for attempt := 0; attempt < pollSpinBudget; attempt++ {
		if d.closed.Load() {
			return !d.completionEmpty()
		}
		backoff(attempt)
		if !d.completionEmpty() {
			d.m.pollerSpins.Inc()
			return true
		}
	}
	return false
}

// Poll blocks until a completion notification is pending or the timeout
// expires (timeout <= 0 waits forever). It reports whether a
// notification is available. Any number of goroutines may Poll the same
// device: a retired wakeup is re-armed whenever completions remain, so
// no poller sleeps past a retrievable completion. A bounded micro-wait
// runs before any blocking, so a completion landing within ~1 µs costs
// no timer or notify round trip.
func (d *Device) Poll(timeout time.Duration) bool {
	if d.spinWait() {
		d.wake()
		return true
	}
	if timeout <= 0 {
		for d.completionEmpty() {
			if d.closed.Load() {
				return d.ready()
			}
			d.m.pollerParks.Inc()
			select {
			case <-d.notify:
			case <-d.done:
				return d.ready()
			}
		}
		d.wake()
		return true
	}
	// The deadline is computed lazily — a Poll that finds a completion
	// pending (the common case on a loaded device) costs no clock read
	// at all. One timer then serves every retry of the loop: each Reset
	// below runs only after the timer was stopped and its channel
	// drained, the precondition Timer.Reset documents. (The
	// per-iteration NewTimer this replaces allocated on every spurious
	// wakeup — measurable garbage on a device with thousands of Polls
	// per second.)
	var deadline time.Time
	var timer *time.Timer
	defer func() {
		if timer != nil {
			timer.Stop()
		}
	}()
	for d.completionEmpty() {
		if d.closed.Load() {
			return d.ready()
		}
		if deadline.IsZero() {
			deadline = time.Now().Add(timeout)
		}
		remain := time.Until(deadline)
		if remain <= 0 {
			return d.ready()
		}
		if timer == nil {
			timer = time.NewTimer(remain)
		} else {
			timer.Reset(remain)
		}
		d.m.pollerParks.Inc()
		select {
		case <-d.notify:
			if !timer.Stop() {
				<-timer.C
			}
		case <-d.done:
			return d.ready()
		case <-timer.C:
			return d.ready()
		}
	}
	d.wake()
	return true
}

// PollContext blocks until a completion notification is pending or ctx
// is done, whichever comes first, and reports whether a notification is
// available — poll(2) with a context instead of a hand-rolled timeout
// loop. Like Poll, any number of goroutines may PollContext the same
// device concurrently.
func (d *Device) PollContext(ctx context.Context) bool {
	if d.spinWait() {
		d.wake()
		return true
	}
	for d.completionEmpty() {
		if d.closed.Load() || ctx.Err() != nil {
			return d.ready()
		}
		d.m.pollerParks.Inc()
		select {
		case <-d.notify:
		case <-d.done:
			return d.ready()
		case <-ctx.Done():
			return d.ready()
		}
	}
	d.wake()
	return true
}

// Stats returns a snapshot of the device's counters, histograms, queue
// watermarks and sampled lifecycles. Safe from any goroutine at any time.
func (d *Device) Stats() StatsSnapshot {
	staging := make([]int64, len(d.staging))
	for i, sh := range d.staging {
		staging[i] = int64(sh.Size())
	}
	ringDepths := make([]int64, len(d.rings))
	for i, r := range d.rings {
		ringDepths[i] = r.size()
	}
	var classes [NumClasses]ClassStats
	for c := range classes {
		classes[c] = ClassStats{
			Submitted:  d.m.classSubmitted[c].Load(),
			Completed:  d.m.classCompleted[c].Load(),
			Shed:       d.m.classShed[c].Load(),
			InFlight:   d.classInFlight[c].n.Load(),
			QueueDepth: int64(d.submission[c].Size()),
			Latency:    d.m.classLatency[c].Snapshot(),
		}
	}
	tab := *d.tenants.Load()
	tenants := make([]TenantStats, len(tab))
	for i, ts := range tab {
		tenants[i] = ts.snapshot()
	}
	var chunks, bytesMoved, steals int64
	for i := range d.ctr {
		chunks += d.ctr[i].chunks.Load()
		bytesMoved += d.ctr[i].bytesMoved.Load()
		steals += d.ctr[i].steals.Load()
	}
	compDepths := make([]int64, len(d.compRings))
	var compDepth int64
	for i, cr := range d.compRings {
		compDepths[i] = cr.size()
		compDepth += compDepths[i]
	}
	return StatsSnapshot{
		StagingDepths:        staging,
		SubmissionDepth:      d.submissionDepth(),
		CompletionDepth:      compDepth,
		CompletionDepths:     compDepths,
		RingDepths:           ringDepths,
		Lifecycle:            d.lc.Snapshot(),
		Flight:               d.fr.Snapshot(),
		Submitted:            d.m.submitted.Load(),
		Completed:            d.m.completed.Load(),
		Canceled:             d.m.canceled.Load(),
		Expired:              d.m.expired.Load(),
		Failed:               d.m.failed.Load(),
		Kicks:                d.m.kicks.Load(),
		WorkerWakes:          d.m.wakes.Load(),
		PollerSpins:          d.m.pollerSpins.Load(),
		PollerParks:          d.m.pollerParks.Load(),
		Batches:              d.m.batches.Load(),
		Chunks:               chunks,
		BytesMoved:           bytesMoved,
		Steals:               steals,
		DispatchRetries:      d.m.dispatchRetries.Load(),
		EnqueueRetries:       d.m.enqueueRetries.Load(),
		DoubleCompletes:      d.m.doubleCompletes.Load(),
		Shed:                 d.m.shed.Load(),
		Overloaded:           d.m.overloaded.Load(),
		InlineCompleted:      d.m.inlineCompleted.Load(),
		InlineThresholdBytes: d.inline.Load(),
		Retunes:              d.m.retunes.Load(),
		AgedPops:             d.m.agedPops.Load(),
		Classes:              classes,
		Tenants:              tenants,
		SubmissionHighWater:  d.m.submissionHW.Load(),
		CompletionHighWater:  d.m.completionHW.Load(),
		Latency:              d.m.latency.Snapshot(),
		Sizes:                d.m.sizes.Snapshot(),
	}
}

// AuditSlots verifies, on a quiescent device (no Submit/Retrieve in
// flight, pipeline drained), that every request slot is in exactly one
// of {free list, a staging shard, submission, completion, caller-held}.
// held lists slot indices of requests the caller has allocated or
// retrieved and not yet freed. This is the realtime side of the "no
// index may ever vanish" invariant; the chaos suite runs it after every
// storm.
func (d *Device) AuditSlots(held []uint32) error {
	owner := make([]string, len(d.reqs))
	claim := func(idx uint32, who string) error {
		if int(idx) >= len(d.reqs) {
			return fmt.Errorf("realtime: audit: index %d out of range (seen in %s)", idx, who)
		}
		if owner[idx] != "" {
			return fmt.Errorf("realtime: audit: index %d in two places: %s and %s", idx, owner[idx], who)
		}
		owner[idx] = who
		return nil
	}
	queues := []struct {
		name string
		q    *rbq.Queue
	}{
		{"free", d.freeList},
	}
	for c, q := range d.submission {
		queues = append(queues, struct {
			name string
			q    *rbq.Queue
		}{fmt.Sprintf("submission[%s]", ClassName(c)), q})
	}
	for i, sh := range d.staging {
		queues = append(queues, struct {
			name string
			q    *rbq.Queue
		}{fmt.Sprintf("staging[%d]", i), sh})
	}
	for _, qi := range queues {
		for _, idx := range qi.q.Snapshot() {
			if err := claim(idx, qi.name); err != nil {
				return err
			}
		}
	}
	for i, cr := range d.compRings {
		for _, idx := range cr.snapshot() {
			if err := claim(idx, fmt.Sprintf("completion[%d]", i)); err != nil {
				return err
			}
		}
	}
	for _, idx := range held {
		if err := claim(idx, "user-held"); err != nil {
			return err
		}
	}
	for i, who := range owner {
		if who == "" {
			return fmt.Errorf("realtime: audit: index %d vanished: in no queue and not user-held", i)
		}
	}
	return nil
}

// Kicks reports how many kick-start syscall-equivalents were issued.
func (d *Device) Kicks() int64 { return d.m.kicks.Load() }

// Completed reports how many requests have completed.
func (d *Device) Completed() int64 { return d.m.completed.Load() }

// BytesMoved reports the total payload moved.
func (d *Device) BytesMoved() int64 {
	var n int64
	for i := range d.ctr {
		n += d.ctr[i].bytesMoved.Load()
	}
	return n
}
