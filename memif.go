// Package memif is a Go reproduction of "memif: Towards Programming
// Heterogeneous Memory Asynchronously" (Lin & Liu, ASPLOS 2016): a
// protected OS service for asynchronous, DMA-accelerated replication and
// migration of virtual memory regions across heterogeneous memory nodes.
//
// The kernel prototype in the paper runs on a TI KeyStone II SoC. Since a
// Go library can be neither a kernel module nor an EDMA3 driver, this
// package runs the complete system — heterogeneous memory nodes, page
// tables, the DMA engine, the lock-free user/kernel interface, the memif
// driver, and the Linux page-migration baseline — on a deterministic
// discrete-event machine with a cost model calibrated to the paper's
// measurements (see DESIGN.md). The red-blue lock-free queue at the heart
// of the interface is real CAS-based code, exercised by real goroutines.
//
// # The API surface
//
// The facade is organized into four documented groups, each a thin alias
// layer over an implementation package (the whole system is reachable
// from this single import):
//
//   - The simulated machine — NewMachine, Open, DefaultOptions and the
//     types around them reproduce the paper's kernel prototype on
//     virtual time, including the swap daemon and the Linux baseline.
//   - The realtime device — OpenRealtime, DefaultRealtimeOptions and
//     the Realtime* types run the interface protocol under real
//     concurrency, with QoS priority classes, admission control,
//     adaptive completion, and weighted multi-tenant namespaces
//     (RealtimeDevice.OpenTenant).
//   - The streaming runtime — OpenStreamEngine and the Stream* types
//     multiplex long-lived, credit-backed ingest streams over one
//     device through a pinned, recycled prefetch ring (the Section
//     6.6 double-buffered kernels, grown into an orchestrator).
//     StreamDirect is the in-place baseline it is measured against.
//   - Observability — NewObsHandler and the Obs* helpers expose every
//     subsystem's metrics and traces over HTTP, and the Flight* types
//     configure the always-on flight recorder behind /debug/outliers:
//     retroactive tail-latency capture, a stall watchdog, and SLO burn
//     rates.
//
// All three engines name priority with one vocabulary — Class and its
// Foreground, Background and Scavenger — whether it orders a realtime
// request's admission and dispatch or a simulated request's DMA
// transfers.
//
// A fifth, clearly marked low-level block at the bottom exports the
// building blocks (the red-blue queue, the raw mov_req layout) for
// direct experimentation; applications should not need it.
//
// The exported surface is snapshotted in api/memif.txt, and the fields
// of every options struct it aliases in api/options.txt; both are
// guarded by CI: changing either requires regenerating the snapshot
// (cmd/memif-api, TestOptionsSnapshot), making facade drift a reviewed
// decision.
//
// # Quick start
//
// Boot a machine, open a device, and move memory the way Figure 2 of the
// paper does:
//
//	m := memif.NewMachine(memif.KeyStoneII())
//	m.Eng.Spawn("app", func(p *memif.Proc) {
//		as := m.NewAddressSpace(memif.Page4K)
//		dev := memif.Open(m, as, memif.DefaultOptions())
//		defer dev.Close()
//
//		src, _ := as.Mmap(p, 1<<20, memif.NodeSlow, "src")
//		dst, _ := as.Mmap(p, 1<<20, memif.NodeFast, "dst")
//
//		req := dev.AllocRequest(p)
//		req.Op = memif.OpReplicate
//		req.SrcBase, req.DstBase, req.Length = src, dst, 1<<20
//		dev.Submit(p, req) // non-blocking
//
//		// ... compute ...
//
//		dev.Poll(p, 0) // sleep until any move completes
//		done := dev.RetrieveCompleted(p)
//		dev.FreeRequest(p, done)
//	})
//	m.Eng.Run()
//
// # Errors
//
// Realtime request outcomes form one taxonomy, matched with errors.Is:
// ErrCanceled, ErrDeadline, ErrNoSlots, ErrOverload (whose concrete
// *RealtimeOverloadError carries a retry-after hint), ErrClosed and
// ErrBadSizes. Submit returns admission errors synchronously;
// SubmitBatch surfaces per-request failures through their completions
// (Request.Err), so a batch caller always collects exactly one
// completion per request. The simulated device uses the numeric
// ErrNone/ErrRace/... codes of the paper's uapi instead.
package memif

import (
	"memif/internal/core"
	"memif/internal/hw"
	"memif/internal/linuxmig"
	"memif/internal/machine"
	"memif/internal/obs/lifecycle"
	"memif/internal/obs/obshttp"
	"memif/internal/qos"
	"memif/internal/rbq"
	"memif/internal/realtime"
	"memif/internal/sim"
	"memif/internal/streamrt"
	"memif/internal/swapd"
	"memif/internal/uapi"
	"memif/internal/vm"
	"memif/internal/workloads"
)

// ---------------------------------------------------------------------
// The simulated machine: the paper's system on virtual time.
// ---------------------------------------------------------------------

// Machine is one simulated computer: event engine, platform, physical
// memory and DMA engine.
type Machine = machine.Machine

// NewMachine boots a machine for a platform.
func NewMachine(plat *Platform) *Machine { return machine.New(plat) }

// Platform describes the hardware (nodes, DMA engine, cost model).
type Platform = hw.Platform

// KeyStoneII returns the paper's test platform (Table 2).
func KeyStoneII() *Platform { return hw.KeyStoneII() }

// XeonE5 returns the Section 2.2 comparison NUMA machine.
func XeonE5() *Platform { return hw.XeonE5() }

// NodeID names a memory node.
type NodeID = hw.NodeID

// The two pseudo-NUMA nodes of the heterogeneous hierarchy.
const (
	NodeSlow = hw.NodeSlow
	NodeFast = hw.NodeFast
)

// Page size presets used throughout the evaluation.
const (
	Page4K  = hw.Page4K
	Page64K = hw.Page64K
	Page2M  = hw.Page2M
)

// Proc is a simulated process (an application thread, in user code).
type Proc = sim.Proc

// Time is a virtual-time instant in nanoseconds.
type Time = sim.Time

// AddressSpace is one process's virtual memory.
type AddressSpace = vm.AddressSpace

// Device is an opened memif instance (device file + shared area + kernel
// worker). Its methods are the user API of Section 4.1: AllocRequest,
// FreeRequest, Submit, RetrieveCompleted, Poll, Close.
type Device = core.Device

// Options configures a Device; start from DefaultOptions.
type Options = core.Options

// DefaultOptions returns the prototype's configuration (256 request
// slots, 512 KB polling threshold, race detection, gang lookup and
// descriptor reuse enabled).
func DefaultOptions() Options { return core.DefaultOptions() }

// Race-handling policies (Section 5.2).
const (
	RaceDetect  = core.RaceDetect
	RaceRecover = core.RaceRecover
	RacePrevent = core.RacePrevent
)

// Open creates a memif instance for the process owning as and starts its
// kernel worker (MemifOpen of the user API).
func Open(m *Machine, as *AddressSpace, opts Options) *Device {
	return core.Open(m, as, opts)
}

// File is an in-memory file whose pages live in a machine-wide page
// cache; mappings of it are shared between processes, and migration
// rebinds the cache alongside every PTE (the file-backed-pages
// limitation of Section 6.7, implemented).
type File = vm.File

// NewFile creates a file of the given size on m's page cache. pageBytes
// must match the page size of the address spaces that will map it.
func NewFile(m *Machine, name string, size, pageBytes int64) *File {
	return vm.NewFile(m.Mem, m.Rmap, name, size, pageBytes)
}

// LinuxMigrator is the baseline: synchronous, CPU-copy Linux page
// migration driven by mbind-style batch syscalls (Section 2.2).
type LinuxMigrator = linuxmig.Migrator

// NewLinuxMigrator returns the baseline migration service for as.
func NewLinuxMigrator(m *Machine, as *AddressSpace) *LinuxMigrator {
	return linuxmig.New(m, as)
}

// SwapDaemon is the kswapd-style tiering engine (the future-work item
// of Section 6.7, grown into a two-way hot/cold manager): it samples
// access bits into per-region heat, promotes hot slow-tier regions into
// fast memory and demotes cold ones out, all through transactional
// migrations that a racing application write simply aborts — tiering
// can never hurt the application. Keep-src promotions retain the slow
// copy, so demoting a still-clean region is a zero-byte PTE flip.
type SwapDaemon = swapd.Daemon

// SwapOptions configures the daemon's flight recorder. Its watermarks
// (0.90/0.70), 1 ms period, 2 ms scan and 4 in-flight migrations are
// fixed policy for the 6 MB MSMC node, not options.
type SwapOptions = swapd.Options

// DefaultSwapOptions arms the daemon's flight recorder.
func DefaultSwapOptions() SwapOptions { return swapd.DefaultOptions() }

// NewSwapDaemon starts an evictor for the address space behind app.
func NewSwapDaemon(app *Device, opts SwapOptions) *SwapDaemon {
	return swapd.New(app, opts)
}

// ---------------------------------------------------------------------
// The realtime device: the interface protocol under real concurrency.
// ---------------------------------------------------------------------

// RealtimeDevice runs the memif interface protocol — the same red-blue
// queues, submit/flush/kick discipline, worker and completion paths —
// under real goroutine concurrency as a host-side asynchronous copy
// service: one staging queue whose color costs a burst one kick,
// batched submission (SubmitBatch / RetrieveCompletedBatch amortize the
// flush, recolor and kick over a whole batch), chunked multi-controller
// transfers fed through one chunk ring every controller pops from,
// cancellation and deadlines, QoS priority classes with admission
// control and adaptive poll-vs-notify completion, a lock-free
// completion ring, and a built-in metrics layer (Device.Stats).
// Blocking is d.Poll(timeout) or d.PollContext(ctx): two doors onto one
// wait, bounded by a timer or by the context. See package
// memif/internal/realtime for the full story.
type RealtimeDevice = realtime.Device

// RealtimeRequest is a realtime mov_req: an async copy between two
// caller-owned byte slices, optionally carrying a priority Class and a
// Deadline.
type RealtimeRequest = realtime.Request

// RealtimeOptions sizes a realtime device: request slots, transfer
// controllers, the chunking threshold, tracing and the flight recorder.
// Construct it with DefaultRealtimeOptions and override fields.
type RealtimeOptions = realtime.Options

// DefaultRealtimeOptions mirrors the EDMA3-ish defaults, including
// min(4, GOMAXPROCS) transfer controllers and 256 KB chunking.
// Adaptive inline completion always starts at 32 KiB; admission always
// sheds at DefaultRealtimeClassShares (foreground never, background
// past 85% occupancy, scavenger past 50%). The dispatch aging credit
// (16) and the retune cadence (512 dispatches) are constants.
func DefaultRealtimeOptions() RealtimeOptions { return realtime.DefaultOptions() }

// OpenRealtime starts a realtime device.
func OpenRealtime(opts RealtimeOptions) *RealtimeDevice { return realtime.Open(opts) }

// Class is a request's priority class, the one vocabulary all three
// engines share: a RealtimeRequest's admission, dispatch order and
// shedding key off it, and a MovReq's (or StreamSpec's, or the swap
// daemon's) DMA transfers are served lower class first at the engine,
// FIFO within a class, never preempting an active transfer. The zero
// value is Foreground; String() is the class's /metrics label.
type Class = qos.Class

// The priority classes, highest first. Foreground is never shed by
// admission; Scavenger is the first to be shed under pressure.
const (
	Foreground = qos.Foreground
	Background = qos.Background
	Scavenger  = qos.Scavenger
)

// NumClasses is the number of priority classes.
const NumClasses = qos.NumClasses

// DefaultRealtimeClassShares returns the default per-class occupancy
// thresholds: foreground 1.0 (never shed), background 0.85, scavenger
// 0.5.
func DefaultRealtimeClassShares() [NumClasses]float64 {
	return realtime.DefaultClassShares()
}

// RealtimeStats is the snapshot RealtimeDevice.Stats returns: outcome
// counters, latency/size histograms, per-class breakdowns, QoS and
// adaptive-completion counters, queue watermarks, and the sampled
// request lifecycles.
type RealtimeStats = realtime.StatsSnapshot

// RealtimeClassStats is one priority class's slice of the device
// counters (RealtimeStats.Classes).
type RealtimeClassStats = realtime.ClassStats

// RealtimeOverloadError is the concrete admission rejection: the shed
// class plus a retry-after hint (an EWMA of recent completion latency).
// errors.Is(err, ErrOverload) matches it.
type RealtimeOverloadError = realtime.OverloadError

// The realtime error taxonomy. Every request outcome and submission
// rejection is one of these (or wraps one); match with errors.Is.
var (
	// ErrCanceled is the outcome of a request whose Cancel won.
	ErrCanceled = realtime.ErrCanceled
	// ErrDeadline is the outcome of a request that missed its Deadline.
	ErrDeadline = realtime.ErrDeadline
	// ErrNoSlots reports slab exhaustion: synchronously from Submit, or
	// through the completion of a batch member accepted by SubmitBatch.
	ErrNoSlots = realtime.ErrNoSlots
	// ErrOverload is the admission controller's rejection of work at a
	// sheddable priority class; the concrete *RealtimeOverloadError
	// carries a retry-after hint.
	ErrOverload = realtime.ErrOverload
	// ErrClosed rejects submissions to a closed (or closing) device.
	ErrClosed = realtime.ErrClosed
	// ErrBadSizes rejects a request whose Src and Dst lengths differ.
	ErrBadSizes = realtime.ErrBadSizes
)

// RealtimeTenant is a tenant namespace on a realtime device, opened with
// RealtimeDevice.OpenTenant: submissions through the handle are admitted
// against the tenant's own slot quota, scheduled by its
// deficit-round-robin weight within each priority class, cancelable as a
// group (CancelAll), and attributed to per-tenant counters, histograms
// and memif_realtime_tenant_* metric series. The device's own
// Submit/SubmitBatch remain the default tenant (id 0), so single-tenant
// code is unaffected.
type RealtimeTenant = realtime.Tenant

// RealtimeTenantConfig names a tenant and sets its DRR weight and slot
// quota (OpenTenant validates it; see FuzzTenantConfigValidate for the
// exact contract).
type RealtimeTenantConfig = realtime.TenantConfig

// RealtimeTenantStats is one tenant's slice of the device counters
// (RealtimeTenant.Stats, RealtimeStats.Tenants): submissions,
// completions, sheds, cancels, in-flight and queue depth, and the
// tenant's own latency histogram and lifecycle stage spans.
type RealtimeTenantStats = realtime.TenantStats

// RealtimeMaxTenantWeight bounds RealtimeTenantConfig.Weight.
const RealtimeMaxTenantWeight = realtime.MaxTenantWeight

// Tenant-namespace errors; match with errors.Is.
var (
	// ErrBadTenant rejects an invalid RealtimeTenantConfig (empty or
	// label-unsafe name, out-of-range weight, non-positive quota).
	ErrBadTenant = realtime.ErrBadTenant
	// ErrTenantExists rejects OpenTenant for a name already open on the
	// device.
	ErrTenantExists = realtime.ErrTenantExists
)

// ---------------------------------------------------------------------
// The streaming runtime: Section 6.6's double-buffered kernels, grown
// into a long-lived multi-stream orchestrator.
// ---------------------------------------------------------------------

// StreamEngine is the long-lived streaming orchestrator: opened once
// over a device, it owns a ring of pinned, recycled prefetch buffers
// (mmap'd once — O(ring) mappings, not O(chunks)) and multiplexes any
// number of StreamHandle instances over them with credit-based
// backpressure, engine-level round-robin fair refill, and batched
// red-blue submission (one flush/kick per grant pass).
type StreamEngine = streamrt.Engine

// StreamEngineOptions configures OpenStreamEngine: the ring geometry
// (the embedded StreamConfig, BufBytes × NumBufs on the fast node) and
// the flight recorder.
type StreamEngineOptions = streamrt.EngineOptions

// DefaultStreamEngineOptions returns the Table 4 ring (eight 512 KB
// buffers on the fast node) with the flight recorder armed.
func DefaultStreamEngineOptions() StreamEngineOptions { return streamrt.DefaultEngineOptions() }

// OpenStreamEngine opens a streaming engine over d, mapping the
// prefetch ring up front. Close it to release the ring.
func OpenStreamEngine(p *Proc, d *Device, opts StreamEngineOptions) (*StreamEngine, error) {
	return streamrt.OpenEngine(p, d, opts)
}

// StreamSpec describes one stream to StreamEngine.OpenStream: the
// kernel, the [Base, Base+Length) input (Length a multiple of the
// engine's buffer size), the fill priority class, the credit allowance
// (0 defaults to 2 — classic double buffering), and a label-safe name
// for metrics.
type StreamSpec = streamrt.StreamSpec

// StreamHandle is one open stream: Consume/Run drive the kernel over
// prefetched chunks zero-copy, Stats snapshots its counters, Close
// releases its credits.
type StreamHandle = streamrt.Stream

// StreamStats is one stream's counter snapshot: credit ledger, fast
// versus fallback chunks, fill latency histogram and per-stage spans.
type StreamStats = streamrt.StreamStats

// StreamEngineSnapshot is the engine-wide view (StreamEngine.Snapshot):
// ring occupancy, per-stream StreamStats, and the flight recorder.
type StreamEngineSnapshot = streamrt.EngineSnapshot

// MaxStreamCredits caps a single stream's credit allowance.
const MaxStreamCredits = streamrt.MaxCredits

// Streaming error taxonomy, matched with errors.Is.
var (
	// ErrStreamClosed is returned by operations on a closed stream or
	// a closed engine.
	ErrStreamClosed = streamrt.ErrStreamClosed
	// ErrBadStream flags a rejected StreamSpec or engine
	// configuration.
	ErrBadStream = streamrt.ErrBadStream
)

// StreamConfig is the prefetch-buffer geometry: a stream engine's ring
// (StreamEngineOptions embeds it) and one Table 4 cell, where
// StreamDirect consumes in its BufBytes steps.
type StreamConfig = streamrt.Config

// StreamResult reports one streaming run.
type StreamResult = streamrt.Result

// DefaultStreamConfig returns the Table 4 configuration (eight 512 KB
// buffers on the fast node).
func DefaultStreamConfig() StreamConfig { return streamrt.DefaultConfig() }

// StreamKernel is a streaming compute kernel.
type StreamKernel = workloads.Kernel

// The Table 4 workloads.
var (
	KernelTriad = workloads.Triad
	KernelAdd   = workloads.Add
	KernelPGain = workloads.PGain
)

// StreamDirect runs the kernel in place (no memif): the "Linux" rows of
// Table 4, and the reference a StreamHandle.Run result and checksum are
// compared against.
func StreamDirect(p *Proc, as *AddressSpace, k StreamKernel, base, length int64, cfg StreamConfig) (StreamResult, error) {
	return streamrt.RunDirect(p, as, k, base, length, cfg)
}

// ---------------------------------------------------------------------
// Observability: metrics, lifecycle traces, HTTP exposition.
// ---------------------------------------------------------------------

// LifecycleSnapshot is the view of the sampled request lifecycles,
// available as RealtimeStats.Lifecycle: per-stage latency histograms
// (staging wait, dispatch wait, ring wait, copy, completion dwell), the same broken down per priority class
// (ClassSpans), and the captured complete lifecycles. Sampling is
// controlled by RealtimeOptions.TraceSampleShift (1 request in 2^k;
// negative disables) or TraceFullCapture.
type LifecycleSnapshot = lifecycle.Snapshot

// LifecycleSpans holds the per-stage latency histograms of one
// pipeline; SwapMetricsSnapshot.Stages and StreamStats.Stages carry the
// same shape on virtual time.
type LifecycleSpans = lifecycle.SpanSnapshot

// CapturedLifecycle is the one captured-request record, in both rings:
// LifecycleSnapshot.Captured holds the sampled requests (slot, payload
// size, class, tenant, outcome, path flags, the raw stage timestamps),
// FlightSnapshot.Outliers the breaching ones with the threshold they
// breached and the ambient device state — or a typed stall / domain
// event, told apart by Kind.
type CapturedLifecycle = lifecycle.Lifecycle

// ChromeTraceJSON renders captured lifecycles as Chrome trace_event
// JSON for chrome://tracing or ui.perfetto.dev.
func ChromeTraceJSON(process string, lcs []CapturedLifecycle) ([]byte, error) {
	return lifecycle.ChromeTraceGroupsJSON([]lifecycle.TraceGroup{{Process: process, Lifecycles: lcs}})
}

// SwapMetricsSnapshot is the swap daemon's one snapshot
// (SwapDaemon.Metrics): migration counters, latency/size/promotion-lag
// histograms, per-stage latency attribution and the flight recorder.
type SwapMetricsSnapshot = swapd.MetricsSnapshot

// ObsHandler serves the observability endpoints — /metrics (Prometheus
// text format), /trace (Chrome trace_event JSON), /debug/pprof/* — for
// a set of registered collectors; mount it on any http server. See
// cmd/memif-trace -serve for a ready-made setup.
type ObsHandler = obshttp.Handler

// ObsMetric is one exposition sample a collector produces.
type ObsMetric = obshttp.Metric

// NewObsHandler returns an empty observability handler.
func NewObsHandler() *ObsHandler { return obshttp.NewHandler() }

// RealtimeObsMetrics maps a realtime stats snapshot onto the
// memif_realtime_* Prometheus namespace, including the per-class
// {class="..."} series.
func RealtimeObsMetrics(device string, s RealtimeStats) []ObsMetric {
	return obshttp.RealtimeMetrics(device, s)
}

// SwapObsMetrics maps a swap-daemon snapshot onto memif_swapd_*.
func SwapObsMetrics(device string, s SwapMetricsSnapshot) []ObsMetric {
	return obshttp.SwapdMetrics(device, s)
}

// StreamEngineObsMetrics maps a stream-engine snapshot onto the
// memif_stream_engine_* namespace plus the per-stream memif_stream_*
// {stream="..."} series and the memif_stream_flight_* recorder view.
func StreamEngineObsMetrics(device string, s StreamEngineSnapshot) []ObsMetric {
	return obshttp.StreamEngineMetrics(device, s)
}

// FlightOptions arms a subsystem's always-on flight recorder
// (RealtimeOptions.Flight, SwapOptions.Flight). The zero value arms
// with defaults — adaptive per-(class,tenant) outlier thresholds
// (EWMA×multiplier with a floor), a bounded lock-free outlier ring, a
// stall watchdog, and per-class/per-tenant SLO burn tracking; set
// Disable to opt out of those (the stage-latency spans keep recording).
// Every completion is compared against its lane's
// threshold retroactively: breaching requests land in the ring with
// their full seven-stage stamp vector and the ambient queue depths,
// so the forensics for a tail excursion are already captured when it
// is noticed. The swap daemon and the stream engine run the recorder on
// virtual time, where the SLO tracker and the watchdog do not exist.
type FlightOptions = lifecycle.FlightOptions

// FlightSnapshot is a point-in-time copy of a flight recorder
// (RealtimeDevice.FlightSnapshot, SwapMetricsSnapshot.Flight): breach /
// stall / event counters, the retained outlier records, active lane
// thresholds and SLO state. It is what /debug/outliers serves per
// source (ObsHandler.RegisterOutliers).
type FlightSnapshot = lifecycle.FlightSnapshot

// The kinds of captured flight records (CapturedLifecycle.Kind).
const (
	FlightKindLatency = lifecycle.KindLatency
	FlightKindStall   = lifecycle.KindStall
	FlightKindEvent   = lifecycle.KindEvent
)

// ObsOutlierReport pairs a registered flight source with its snapshot;
// /debug/outliers serves the JSON array of these.
type ObsOutlierReport = obshttp.OutlierReport

// ---------------------------------------------------------------------
// Low-level building blocks. Applications should not need anything
// below this line; it exports the primitives the system is made of for
// direct experimentation and the verification suites.
// ---------------------------------------------------------------------

// Queue is the red-blue lock-free queue (Section 4.3), usable on its own:
// a Michael–Scott-style lock-free FIFO that maintains a queue-wide color
// atomically with every operation.
type Queue = rbq.Queue

// QueueSlab is the node pool shared by a set of Queues.
type QueueSlab = rbq.Slab

// NewQueueSlab allocates a node pool for red-blue queues.
func NewQueueSlab(capacity int) *QueueSlab { return rbq.NewSlab(capacity) }

// Queue colors.
const (
	Blue = rbq.Blue
	Red  = rbq.Red
)

// MovReq is one simulated move request (Figure 3b), the raw uapi layout
// behind Device.AllocRequest.
type MovReq = uapi.MovReq

// Move operations.
const (
	OpReplicate = uapi.OpReplicate
	OpMigrate   = uapi.OpMigrate
)

// Simulated-request completion states and failure codes (the numeric
// uapi codes of Figure 3b, distinct from the realtime error taxonomy).
const (
	StatusDone   = uapi.StatusDone
	StatusFailed = uapi.StatusFailed

	ErrNone       = uapi.ErrNone
	ErrRace       = uapi.ErrRace
	ErrAborted    = uapi.ErrAborted
	ErrNoMemory   = uapi.ErrNoMemory
	ErrBadRequest = uapi.ErrBadRequest
	ErrBusy       = uapi.ErrBusy
	ErrTxnDirty   = uapi.ErrTxnDirty
)

// MovFlags modify a simulated request.
type MovFlags = uapi.ReqFlags

// Request flags: MovFlagTxn migrates transactionally — pages stay
// mapped writable during the copy and the commit fails with ErrTxnDirty
// if a write raced it; MovFlagKeepSrc retains the source frames as
// shadow copies, enabling zero-copy demotion while the pages stay clean.
const (
	MovFlagTxn     = uapi.ReqTxn
	MovFlagKeepSrc = uapi.ReqKeepSrc
)
