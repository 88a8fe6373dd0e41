// Package core implements the memif driver and its user library
// (Sections 3–5): an asynchronous, DMA-accelerated OS service for
// replicating and migrating virtual memory regions across heterogeneous
// memory nodes.
//
// One Device corresponds to one opened memif instance: a shared interface
// area (staging/submission/completion queues and the mov_req array, all
// lock-free — package uapi), a kernel worker thread, and the three
// execution paths of Section 5.4 (syscall, interrupt, kernel thread).
package core

// RaceMode selects how migration handles CPU/DMA races (Section 5.2).
type RaceMode int

// Race-handling policies.
const (
	// RaceDetect is the paper's design: install a semi-final PTE with
	// the young bit set, release with a single CAS, and report a
	// cleared bit as a program error (SEGFAULT → failed completion).
	RaceDetect RaceMode = iota
	// RaceRecover is the "proceed and recover" alternative: pages stay
	// mapped read-only to the old frame during migration; a write traps
	// into a custom fault handler that aborts the DMA, restores the
	// mapping, and posts an aborted completion.
	RaceRecover
	// RacePrevent is the baseline discipline (migration PTEs that block
	// accessors), kept for the ablation benchmarks.
	RacePrevent
)

// Two properties of the prototype's driver, not deployment choices.
const (
	// maxChainPages caps the descriptors of one DMA transfer: half the
	// KeyStone II's 512 PaRAM slots (Open clamps it to the platform's),
	// so the worker's pipeDepth (two) chains fit at once. Larger requests
	// move as consecutive sub-transfers; how long one may hold the
	// channel is channelQuantum's business.
	maxChainPages = 256
	// workerIdleGraceNS is how long the kernel worker lingers in polling
	// mode after draining all queues before recoloring the staging queue
	// blue and sleeping: like a NAPI driver (Section 5.4's inspiration),
	// lingering spares a steady request stream a kick-start syscall
	// each. 200 µs is ten of linger's polls; AdaptiveLinger stretches it.
	workerIdleGraceNS = 200_000
)

// Options configures a memif Device. The zero value is not useful; start
// from DefaultOptions.
type Options struct {
	// NumReqs is the number of mov_req slots in the shared area.
	NumReqs int
	// PollThresholdBytes: requests strictly smaller may run in the
	// kernel thread's polling mode (DMA interrupt off, Section 5.4) —
	// it polls them while nothing else is queued or the channel is
	// busy, and takes the interrupt when work waits on an idle channel;
	// larger ones always complete through the interrupt path. The
	// prototype uses 512 KB.
	PollThresholdBytes int64
	// RaceMode selects the migration race policy.
	RaceMode RaceMode
	// GangLookup enables the Section 5.1 page lookup (ablation knob).
	GangLookup bool
	// DescReuse enables descriptor-chain reuse (Section 5.3 knob).
	DescReuse bool
	// AdaptiveLinger stretches the grace toward 4x the observed request
	// inter-arrival gap (capped at 20x the base grace), so steady but
	// slow request streams keep the worker alive. Disable for the
	// fixed-grace behaviour (ablation knob).
	AdaptiveLinger bool
}

// DefaultOptions returns the prototype's configuration.
func DefaultOptions() Options {
	return Options{
		NumReqs:            256,
		PollThresholdBytes: 512 << 10,
		RaceMode:           RaceDetect,
		GangLookup:         true,
		DescReuse:          true,
		AdaptiveLinger:     true,
	}
}

// Stats counts device activity.
type Stats struct {
	Submitted      int64
	Completed      int64
	Failed         int64
	Syscalls       int64 // MOV_ONE ioctls issued by the library
	WorkerWakes    int64
	RacesDetected  int64
	Recovered      int64
	BytesRequested int64
	BytesMoved     int64
	Replications   int64
	Migrations     int64
	// Overlapped counts polled requests the worker prepared and started
	// while an earlier polled transfer of the device was still unreaped:
	// zero with one request outstanding.
	Overlapped int64
	// PollServes counts requests a caller blocked in Poll served itself
	// while the worker was the bottleneck (Device.Poll): they are not
	// MOV_ONE kicks and add nothing to Syscalls.
	PollServes int64

	// Transactional migration activity (ReqTxn requests).
	TxnMigrations int64 // transactional migrations served
	TxnCommits    int64 // committed atomically with all pages clean
	TxnAborts     int64 // aborted by the commit CAS (page went dirty)
	ZeroCopyPages int64 // pages committed by PTE flip alone (valid shadow)
}
