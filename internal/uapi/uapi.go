// Package uapi defines the user/kernel shared interface area of one
// memif instance (Figure 3): the array of mov_req entries plus the
// lock-free queues that logically move requests between free list,
// staging, submission, and completion states.
//
// In the kernel prototype this area lives in pinned pages mmap'ed into
// the application; here it is a Go struct shared by "user" and "kernel"
// processes. The safety discipline is the paper's: the only cross-side
// references are indices into the mov_req array, validated before use.
package uapi

import (
	"fmt"

	"memif/internal/hw"
	"memif/internal/obs/lifecycle"
	"memif/internal/qos"
	"memif/internal/rbq"
	"memif/internal/sim"
)

// Op selects the move semantics of a request (Section 3).
type Op uint8

// The two move operations.
const (
	// OpReplicate copies bytes across two already-mapped virtual
	// regions (memcpy semantics): no virtual memory management, no race
	// handling.
	OpReplicate Op = iota
	// OpMigrate replaces the backing pages of a region with new pages
	// on the destination node and fills them with the old data, with
	// race detection.
	OpMigrate
)

func (o Op) String() string {
	if o == OpReplicate {
		return "replicate"
	}
	return "migrate"
}

// Status tracks a request's position in its life cycle.
type Status uint8

// Request life-cycle states.
const (
	StatusFree Status = iota
	StatusStaged
	StatusSubmitted
	StatusInFlight
	StatusDone
	StatusFailed
)

func (s Status) String() string {
	return [...]string{"free", "staged", "submitted", "in-flight", "done", "failed"}[s]
}

// ErrCode is the kernel-reported failure reason in a completed request.
type ErrCode uint8

// Failure reasons posted to the failed-completion queue.
const (
	ErrNone ErrCode = iota
	// ErrRace: a CPU access raced the migration DMA; with race
	// detection this is reported as a program error (the SEGFAULT of
	// Section 5.2).
	ErrRace
	// ErrAborted: the proceed-and-recover handler aborted the
	// migration and restored the original mapping.
	ErrAborted
	// ErrNoMemory: the destination node could not supply pages.
	ErrNoMemory
	// ErrBadRequest: the request's region failed validation.
	ErrBadRequest
	// ErrBusy: another move of an overlapping region is in flight
	// (EAGAIN semantics — resubmit later).
	ErrBusy
	// ErrTxnDirty: a transactional migration's commit CAS found the page
	// dirtied (or remapped) after the copy baseline; the original mapping
	// is intact and the caller may retry.
	ErrTxnDirty
)

func (e ErrCode) String() string {
	names := [...]string{"ok", "race", "aborted", "nomem", "badreq", "busy", "txn-dirty"}
	if int(e) < len(names) {
		return names[e]
	}
	return fmt.Sprintf("err(%d)", uint8(e))
}

// Class is the QoS class a request's DMA transfers ride in, the shared
// qos vocabulary: lower value is served first at the engine's single
// channel, FIFO within a class, no preemption of an active transfer.
// The alias and the three constants exist for benchmark/, which spells
// uapi.Class* and is frozen outside its own PRs; everything else names
// package qos directly.
type Class = qos.Class

const (
	ClassForeground = qos.Foreground
	ClassBackground = qos.Background
	ClassScavenger  = qos.Scavenger
)

// ReqFlags modify how a request is executed.
type ReqFlags uint8

const (
	// ReqTxn makes an OpMigrate transactional: the page stays mapped and
	// writable during the copy, and the remap is a per-page commit CAS
	// that fails with ErrTxnDirty if the page was dirtied meanwhile.
	ReqTxn ReqFlags = 1 << iota
	// ReqKeepSrc retains the source frame of a committed transactional
	// migration as a shadow copy, enabling later zero-byte demotions
	// while the page stays clean (non-exclusive tiering).
	ReqKeepSrc
)

// MovReq mirrors the mov_req of Figure 3(b): a hardware-independent
// description of one move request. The application populates the request
// fields after AllocRequest; the kernel fills the result fields before
// posting the completion.
type MovReq struct {
	idx uint32 // self index in the area's array

	// Request fields (user-populated).
	Op      Op
	SrcBase int64     // virtual base of the source region
	DstBase int64     // virtual base of the destination region (replication)
	Length  int64     // bytes; a multiple of the page size
	DstNode hw.NodeID // destination memory node (migration)
	Cookie  uint64    // opaque user tag, returned in the notification
	Class   qos.Class // QoS class of the request's DMA transfers
	Flags   ReqFlags  // execution modifiers (ReqTxn, ReqKeepSrc)

	// Result fields (kernel-populated).
	Status    Status
	Err       ErrCode
	FailPage  int64 // page index at which a race/failure was detected
	Submitted sim.Time
	Completed sim.Time
	// MovedBytes counts bytes actually copied by DMA; a transactional
	// migration satisfied entirely by valid shadow copies reports 0.
	MovedBytes int64
	// ZeroCopyPages counts pages committed by PTE flip alone.
	ZeroCopyPages int64

	// Lifecycle stage stamps (virtual time, 0 = stage never reached),
	// the per-request raw material of the stage-latency attribution:
	// Flushed when the request moved staging → submission queue,
	// Dispatched when a kernel context dequeued it, CopyStart when
	// validation and PTE work finished and the first DMA batch was
	// about to be configured, Retrieved when the application collected
	// the completion.
	Flushed    sim.Time
	Dispatched sim.Time
	CopyStart  sim.Time
	Retrieved  sim.Time
}

// Index returns the request's slot index.
func (r *MovReq) Index() uint32 { return r.idx }

// Latency returns completion minus submission time.
func (r *MovReq) Latency() sim.Time { return r.Completed - r.Submitted }

// Stamps returns the request's seven-stage stamp vector (the simulated
// driver has no separate copy-end stamp: the copy ends at Completed).
// Take it before FreeRequest, which yields and may hand the slot to
// another proc.
func (r *MovReq) Stamps() [lifecycle.NumStages]int64 {
	return lifecycle.Stamps(int64(r.Submitted), int64(r.Flushed), int64(r.Dispatched),
		int64(r.CopyStart), int64(r.Completed), int64(r.Completed), int64(r.Retrieved))
}

func (r *MovReq) String() string {
	return fmt.Sprintf("mov_req#%d{%v src=%#x dst=%#x len=%d node=%d %v/%v}",
		r.idx, r.Op, r.SrcBase, r.DstBase, r.Length, r.DstNode, r.Status, r.Err)
}

// Area is the shared interface area of one memif instance.
type Area struct {
	reqs []MovReq
	slab *rbq.Slab

	// FreeList holds unallocated request slots.
	FreeList *rbq.Queue
	// Staging holds submitted requests not yet known to the kernel. It
	// is the red-blue queue: blue means the application must flush it,
	// red means the kernel worker will.
	Staging *rbq.Queue
	// Submission holds requests known to the kernel, waiting to be
	// served.
	Submission *rbq.Queue
	// CompOK and CompFail hold completed requests posted back to the
	// application (the paper implements the completion queue as two).
	CompOK   *rbq.Queue
	CompFail *rbq.Queue
}

// NewArea builds the shared area with nReqs request slots.
func NewArea(nReqs int) *Area {
	if nReqs < 1 {
		panic("uapi: need at least one request slot")
	}
	// Each request can sit in at most one queue; 5 queues consume a
	// dummy node each; small slack for in-flight node handoff.
	slab := rbq.NewSlab(nReqs + 5 + 8)
	a := &Area{
		reqs:       make([]MovReq, nReqs),
		slab:       slab,
		FreeList:   slab.NewQueue(rbq.Blue),
		Staging:    slab.NewQueue(rbq.Blue),
		Submission: slab.NewQueue(rbq.Blue),
		CompOK:     slab.NewQueue(rbq.Blue),
		CompFail:   slab.NewQueue(rbq.Blue),
	}
	for i := range a.reqs {
		a.reqs[i].idx = uint32(i)
		if _, ok := a.FreeList.Enqueue(uint32(i)); !ok {
			panic("uapi: slab sized too small for free list")
		}
	}
	return a
}

// NumReqs returns the number of request slots.
func (a *Area) NumReqs() int { return len(a.reqs) }

// Req validates an index coming off a queue and returns the request.
// This is the validation step Section 4.2 relies on for safety.
func (a *Area) Req(idx uint32) (*MovReq, bool) {
	if int(idx) >= len(a.reqs) {
		return nil, false
	}
	return &a.reqs[idx], true
}

// Audit verifies the area's conservation invariant on a quiescent
// snapshot: every request index is in exactly one of {free list,
// staging, submission, comp-ok, comp-fail, caller-held}. held lists the
// indices the caller believes the application currently owns (allocated
// or retrieved but not yet freed or re-enqueued). Call only while no
// queue operation is in flight — the walk is not atomic. This is the
// "no index may ever vanish" assertion shared by the uapi invariant
// tests and core's randomized workout.
func (a *Area) Audit(held []uint32) error {
	owner := make([]string, len(a.reqs))
	claim := func(idx uint32, who string) error {
		if int(idx) >= len(a.reqs) {
			return fmt.Errorf("uapi: audit: index %d out of range (seen in %s)", idx, who)
		}
		if owner[idx] != "" {
			return fmt.Errorf("uapi: audit: index %d in two places: %s and %s", idx, owner[idx], who)
		}
		owner[idx] = who
		return nil
	}
	for _, qi := range []struct {
		name string
		q    *rbq.Queue
	}{
		{"free", a.FreeList},
		{"staging", a.Staging},
		{"submission", a.Submission},
		{"comp-ok", a.CompOK},
		{"comp-fail", a.CompFail},
	} {
		for _, idx := range qi.q.Snapshot() {
			if err := claim(idx, qi.name); err != nil {
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
			return fmt.Errorf("uapi: audit: index %d vanished: in no queue and not user-held", i)
		}
	}
	return nil
}

// AllocReq takes a request slot off the free list. Returns nil when all
// slots are in use.
func (a *Area) AllocReq() *MovReq {
	idx, ok := a.FreeList.Dequeue()
	if !ok {
		return nil
	}
	r := &a.reqs[idx]
	*r = MovReq{idx: r.idx, Status: StatusFree}
	return r
}

// FreeReq returns a slot to the free list. Freeing a request that is
// still queued or in flight is a caller bug.
func (a *Area) FreeReq(r *MovReq) {
	switch r.Status {
	case StatusStaged, StatusSubmitted, StatusInFlight:
		panic(fmt.Sprintf("uapi: freeing active %v", r))
	}
	r.Status = StatusFree
	if _, ok := a.FreeList.Enqueue(r.idx); !ok {
		panic("uapi: free list full on FreeReq")
	}
}
