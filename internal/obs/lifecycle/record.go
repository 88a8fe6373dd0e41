package lifecycle

import (
	"encoding/json"
	"fmt"
	"sort"
	"sync/atomic"
)

// The captured record and the ring that holds it. A finished request is
// captured for one of two reasons — it was the 1-in-2^shift sample, or
// the flight recorder found it past its lane's threshold — and both
// land in the same record type, in two instances of the same ring (a
// shared one would let thousands of samples a second evict every
// outlier). Watchdog stall reports and domain events reuse the record
// with a typed reason and no stamp vector, so the outlier ring stays
// one chronological account of what went wrong.

// Kind says what a captured record describes.
type Kind uint8

const (
	// KindLatency is a completed request; the stamp vector is its own.
	// In the outlier ring its total latency breached the adaptive
	// threshold, in the sampled ring it was the sampling pick.
	KindLatency Kind = iota
	// KindStall is a watchdog snapshot: no single request, but the
	// device was wedged in a recognizable way.
	KindStall
	// KindEvent is a domain event captured by a client (swapd txn
	// aborts, promotion-lag breaches).
	KindEvent
	numKinds
)

var kindNames = [numKinds]string{"latency", "stall", "event"}

func (k Kind) String() string { return enumName(kindNames[:], "kind", uint8(k)) }

// MarshalJSON renders the kind as its name so /debug/outliers stays
// readable without a decoder ring.
func (k Kind) MarshalJSON() ([]byte, error) { return json.Marshal(k.String()) }

// UnmarshalJSON accepts either the name or the raw number.
func (k *Kind) UnmarshalJSON(b []byte) error {
	v, err := parseEnum(kindNames[:], "kind", b)
	*k = Kind(v)
	return err
}

// Reason types a stall or event record.
type Reason uint8

const (
	// ReasonNone marks plain latency records.
	ReasonNone Reason = iota
	// ReasonWorkerStall: queues non-empty, zero dispatch progress for
	// consecutive watchdog ticks.
	ReasonWorkerStall
	// ReasonCompletionBacklog: a completion ring at or above the
	// high-water fraction of its capacity for consecutive ticks.
	ReasonCompletionBacklog
	// ReasonPollerStarvation: completions waiting, zero retrieval
	// progress for consecutive ticks.
	ReasonPollerStarvation
	// ReasonTxnAbort: a transactional migration aborted by racing
	// application writes (swapd).
	ReasonTxnAbort
	// ReasonPromotionLag: a promotion committed long after its region
	// turned hot (swapd).
	ReasonPromotionLag
	numReasons
)

var reasonNames = [numReasons]string{
	"none", "worker_stall", "completion_backlog", "poller_starvation",
	"txn_abort", "promotion_lag",
}

func (r Reason) String() string { return enumName(reasonNames[:], "reason", uint8(r)) }

// MarshalJSON renders the reason as its name.
func (r Reason) MarshalJSON() ([]byte, error) { return json.Marshal(r.String()) }

// UnmarshalJSON accepts either the name or the raw number.
func (r *Reason) UnmarshalJSON(b []byte) error {
	v, err := parseEnum(reasonNames[:], "reason", b)
	*r = Reason(v)
	return err
}

func enumName(names []string, what string, v uint8) string {
	if int(v) < len(names) {
		return names[v]
	}
	return fmt.Sprintf("%s(%d)", what, v)
}

func parseEnum(names []string, what string, b []byte) (uint8, error) {
	var s string
	if err := json.Unmarshal(b, &s); err == nil {
		for i, n := range names {
			if n == s {
				return uint8(i), nil
			}
		}
		return 0, fmt.Errorf("lifecycle: unknown %s %q", what, s)
	}
	var v uint8
	err := json.Unmarshal(b, &v)
	return v, err
}

// MaxClasses bounds the per-class arrays of a record and of the flight
// recorder's lanes. The realtime device uses 3 QoS classes; swapd
// borrows lane 3 for promotion-lag tracking, so it is sized one wider.
const MaxClasses = 4

// Ambient is the device state snapshotted alongside an outlier: the
// congestion picture at capture time, so a slow request can be read in
// context ("the ring was 7/8 full and scavengers held 40 slots").
type Ambient struct {
	StagingDepth    int64             `json:"staging_depth"`
	SubmissionDepth int64             `json:"submission_depth"`
	CompletionDepth int64             `json:"completion_depth"`
	RingDepth       int64             `json:"ring_depth"`
	ClassInFlight   [MaxClasses]int64 `json:"class_in_flight"`
}

// FlagInline is the one request-path flag recorded on a lifecycle:
// the worker copied the request inline instead of dispatching chunks to
// the controllers. Outlier forensics reads it as "slow because it was
// NOT inlined" when it is clear.
const FlagInline uint32 = 1 << 0

// Lifecycle is one captured record: a finished request's identity (the
// slot it ran in, priority class — 0 on pipelines without classes —
// tenant, payload size), its outcome and path flags, and its raw stage
// timestamps (0 = stage never reached). The flight recorder adds the
// latency it judged, the threshold that latency breached and the
// ambient device state; a sampled record leaves Ambient zero. Stall and
// event records reuse the shape with a typed reason and whatever
// identity fields apply. The JSON names are the /debug/outliers wire
// format.
type Lifecycle struct {
	// Seq is the capture ticket: a dense, monotonically increasing id
	// the ring assigns at Push. Snapshot returns records in Seq order.
	Seq    uint64 `json:"seq"`
	Kind   Kind   `json:"kind"`
	Reason Reason `json:"reason"`
	// Nano is the capture timestamp (device clock: wall ns for the
	// realtime device, virtual ns for swapd and streamrt).
	Nano        int64   `json:"nano"`
	Slot        int     `json:"slot"`
	Class       int     `json:"class"`
	Tenant      int     `json:"tenant"`
	Bytes       int64   `json:"bytes"`
	Outcome     Outcome `json:"outcome"`
	Flags       uint32  `json:"flags"`
	LatencyNs   int64   `json:"latency_ns"`
	ThresholdNs int64   `json:"threshold_ns"`
	// TS is the seven-stage stamp vector, indexed by Stage.
	TS      [NumStages]int64 `json:"ts"`
	Ambient Ambient          `json:"ambient"`
}

// ringSlot is one ring entry with every field atomic, so no capture
// path takes a lock and the race detector has nothing to object to.
// seq is the slot's seqlock word: the ticket of the record the fields
// hold, 0 before the first, slotBusy while a writer owns the fields.
type ringSlot struct {
	seq     atomic.Uint64
	nano    atomic.Int64
	slot    atomic.Int64
	class   atomic.Int64
	tenant  atomic.Int64
	bytes   atomic.Int64
	lat     atomic.Int64
	thr     atomic.Int64
	flags   atomic.Uint32
	kind    atomic.Uint32
	reason  atomic.Uint32
	outcome atomic.Uint32
	ts      [NumStages]atomic.Int64
	amb     [4 + MaxClasses]atomic.Int64
}

const slotBusy = ^uint64(0)

// store publishes lc into the slot. The writer claims the fields by
// swinging seq to slotBusy and releases them by storing its ticket, so
// two writers never interleave in one slot. A writer that finds the
// slot claimed, or already holding a later ticket, leaves it alone: it
// met a writer exactly one ring depth away from it, and either its
// record is the older one (it would be overwritten at once) or the ring
// wrapped inside one ~30-store window and keeps the record it has.
func (s *ringSlot) store(lc *Lifecycle) {
	cur := s.seq.Load()
	if cur == slotBusy || cur > lc.Seq || !s.seq.CompareAndSwap(cur, slotBusy) {
		return
	}
	s.nano.Store(lc.Nano)
	s.slot.Store(int64(lc.Slot))
	s.class.Store(int64(lc.Class))
	s.tenant.Store(int64(lc.Tenant))
	s.bytes.Store(lc.Bytes)
	s.lat.Store(lc.LatencyNs)
	s.thr.Store(lc.ThresholdNs)
	s.flags.Store(lc.Flags)
	s.kind.Store(uint32(lc.Kind))
	s.reason.Store(uint32(lc.Reason))
	s.outcome.Store(uint32(lc.Outcome))
	for i := range s.ts {
		s.ts[i].Store(lc.TS[i])
	}
	s.amb[0].Store(lc.Ambient.StagingDepth)
	s.amb[1].Store(lc.Ambient.SubmissionDepth)
	s.amb[2].Store(lc.Ambient.CompletionDepth)
	s.amb[3].Store(lc.Ambient.RingDepth)
	for i := 0; i < MaxClasses; i++ {
		s.amb[4+i].Store(lc.Ambient.ClassInFlight[i])
	}
	s.seq.Store(lc.Seq)
}

// load copies the slot's record out, or reports false when the slot is
// empty, claimed, or was rewritten during the copy: seq is read again
// after the fields, and only an unchanged ticket proves they all belong
// to it.
func (s *ringSlot) load() (Lifecycle, bool) {
	seq := s.seq.Load()
	if seq == 0 || seq == slotBusy {
		return Lifecycle{}, false
	}
	lc := Lifecycle{
		Seq:         seq,
		Kind:        Kind(s.kind.Load()),
		Reason:      Reason(s.reason.Load()),
		Nano:        s.nano.Load(),
		Slot:        int(s.slot.Load()),
		Class:       int(s.class.Load()),
		Tenant:      int(s.tenant.Load()),
		Bytes:       s.bytes.Load(),
		Outcome:     Outcome(s.outcome.Load()),
		Flags:       s.flags.Load(),
		LatencyNs:   s.lat.Load(),
		ThresholdNs: s.thr.Load(),
	}
	for i := range lc.TS {
		lc.TS[i] = s.ts[i].Load()
	}
	lc.Ambient = Ambient{
		StagingDepth:    s.amb[0].Load(),
		SubmissionDepth: s.amb[1].Load(),
		CompletionDepth: s.amb[2].Load(),
		RingDepth:       s.amb[3].Load(),
	}
	for i := 0; i < MaxClasses; i++ {
		lc.Ambient.ClassInFlight[i] = s.amb[4+i].Load()
	}
	return lc, s.seq.Load() == seq
}

// Ring is a bounded lock-free ring of captured records, overwriting the
// oldest. Push is wait-free and allocation-free from any goroutine;
// Snapshot may run concurrently with it.
type Ring struct {
	head  atomic.Uint64 // last ticket drawn; its slot is (ticket-1)&mask
	slots []ringSlot
	mask  uint64
}

// NewRing returns a ring of at least depth records (rounded up to a
// power of two so the slot index is a mask).
func NewRing(depth int) *Ring {
	d := 1
	for d < depth {
		d <<= 1
	}
	return &Ring{slots: make([]ringSlot, d), mask: uint64(d - 1)}
}

// Depth is the number of records the ring retains; Pushed how many it
// was ever handed.
func (g *Ring) Depth() int     { return len(g.slots) }
func (g *Ring) Pushed() uint64 { return g.head.Load() }

// Push stores lc, assigning lc.Seq. The caller keeps ownership of lc
// (pass a stack value); nothing is retained.
func (g *Ring) Push(lc *Lifecycle) {
	lc.Seq = g.head.Add(1)
	g.slots[(lc.Seq-1)&g.mask].store(lc)
}

// Snapshot returns the retained records in Seq order. Every record it
// returns is whole — exactly the fields one Push stored; a slot being
// rewritten during the scan is skipped, so under concurrent pushes the
// newest records may be missing from one snapshot, never mixed.
func (g *Ring) Snapshot() []Lifecycle {
	var out []Lifecycle
	for i := range g.slots {
		if lc, ok := g.slots[i].load(); ok {
			out = append(out, lc)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Seq < out[j].Seq })
	return out
}
