// Package flight is the always-on flight recorder: retroactive
// tail-latency forensics for the realtime pipeline and the tiering
// daemon.
//
// Lifecycle sampling (package lifecycle) answers "where does a
// *typical* request spend its time" by deriving span histograms from
// 1/128 of requests. It cannot answer "why was *this* request slow" —
// at 1/128 the p99.9 outlier is almost never sampled. The flight
// recorder closes that gap with three cooperating pieces:
//
//   - Retroactive outlier capture. Every request carries its stage
//     stamps on its own record (plain fields fed by amortized clocks;
//     only sampled requests read fresh ones); at retrieval the total
//     latency is compared against an adaptive per-(class,tenant)
//     threshold — an EWMA of recent completions, scaled by a
//     multiplier and clamped by a floor. A breaching request has its
//     full seven-stage stamp vector plus ambient device state copied
//     into a bounded lock-free ring. Sampling still feeds the
//     aggregate histograms; every outlier is explained.
//
//   - Stall watchdog. A monitor goroutine ticks a Watchdog with a
//     cheap progress probe; a worker making no dispatch progress while
//     queues are non-empty, a completion ring above high water for N
//     consecutive ticks, or a poller retrieving nothing while
//     completions wait each snapshot device state into the same ring
//     with a typed reason.
//
//   - SLO tracker. Per-class latency objectives with multi-window
//     burn-rate accounting (good/total deltas against per-window
//     history rings), per tenant as well as per class, exported as the
//     memif_realtime_slo_* series.
//
// Everything here is nil-safe: a nil *Recorder or *Watchdog turns
// every method into a no-op, so callers gate arming once at
// construction and never branch again.
package flight

import (
	"encoding/json"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"memif/internal/obs/lifecycle"
)

// Kind says what put a record into the ring.
type Kind uint8

const (
	// KindLatency is a completed request whose total latency breached
	// the adaptive threshold; the stamp vector is complete.
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

func (k Kind) String() string {
	if int(k) < len(kindNames) {
		return kindNames[k]
	}
	return fmt.Sprintf("kind(%d)", int(k))
}

// MarshalJSON renders the kind as its name so /debug/outliers stays
// readable without a decoder ring.
func (k Kind) MarshalJSON() ([]byte, error) { return json.Marshal(k.String()) }

// UnmarshalJSON accepts either the name or the raw number.
func (k *Kind) UnmarshalJSON(b []byte) error {
	var s string
	if err := json.Unmarshal(b, &s); err == nil {
		for i, n := range kindNames {
			if n == s {
				*k = Kind(i)
				return nil
			}
		}
		return fmt.Errorf("flight: unknown kind %q", s)
	}
	var v uint8
	if err := json.Unmarshal(b, &v); err != nil {
		return err
	}
	*k = Kind(v)
	return nil
}

// Reason types a stall or event record.
type Reason uint8

const (
	// ReasonNone marks plain latency outliers.
	ReasonNone Reason = iota
	// ReasonWorkerStall: queues non-empty, zero dispatch progress for
	// StallTicks consecutive watchdog ticks.
	ReasonWorkerStall
	// ReasonCompletionBacklog: a completion ring at or above the
	// high-water fraction of its capacity for StallTicks ticks.
	ReasonCompletionBacklog
	// ReasonPollerStarvation: completions waiting, zero retrieval
	// progress for StallTicks ticks.
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

func (r Reason) String() string {
	if int(r) < len(reasonNames) {
		return reasonNames[r]
	}
	return fmt.Sprintf("reason(%d)", int(r))
}

// MarshalJSON renders the reason as its name.
func (r Reason) MarshalJSON() ([]byte, error) { return json.Marshal(r.String()) }

// UnmarshalJSON accepts either the name or the raw number.
func (r *Reason) UnmarshalJSON(b []byte) error {
	var s string
	if err := json.Unmarshal(b, &s); err == nil {
		for i, n := range reasonNames {
			if n == s {
				*r = Reason(i)
				return nil
			}
		}
		return fmt.Errorf("flight: unknown reason %q", s)
	}
	var v uint8
	if err := json.Unmarshal(b, &v); err != nil {
		return err
	}
	*r = Reason(v)
	return nil
}

// MaxClasses bounds the per-class lane and SLO arrays. The realtime
// device uses 3 QoS classes; swapd borrows lane 3 for promotion-lag
// tracking, so the recorder is sized one wider.
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

// Outlier is one captured record: a breaching request's identity, its
// full stamp vector, the threshold it breached, and the ambient device
// state. Stall and event records reuse the shape with a typed reason
// and whatever identity fields apply.
type Outlier struct {
	// Seq is the capture ticket: a dense, monotonically increasing id
	// assigned at push. Snapshot returns records in Seq order.
	Seq    uint64 `json:"seq"`
	Kind   Kind   `json:"kind"`
	Reason Reason `json:"reason"`
	// Nano is the capture timestamp (device clock: wall ns for the
	// realtime device, virtual ns for swapd).
	Nano   int64  `json:"nano"`
	Slot   int32  `json:"slot"`
	Class  int32  `json:"class"`
	Tenant uint32 `json:"tenant"`
	Bytes  int64  `json:"bytes"`
	// Outcome is the lifecycle outcome code (lifecycle.Outcome).
	Outcome int32 `json:"outcome"`
	// Flags carries lifecycle.Flag* bits (inline-completed, stolen).
	Flags       uint32 `json:"flags"`
	LatencyNs   int64  `json:"latency_ns"`
	ThresholdNs int64  `json:"threshold_ns"`
	// TS is the seven-stage stamp vector (lifecycle stage order);
	// zero entries mean the stage was never reached.
	TS      [lifecycle.NumStages]int64 `json:"ts"`
	Ambient Ambient                    `json:"ambient"`
}

// Options configures a Recorder. The zero value means "armed with
// defaults"; set Disable to opt out entirely.
type Options struct {
	// Disable turns the recorder off; New returns nil and every
	// call site no-ops.
	Disable bool
	// RingDepth bounds the outlier ring (rounded up to a power of
	// two). Default 512.
	RingDepth int
	// ThresholdFloorNs clamps the adaptive threshold from below so a
	// fast lane doesn't flag microsecond jitter as outliers.
	// Default 50µs.
	ThresholdFloorNs int64
	// ThresholdMult scales the lane EWMA into the breach threshold:
	// threshold = max(floor, mult × ewma). Default 4.
	ThresholdMult int64
	// EWMAShift is the EWMA decay: ewma += (lat - ewma) >> shift.
	// Default 3 (α = 1/8).
	EWMAShift int
	// Warmup is the number of OK completions a (class,tenant) lane
	// must see before breaches arm; the first requests of a cold lane
	// train the EWMA instead of flooding the ring. Default 16.
	Warmup int64
	// Classes is how many class lanes are live (≤ MaxClasses);
	// out-of-range classes clamp to 0. Default MaxClasses.
	Classes int
	// SLO configures objective tracking; Watchdog the stall monitor
	// thresholds (the Watchdog itself is a separate object driven by
	// the owner's monitor loop).
	SLO      SLOOptions
	Watchdog WatchdogOptions
}

// SLOOptions configures burn-rate tracking.
type SLOOptions struct {
	// Disable turns SLO accounting off while leaving outlier capture
	// armed.
	Disable bool
	// ClassObjectiveNs is the latency objective per class; 0 leaves a
	// class untracked. If every entry is zero the defaults apply:
	// 2ms foreground, 20ms background, 100ms scavenger.
	ClassObjectiveNs [MaxClasses]int64
	// BudgetFraction is the error budget: burn rate 1.0 means the
	// bad-request fraction exactly consumes budget. Default 0.001
	// (99.9% objective).
	BudgetFraction float64
	// Windows are the burn-rate windows. Default 1s, 10s, 60s.
	Windows []time.Duration
}

// WatchdogOptions configures stall detection.
type WatchdogOptions struct {
	// Disable turns the watchdog off.
	Disable bool
	// HighWaterFraction is the completion-backlog trip point as a
	// fraction of ring capacity. Default 0.75.
	HighWaterFraction float64
	// StallTicks is how many consecutive bad ticks arm a report.
	// Default 3.
	StallTicks int
}

func (o Options) withDefaults() Options {
	if o.RingDepth <= 0 {
		o.RingDepth = 512
	}
	// Round up to a power of two so the ring index is a mask.
	d := 1
	for d < o.RingDepth {
		d <<= 1
	}
	o.RingDepth = d
	if o.ThresholdFloorNs <= 0 {
		o.ThresholdFloorNs = 50_000
	}
	if o.ThresholdMult <= 0 {
		o.ThresholdMult = 4
	}
	if o.EWMAShift <= 0 {
		o.EWMAShift = 3
	}
	if o.Warmup <= 0 {
		o.Warmup = 16
	}
	if o.Classes <= 0 || o.Classes > MaxClasses {
		o.Classes = MaxClasses
	}
	zero := true
	for _, v := range o.SLO.ClassObjectiveNs {
		if v != 0 {
			zero = false
		}
	}
	if zero {
		o.SLO.ClassObjectiveNs = [MaxClasses]int64{2e6, 20e6, 100e6, 0}
	}
	if o.SLO.BudgetFraction <= 0 {
		o.SLO.BudgetFraction = 0.001
	}
	if len(o.SLO.Windows) == 0 {
		o.SLO.Windows = []time.Duration{time.Second, 10 * time.Second, 60 * time.Second}
	}
	if o.Watchdog.HighWaterFraction <= 0 || o.Watchdog.HighWaterFraction > 1 {
		o.Watchdog.HighWaterFraction = 0.75
	}
	if o.Watchdog.StallTicks <= 0 {
		o.Watchdog.StallTicks = 3
	}
	return o
}

// lane is one (class,tenant) EWMA cell. Updates are racy-lossy by
// design: two concurrent completions may each fold into the same old
// value and one update wins — the EWMA converges regardless, and the
// hot path pays two atomic loads and two stores, no RMW contention.
type lane struct {
	ewma  atomic.Int64
	count atomic.Int64
}

// tenantLanes is one tenant's row: a lane per class plus the tenant's
// SLO good/total counters.
type tenantLanes struct {
	lane  [MaxClasses]lane
	good  atomic.Int64
	total atomic.Int64
}

// slotRec is one ring slot with every field atomic, seq stored last
// with release ordering. A reader that loads a matching seq sees the
// fields of that capture; a slot being overwritten concurrently can
// surface a torn record only across ring wrap, where the seq check
// filters it. No field is ever read non-atomically, so the race
// detector is satisfied without a lock on the capture path.
type slotRec struct {
	seq     atomic.Uint64
	nano    atomic.Int64
	bytes   atomic.Int64
	lat     atomic.Int64
	thr     atomic.Int64
	slot    atomic.Int32
	class   atomic.Int32
	outcome atomic.Int32
	tenant  atomic.Uint32
	flags   atomic.Uint32
	kind    atomic.Uint32
	reason  atomic.Uint32
	ts      [lifecycle.NumStages]atomic.Int64
	amb     [4 + MaxClasses]atomic.Int64
}

func (s *slotRec) store(seq uint64, o *Outlier) {
	s.seq.Store(0) // invalidate while the fields are in flux
	s.nano.Store(o.Nano)
	s.bytes.Store(o.Bytes)
	s.lat.Store(o.LatencyNs)
	s.thr.Store(o.ThresholdNs)
	s.slot.Store(o.Slot)
	s.class.Store(o.Class)
	s.outcome.Store(o.Outcome)
	s.tenant.Store(o.Tenant)
	s.flags.Store(o.Flags)
	s.kind.Store(uint32(o.Kind))
	s.reason.Store(uint32(o.Reason))
	for i := range s.ts {
		s.ts[i].Store(o.TS[i])
	}
	s.amb[0].Store(o.Ambient.StagingDepth)
	s.amb[1].Store(o.Ambient.SubmissionDepth)
	s.amb[2].Store(o.Ambient.CompletionDepth)
	s.amb[3].Store(o.Ambient.RingDepth)
	for i := 0; i < MaxClasses; i++ {
		s.amb[4+i].Store(o.Ambient.ClassInFlight[i])
	}
	s.seq.Store(seq)
}

func (s *slotRec) load() (Outlier, bool) {
	seq := s.seq.Load()
	if seq == 0 {
		return Outlier{}, false
	}
	o := Outlier{
		Seq:         seq,
		Kind:        Kind(s.kind.Load()),
		Reason:      Reason(s.reason.Load()),
		Nano:        s.nano.Load(),
		Slot:        s.slot.Load(),
		Class:       s.class.Load(),
		Tenant:      s.tenant.Load(),
		Bytes:       s.bytes.Load(),
		Outcome:     s.outcome.Load(),
		Flags:       s.flags.Load(),
		LatencyNs:   s.lat.Load(),
		ThresholdNs: s.thr.Load(),
	}
	for i := range o.TS {
		o.TS[i] = s.ts[i].Load()
	}
	o.Ambient = Ambient{
		StagingDepth:    s.amb[0].Load(),
		SubmissionDepth: s.amb[1].Load(),
		CompletionDepth: s.amb[2].Load(),
		RingDepth:       s.amb[3].Load(),
	}
	for i := 0; i < MaxClasses; i++ {
		o.Ambient.ClassInFlight[i] = s.amb[4+i].Load()
	}
	return o, true
}

// Recorder is the flight recorder: adaptive thresholds, the outlier
// ring, and SLO accounting. All methods are safe on a nil receiver.
type Recorder struct {
	opts  Options
	shift uint
	floor int64
	mult  int64
	warm  int64

	head atomic.Uint64 // capture ticket; ring index is (ticket-1)&mask
	ring []slotRec
	mask uint64

	breaches atomic.Int64 // Observe returned breach=true
	stalls   atomic.Int64 // CaptureStall calls
	events   atomic.Int64 // CaptureEvent calls
	captured atomic.Int64 // ring pushes (all kinds)

	// lanes is the COW tenant table: readers load once, EnsureTenants
	// grows under laneMu. Index 0 is the default tenant.
	laneMu sync.Mutex
	lanes  atomic.Pointer[[]*tenantLanes]

	sloEnabled bool
	objectives [MaxClasses]int64
	budget     float64
	classGood  [MaxClasses]atomic.Int64
	classTotal [MaxClasses]atomic.Int64

	winMu   sync.Mutex
	windows []*wring
}

// New builds a Recorder, or returns nil when opts.Disable is set — the
// nil recorder is the disabled recorder.
func New(opts Options) *Recorder {
	if opts.Disable {
		return nil
	}
	opts = opts.withDefaults()
	r := &Recorder{
		opts:  opts,
		shift: uint(opts.EWMAShift),
		floor: opts.ThresholdFloorNs,
		mult:  opts.ThresholdMult,
		warm:  opts.Warmup,
		ring:  make([]slotRec, opts.RingDepth),
		mask:  uint64(opts.RingDepth - 1),
	}
	tab := []*tenantLanes{new(tenantLanes)}
	r.lanes.Store(&tab)
	if !opts.SLO.Disable {
		r.sloEnabled = true
		r.objectives = opts.SLO.ClassObjectiveNs
		r.budget = opts.SLO.BudgetFraction
		for _, w := range opts.SLO.Windows {
			r.windows = append(r.windows, newWring(int64(w)))
		}
	}
	return r
}

// EnsureTenants grows the lane table to cover at least n tenants.
// Existing lanes keep their state; growth is copy-on-write so Observe
// never sees a table mid-append.
func (r *Recorder) EnsureTenants(n int) {
	if r == nil || n <= 0 {
		return
	}
	r.laneMu.Lock()
	defer r.laneMu.Unlock()
	old := *r.lanes.Load()
	if len(old) >= n {
		return
	}
	tab := make([]*tenantLanes, n)
	copy(tab, old)
	for i := len(old); i < n; i++ {
		tab[i] = new(tenantLanes)
	}
	r.lanes.Store(&tab)
}

// Observe folds one completed request into the recorder: the lane
// EWMA (OK outcomes only — a canceled request's latency says nothing
// about the lane), SLO accounting, and the breach decision. It returns
// the threshold in force and whether the latency breached it; the
// caller captures on breach. Zero-allocation, lock-free.
func (r *Recorder) Observe(class, tenant int, latNs int64, ok bool) (thresholdNs int64, breach bool) {
	if r == nil {
		return 0, false
	}
	if latNs < 0 {
		latNs = 0
	}
	if class < 0 || class >= r.opts.Classes {
		class = 0
	}
	tab := *r.lanes.Load()
	if tenant < 0 || tenant >= len(tab) {
		tenant = 0
	}
	tl := tab[tenant]
	ln := &tl.lane[class]
	old := ln.ewma.Load()
	n := ln.count.Load()
	thresholdNs = old * r.mult
	if thresholdNs < r.floor {
		thresholdNs = r.floor
	}
	if ok {
		if n == 0 {
			ln.ewma.Store(latNs)
		} else {
			ln.ewma.Store(old + (latNs-old)>>r.shift)
		}
		ln.count.Store(n + 1)
		if r.sloEnabled {
			if obj := r.objectives[class]; obj > 0 {
				r.classTotal[class].Add(1)
				tl.total.Add(1)
				if latNs <= obj {
					r.classGood[class].Add(1)
					tl.good.Add(1)
				}
			}
		}
	}
	if n < r.warm {
		return thresholdNs, false
	}
	breach = latNs > thresholdNs
	if breach {
		r.breaches.Add(1)
	}
	return thresholdNs, breach
}

// Capture pushes o into the ring, assigning its Seq. The caller keeps
// ownership of o (pass a stack value); nothing is retained, nothing
// allocates.
func (r *Recorder) Capture(o *Outlier) {
	if r == nil {
		return
	}
	seq := r.head.Add(1)
	r.ring[(seq-1)&r.mask].store(seq, o)
	r.captured.Add(1)
}

// ObserveLane is Observe plus the capture for clients that complete one
// request at a time on the simulated clock (swapd, streamrt): a
// successful request's latency trains lane (class, tenant), and a breach
// captures its stamp vector with the ambient picture, stamped at the
// request's completion time. reason types the lane's records
// (ReasonNone for plain request latency).
func (r *Recorder) ObserveLane(reason Reason, class, tenant int, latNs, bytes int64, ts *[lifecycle.NumStages]int64, amb Ambient) {
	thr, breach := r.Observe(class, tenant, latNs, true)
	if !breach {
		return
	}
	r.Capture(&Outlier{
		Reason:      reason,
		Nano:        ts[lifecycle.StageCompleted],
		Slot:        -1,
		Class:       int32(class),
		Tenant:      uint32(tenant),
		Bytes:       bytes,
		LatencyNs:   latNs,
		ThresholdNs: thr,
		TS:          *ts,
		Ambient:     amb,
	})
}

// CaptureStall records a watchdog finding: no single request, just the
// typed reason and the ambient congestion picture.
func (r *Recorder) CaptureStall(reason Reason, nano int64, amb Ambient) {
	if r == nil {
		return
	}
	r.stalls.Add(1)
	o := Outlier{Kind: KindStall, Reason: reason, Nano: nano, Slot: -1, Class: -1, Ambient: amb}
	r.Capture(&o)
}

// CaptureEvent records a domain event (swapd txn abort, promotion
// lag); o.Kind is forced to KindEvent.
func (r *Recorder) CaptureEvent(o *Outlier) {
	if r == nil {
		return
	}
	r.events.Add(1)
	o.Kind = KindEvent
	r.Capture(o)
}

// Tick advances the SLO window rings; the owner's monitor loop calls
// it periodically with the device clock. Zero-allocation.
func (r *Recorder) Tick(nano int64) {
	if r == nil || !r.sloEnabled {
		return
	}
	r.winMu.Lock()
	for _, w := range r.windows {
		if w.n != 0 && nano-w.last < w.interval {
			continue
		}
		e := &w.entries[w.n%windowEntries]
		e.nano = nano
		for c := 0; c < MaxClasses; c++ {
			e.classGood[c] = r.classGood[c].Load()
			e.classTotal[c] = r.classTotal[c].Load()
		}
		tab := *r.lanes.Load()
		nt := len(tab)
		if nt > maxWindowTenants {
			nt = maxWindowTenants
		}
		for t := 0; t < nt; t++ {
			e.tenGood[t] = tab[t].good.Load()
			e.tenTotal[t] = tab[t].total.Load()
		}
		w.n++
		w.last = nano
	}
	r.winMu.Unlock()
}

// LaneThreshold is one active lane's adaptive state.
type LaneThreshold struct {
	Class       int   `json:"class"`
	Tenant      int   `json:"tenant"`
	EWMANs      int64 `json:"ewma_ns"`
	ThresholdNs int64 `json:"threshold_ns"`
	Count       int64 `json:"count"`
}

// WindowBurn is the burn rate over one window. Burn 1.0 means the
// bad-request fraction over the window exactly consumes the budget.
type WindowBurn struct {
	WindowNs int64   `json:"window_ns"`
	Burn     float64 `json:"burn"`
}

// ClassSLO is one class's objective state.
type ClassSLO struct {
	Class       int          `json:"class"`
	ObjectiveNs int64        `json:"objective_ns"`
	Good        int64        `json:"good"`
	Total       int64        `json:"total"`
	Burn        []WindowBurn `json:"burn"`
}

// TenantSLO is one tenant's objective state. Windowed reports whether
// per-window history was kept (the first maxWindowTenants tenants);
// beyond the cap Burn carries a single cumulative entry (WindowNs 0).
type TenantSLO struct {
	Tenant   int          `json:"tenant"`
	Good     int64        `json:"good"`
	Total    int64        `json:"total"`
	Windowed bool         `json:"windowed"`
	Burn     []WindowBurn `json:"burn"`
}

// SLOSnapshot is the burn-rate view.
type SLOSnapshot struct {
	Enabled        bool        `json:"enabled"`
	BudgetFraction float64     `json:"budget_fraction"`
	Classes        []ClassSLO  `json:"classes"`
	Tenants        []TenantSLO `json:"tenants"`
}

// Snapshot is a point-in-time copy of the recorder: counters, the ring
// contents in capture order, active lane thresholds, and SLO state.
type Snapshot struct {
	Enabled    bool            `json:"enabled"`
	RingDepth  int             `json:"ring_depth"`
	Breaches   int64           `json:"breaches"`
	Stalls     int64           `json:"stalls"`
	Events     int64           `json:"events"`
	Captured   int64           `json:"captured"`
	Outliers   []Outlier       `json:"outliers"`
	Thresholds []LaneThreshold `json:"thresholds"`
	SLO        SLOSnapshot     `json:"slo"`
}

// Snapshot copies the recorder state. Safe to call concurrently with
// captures; records overwritten mid-scan are skipped.
func (r *Recorder) Snapshot() Snapshot {
	if r == nil {
		return Snapshot{}
	}
	s := Snapshot{
		Enabled:   true,
		RingDepth: len(r.ring),
		Breaches:  r.breaches.Load(),
		Stalls:    r.stalls.Load(),
		Events:    r.events.Load(),
		Captured:  r.captured.Load(),
	}
	for i := range r.ring {
		if o, ok := r.ring[i].load(); ok {
			s.Outliers = append(s.Outliers, o)
		}
	}
	sort.Slice(s.Outliers, func(i, j int) bool { return s.Outliers[i].Seq < s.Outliers[j].Seq })
	tab := *r.lanes.Load()
	for t, tl := range tab {
		for c := 0; c < r.opts.Classes; c++ {
			ln := &tl.lane[c]
			cnt := ln.count.Load()
			if cnt == 0 {
				continue
			}
			ew := ln.ewma.Load()
			thr := ew * r.mult
			if thr < r.floor {
				thr = r.floor
			}
			s.Thresholds = append(s.Thresholds, LaneThreshold{
				Class: c, Tenant: t, EWMANs: ew, ThresholdNs: thr, Count: cnt,
			})
		}
	}
	s.SLO = r.sloSnapshot(tab)
	return s
}

func (r *Recorder) sloSnapshot(tab []*tenantLanes) SLOSnapshot {
	if !r.sloEnabled {
		return SLOSnapshot{}
	}
	s := SLOSnapshot{Enabled: true, BudgetFraction: r.budget}
	r.winMu.Lock()
	defer r.winMu.Unlock()
	for c := 0; c < r.opts.Classes; c++ {
		obj := r.objectives[c]
		if obj == 0 {
			continue
		}
		cs := ClassSLO{
			Class:       c,
			ObjectiveNs: obj,
			Good:        r.classGood[c].Load(),
			Total:       r.classTotal[c].Load(),
		}
		for _, w := range r.windows {
			baseG, baseT := int64(0), int64(0)
			if e := w.oldest(); e != nil {
				baseG, baseT = e.classGood[c], e.classTotal[c]
			}
			cs.Burn = append(cs.Burn, WindowBurn{
				WindowNs: w.windowNs,
				Burn:     r.burn(cs.Good-baseG, cs.Total-baseT),
			})
		}
		s.Classes = append(s.Classes, cs)
	}
	for t, tl := range tab {
		total := tl.total.Load()
		if total == 0 {
			continue
		}
		ts := TenantSLO{Tenant: t, Good: tl.good.Load(), Total: total, Windowed: t < maxWindowTenants}
		if ts.Windowed {
			for _, w := range r.windows {
				baseG, baseT := int64(0), int64(0)
				if e := w.oldest(); e != nil {
					baseG, baseT = e.tenGood[t], e.tenTotal[t]
				}
				ts.Burn = append(ts.Burn, WindowBurn{
					WindowNs: w.windowNs,
					Burn:     r.burn(ts.Good-baseG, ts.Total-baseT),
				})
			}
		} else {
			ts.Burn = append(ts.Burn, WindowBurn{WindowNs: 0, Burn: r.burn(ts.Good, ts.Total)})
		}
		s.Tenants = append(s.Tenants, ts)
	}
	return s
}

// burn converts a good/total delta into a burn rate.
func (r *Recorder) burn(good, total int64) float64 {
	if total <= 0 {
		return 0
	}
	return float64(total-good) / float64(total) / r.budget
}
