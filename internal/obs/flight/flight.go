// Package flight is the always-on flight recorder: retroactive
// tail-latency forensics for all three engines. It decides *which*
// finished requests are worth keeping; the record they are kept as and
// the ring they are kept in are package lifecycle's (lifecycle.Lifecycle,
// lifecycle.Ring), the same ones 1-in-128 sampling uses.
//
// Sampling answers "where does a *typical* request spend its time". It
// cannot answer "why was *this* request slow" — at 1/128 the p99.9
// outlier is almost never sampled. The recorder closes that gap with
// three cooperating pieces:
//
//   - Retroactive outlier capture. Every request carries its stage
//     stamps on its own record; at retrieval the total latency is
//     compared against an adaptive per-(class,tenant) threshold — an
//     EWMA of recent completions, scaled by a multiplier and clamped by
//     a floor (Acc is the one implementation of that arithmetic). A
//     breaching request's record — stamp vector plus ambient device
//     state — is pushed into the outlier ring. Every outlier is
//     explained.
//
//   - Stall watchdog. A wall-clock owner's monitor goroutine ticks a
//     Watchdog with a cheap progress probe; a worker making no dispatch
//     progress while queues are non-empty, a completion ring above high
//     water, or a poller retrieving nothing while completions wait,
//     each for three consecutive ticks, lands in the same ring as a
//     typed stall record.
//
//   - SLO tracker (wall-clock owners only). Per-class latency
//     objectives with multi-window burn-rate accounting, per tenant as
//     well as per class, exported as the memif_realtime_slo_* series.
//
// What is settable is Options; everything else that was once a knob and
// only ever had one value is a constant below, with its reason.
//
// Everything here is nil-safe: a nil *Recorder or *Watchdog turns
// every method into a no-op, so callers gate arming once at
// construction and never branch again.
package flight

import (
	"sync"
	"sync/atomic"
	"time"

	"memif/internal/obs/lifecycle"
)

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
	// Warmup is the number of OK completions a (class,tenant) lane
	// must see before breaches arm; the first requests of a cold lane
	// train the EWMA instead of flooding the ring. Default 16.
	Warmup int64
}

const (
	// ewmaShift is the lane EWMA decay, ewma += (lat - ewma) >> ewmaShift:
	// α = 1/8 follows a shifted load within ~20 completions and still
	// damps a single straggler to an eighth of its excess.
	ewmaShift = 3
	// sloBudget is the error budget of every objective: burn rate 1.0
	// means the bad-request fraction exactly consumes it (99.9 %).
	sloBudget = 0.001
	// highWaterFraction is the completion-backlog trip point as a
	// fraction of ring capacity; stallTicks is how many consecutive bad
	// watchdog ticks make a report (~30 ms at the realtime monitor's
	// cadence: past any scheduling hiccup, well inside a human's
	// notice).
	highWaterFraction = 0.75
	stallTicks        = 3
)

// sloObjectives are the per-class latency objectives of a wall-clock
// recorder (foreground, background, scavenger; lane 3 is untracked),
// and sloWindows its burn-rate windows.
var (
	sloObjectives = [lifecycle.MaxClasses]int64{2e6, 20e6, 100e6, 0}
	sloWindows    = [...]time.Duration{time.Second, 10 * time.Second, 60 * time.Second}
)

// positiveOr is v, or def when v is unset (zero or negative).
func positiveOr(v, def int64) int64 {
	if v > 0 {
		return v
	}
	return def
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
	lane  [lifecycle.MaxClasses]lane
	good  atomic.Int64
	total atomic.Int64
}

// Recorder is the flight recorder: adaptive thresholds, the outlier
// ring, and SLO accounting. All methods are safe on a nil receiver.
type Recorder struct {
	floor int64
	mult  int64
	warm  int64

	ring *lifecycle.Ring

	breaches atomic.Int64 // Observe returned breach=true
	stalls   atomic.Int64 // CaptureStall calls
	events   atomic.Int64 // CaptureEvent calls

	// lanes is the COW tenant table: readers load once, EnsureTenants
	// grows under laneMu. Index 0 is the default tenant.
	laneMu sync.Mutex
	lanes  atomic.Pointer[[]*tenantLanes]

	// objectives are the per-class SLO latency objectives; all zero (no
	// class tracked, no windows) on a virtual-clock recorder.
	objectives [lifecycle.MaxClasses]int64
	classGood  [lifecycle.MaxClasses]atomic.Int64
	classTotal [lifecycle.MaxClasses]atomic.Int64

	winMu   sync.Mutex
	windows []*wring
}

// New builds a Recorder, or returns nil when opts.Disable is set — the
// nil recorder is the disabled recorder. wallClock says which clock the
// owning engine lives on: a wall-clock owner gets per-class objectives
// and burn-rate windows and drives them with Tick from its monitor
// loop; under a simulated clock burn windows mean nothing, SLO
// accounting stays off and only the thresholds and the ring work, on
// virtual ns.
func New(opts Options, wallClock bool) *Recorder {
	if opts.Disable {
		return nil
	}
	r := &Recorder{
		floor: positiveOr(opts.ThresholdFloorNs, 50_000),
		mult:  positiveOr(opts.ThresholdMult, 4),
		warm:  positiveOr(opts.Warmup, 16),
		ring:  lifecycle.NewRing(int(positiveOr(int64(opts.RingDepth), 512))),
	}
	tab := []*tenantLanes{new(tenantLanes)}
	r.lanes.Store(&tab)
	if wallClock {
		r.objectives = sloObjectives
		for _, w := range sloWindows {
			r.windows = append(r.windows, newWring(int64(w)))
		}
	}
	return r
}

// threshold is the breach threshold a lane EWMA implies.
func (r *Recorder) threshold(ewma int64) int64 {
	return max(r.floor, ewma*r.mult)
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

// Observe folds one completed request into the recorder — a batch of
// one through Acc, which owns the arithmetic: the lane EWMA (OK
// outcomes only — a canceled request's latency says nothing about the
// lane), SLO accounting, and the breach decision. It returns the
// threshold in force and whether the latency breached it; the caller
// captures on breach. Zero-allocation, lock-free.
func (r *Recorder) Observe(class, tenant int, latNs int64, ok bool) (thresholdNs int64, breach bool) {
	var a Acc
	a.Init(r)
	thresholdNs, breach = a.Observe(class, tenant, latNs, ok)
	a.Flush()
	return thresholdNs, breach
}

// Capture pushes o into the ring, assigning its Seq. The caller keeps
// ownership of o (pass a stack value); nothing is retained, nothing
// allocates.
func (r *Recorder) Capture(o *lifecycle.Lifecycle) {
	if r == nil {
		return
	}
	r.ring.Push(o)
}

// ObserveLane is Observe plus the capture for clients that complete one
// request at a time on the simulated clock (swapd, streamrt): a
// successful request's latency trains lane (class, tenant), and a breach
// captures its stamp vector with the ambient picture, stamped at the
// request's completion time. reason types the lane's records
// (ReasonNone for plain request latency).
func (r *Recorder) ObserveLane(reason lifecycle.Reason, class, tenant int, latNs, bytes int64, ts *[lifecycle.NumStages]int64, amb lifecycle.Ambient) {
	thr, breach := r.Observe(class, tenant, latNs, true)
	if !breach {
		return
	}
	r.Capture(&lifecycle.Lifecycle{
		Reason:      reason,
		Nano:        ts[lifecycle.StageCompleted],
		Slot:        -1,
		Class:       class,
		Tenant:      tenant,
		Bytes:       bytes,
		LatencyNs:   latNs,
		ThresholdNs: thr,
		TS:          *ts,
		Ambient:     amb,
	})
}

// CaptureStall records a watchdog finding: no single request, just the
// typed reason and the ambient congestion picture.
func (r *Recorder) CaptureStall(reason lifecycle.Reason, nano int64, amb lifecycle.Ambient) {
	if r == nil {
		return
	}
	r.stalls.Add(1)
	r.Capture(&lifecycle.Lifecycle{Kind: lifecycle.KindStall, Reason: reason, Nano: nano, Slot: -1, Class: -1, Ambient: amb})
}

// CaptureEvent records a domain event (swapd txn abort, promotion
// lag); o.Kind is forced to KindEvent.
func (r *Recorder) CaptureEvent(o *lifecycle.Lifecycle) {
	if r == nil {
		return
	}
	r.events.Add(1)
	o.Kind = lifecycle.KindEvent
	r.Capture(o)
}

// Tick advances the SLO window rings; the owner's monitor loop calls
// it periodically with the device clock. Zero-allocation.
func (r *Recorder) Tick(nano int64) {
	if r == nil {
		return
	}
	r.winMu.Lock()
	for _, w := range r.windows {
		if w.n != 0 && nano-w.last < w.interval {
			continue
		}
		e := &w.entries[w.n%windowEntries]
		for c := 0; c < lifecycle.MaxClasses; c++ {
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
	Enabled    bool                  `json:"enabled"`
	RingDepth  int                   `json:"ring_depth"`
	Breaches   int64                 `json:"breaches"`
	Stalls     int64                 `json:"stalls"`
	Events     int64                 `json:"events"`
	Captured   int64                 `json:"captured"`
	Outliers   []lifecycle.Lifecycle `json:"outliers"`
	Thresholds []LaneThreshold       `json:"thresholds"`
	SLO        SLOSnapshot           `json:"slo"`
}

// Snapshot copies the recorder state. Safe to call concurrently with
// captures: every returned record is whole (a slot rewritten during the
// scan is skipped, see lifecycle.Ring.Snapshot), while the counters are
// read one by one and may run a capture ahead of the records.
func (r *Recorder) Snapshot() Snapshot {
	if r == nil {
		return Snapshot{}
	}
	s := Snapshot{
		Enabled:   true,
		RingDepth: r.ring.Depth(),
		Breaches:  r.breaches.Load(),
		Stalls:    r.stalls.Load(),
		Events:    r.events.Load(),
		Captured:  int64(r.ring.Pushed()),
	}
	s.Outliers = r.ring.Snapshot()
	tab := *r.lanes.Load()
	for t, tl := range tab {
		for c := 0; c < lifecycle.MaxClasses; c++ {
			ln := &tl.lane[c]
			cnt := ln.count.Load()
			if cnt == 0 {
				continue
			}
			ew := ln.ewma.Load()
			s.Thresholds = append(s.Thresholds, LaneThreshold{
				Class: c, Tenant: t, EWMANs: ew, ThresholdNs: r.threshold(ew), Count: cnt,
			})
		}
	}
	s.SLO = r.sloSnapshot(tab)
	return s
}

func (r *Recorder) sloSnapshot(tab []*tenantLanes) SLOSnapshot {
	if r.windows == nil {
		return SLOSnapshot{}
	}
	s := SLOSnapshot{Enabled: true, BudgetFraction: sloBudget}
	r.winMu.Lock()
	defer r.winMu.Unlock()
	for c := 0; c < lifecycle.MaxClasses; c++ {
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
		cs.Burn = r.windowBurns(cs.Good, cs.Total, func(e *sloEntry) (int64, int64) { return e.classGood[c], e.classTotal[c] })
		s.Classes = append(s.Classes, cs)
	}
	for t, tl := range tab {
		total := tl.total.Load()
		if total == 0 {
			continue
		}
		ts := TenantSLO{Tenant: t, Good: tl.good.Load(), Total: total, Windowed: t < maxWindowTenants}
		if ts.Windowed {
			ts.Burn = r.windowBurns(ts.Good, ts.Total, func(e *sloEntry) (int64, int64) { return e.tenGood[t], e.tenTotal[t] })
		} else {
			ts.Burn = append(ts.Burn, WindowBurn{WindowNs: 0, Burn: burn(ts.Good, ts.Total)})
		}
		s.Tenants = append(s.Tenants, ts)
	}
	return s
}

// windowBurns is the burn rate over every window: the good/total counts
// now against what base reads out of the window's oldest entry. Callers
// hold winMu.
func (r *Recorder) windowBurns(good, total int64, base func(*sloEntry) (good, total int64)) []WindowBurn {
	var out []WindowBurn
	for _, w := range r.windows {
		var g0, t0 int64
		if e := w.oldest(); e != nil {
			g0, t0 = base(e)
		}
		out = append(out, WindowBurn{WindowNs: w.windowNs, Burn: burn(good-g0, total-t0)})
	}
	return out
}

// burn converts a good/total delta into a burn rate.
func burn(good, total int64) float64 {
	if total <= 0 {
		return 0
	}
	return float64(total-good) / float64(total) / sloBudget
}
