package lifecycle

import (
	"sync"
	"sync/atomic"
	"time"

	"memif/internal/obs"
)

// FlightOptions configures a Recorder's outlier half. The zero value
// arms it with defaults; set Disable to opt out (the spans and the
// sampled ring keep recording).
type FlightOptions struct {
	// Disable turns off outlier capture, SLO accounting and the
	// watchdog.
	Disable bool
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

// Config builds a Recorder.
type Config struct {
	// SampleShift samples one request in 2^SampleShift into the span
	// histograms and the sampled ring (0 = every request); negative
	// samples none.
	SampleShift int
	// Classes > 0 additionally attributes sampled spans to the
	// request's priority class.
	Classes int
	// Flight arms the outlier half.
	Flight FlightOptions
	// WallClock says the owner lives on the wall clock: it gets
	// per-class SLO objectives, burn-rate windows and the stall
	// watchdog, all driven by Tick from its monitor loop. Under a
	// simulated clock burn windows mean nothing; only the thresholds
	// and the outlier ring work, on virtual ns.
	WallClock bool
	// Ambient, when set, is the owner's congestion probe: every
	// captured outlier, stall and event carries its picture. Without
	// it a record keeps the Ambient its caller filled in.
	Ambient func() Ambient
	// Stamps, when set, assembles the stamp vector and path flags of
	// the request in slot, retrieved at retrieved. Finish calls it only
	// for a record it keeps (sampled or breaching): on a 2-vCPU host,
	// building the realtime device's vector for every request put its
	// armed/disarmed ratio (TestFlightOverheadGuard, budget 1.02) at
	// 1.009–1.022, building it only when kept at 0.979. Without it a
	// record keeps the TS and Flags its caller filled in.
	Stamps func(slot int, retrieved int64) ([NumStages]int64, uint32)
}

const (
	// DefaultCaptureDepth is the sampled ring's depth, outlierRingDepth
	// the outlier ring's.
	DefaultCaptureDepth = 256
	outlierRingDepth    = 512
	// ewmaShift is the lane EWMA decay, ewma += (lat - ewma) >> ewmaShift:
	// α = 1/8 follows a shifted load within ~20 completions and still
	// damps a single straggler to an eighth of its excess.
	ewmaShift = 3
	// sloBudget is the error budget of every objective: burn rate 1.0
	// means the bad-request fraction exactly consumes it (99.9 %).
	sloBudget = 0.001
)

// sloObjectives are the per-class latency objectives of a wall-clock
// recorder (foreground, background, scavenger; lane 3 is untracked),
// and sloWindows its burn-rate windows.
var (
	sloObjectives = [MaxClasses]int64{2e6, 20e6, 100e6, 0}
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

// tenantLanes is one tenant's row (a realtime tenant, a stream): its
// sampled stage spans, a lane per class, and its SLO good/total
// counters.
type tenantLanes struct {
	spans SpanSet
	lane  [MaxClasses]lane
	good  atomic.Int64
	total atomic.Int64
}

// Recorder is one engine's observability: every finished request
// passes through Finish once. Its sampled half derives the stage spans
// (global, per class, per tenant) of the sampled requests and keeps
// them in the sampled ring; its outlier half judges every request
// against its lane's adaptive threshold, keeps the breaches in the
// outlier ring, and accounts SLOs and watchdog stalls. Safe for
// concurrent use; lock-free except EnsureTenants and Tick.
type Recorder struct {
	// Sampled half; sampled is nil when SampleShift < 0.
	mask       uint64 // sample when (n-1)&mask == 0
	shift      int
	begun      obs.Counter
	aborted    obs.Counter
	spans      SpanSet
	classSpans []SpanSet
	sampled    *Ring

	ambient func() Ambient
	stamps  func(slot int, retrieved int64) ([NumStages]int64, uint32)

	// lanes is the COW tenant table: readers load once, EnsureTenants
	// grows under laneMu. Index 0 is the default tenant.
	laneMu sync.Mutex
	lanes  atomic.Pointer[[]*tenantLanes]

	// Outlier half; outliers is nil when Flight.Disable.
	floor, mult, warm int64
	outliers          *Ring
	breaches          atomic.Int64 // Finish judged a breach
	stalls            atomic.Int64 // watchdog reports
	events            atomic.Int64 // CaptureEvent calls

	// objectives are the per-class SLO latency objectives; all zero (no
	// class tracked, no windows) on a virtual-clock recorder.
	objectives [MaxClasses]int64
	classGood  [MaxClasses]atomic.Int64
	classTotal [MaxClasses]atomic.Int64

	winMu   sync.Mutex
	windows []*wring
	watch   *watchdog // Tick's only; nil off the wall clock
}

// NewRecorder builds a Recorder.
func NewRecorder(c Config) *Recorder {
	r := &Recorder{shift: -1, ambient: c.Ambient, stamps: c.Stamps}
	if c.SampleShift >= 0 {
		r.shift = min(c.SampleShift, 62)
		r.mask = uint64(1)<<uint(r.shift) - 1
		r.classSpans = make([]SpanSet, c.Classes)
		r.sampled = NewRing(DefaultCaptureDepth)
	}
	tab := []*tenantLanes{new(tenantLanes)}
	r.lanes.Store(&tab)
	if c.Flight.Disable {
		return r
	}
	r.floor = positiveOr(c.Flight.ThresholdFloorNs, 50_000)
	r.mult = positiveOr(c.Flight.ThresholdMult, 4)
	r.warm = positiveOr(c.Flight.Warmup, 16)
	r.outliers = NewRing(outlierRingDepth)
	if c.WallClock {
		r.objectives = sloObjectives
		for _, w := range sloWindows {
			r.windows = append(r.windows, newWring(int64(w)))
		}
		r.watch = newWatchdog()
	}
	return r
}

// Sample makes the sampling decision for the n'th request (counting
// from 1) of whatever stream the caller counts — the realtime device
// counts per request slot, so each slot samples its own 1st,
// 2^shift+1'th, ... request and the unsampled path never touches state
// shared across submitters. The caller records the answer on the
// request, stamps it with fresh clocks, and passes it to Finish.
func (r *Recorder) Sample(n uint64) bool {
	if r.sampled == nil || (n-1)&r.mask != 0 {
		return false
	}
	r.begun.Inc()
	return true
}

// Drop accounts for a sampled request that never entered the pipeline
// (its submission failed back to the caller), so Begun stays equal to
// Ended + Aborted + in flight.
func (r *Recorder) Drop() { r.aborted.Inc() }

// ObserveQueueWait records a sampled chunk's dispatch-ring wait for a
// request of the given class.
func (r *Recorder) ObserveQueueWait(class int, d int64) {
	r.spans.Observe(SpanRingWait, d)
	if class >= 0 && class < len(r.classSpans) {
		r.classSpans[class].Observe(SpanRingWait, d)
	}
}

// EnsureTenants grows the tenant table to cover at least n tenants.
// Existing rows keep their state; growth is copy-on-write so Finish
// never sees a table mid-append.
func (r *Recorder) EnsureTenants(n int) {
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

// tenant returns tenant t's row, or the default tenant's for an id
// outside the table.
func tenant(tab []*tenantLanes, t int) *tenantLanes {
	if t < 0 || t >= len(tab) {
		t = 0
	}
	return tab[t]
}

// Finish hands the recorder one finished request. lc carries its
// identity (Slot, Class, Tenant, Bytes), Outcome, completion or
// retrieval time (Nano), LatencyNs, and — unless Config.Stamps builds
// them — its stamp vector and path Flags; sampled says whether it was
// the sampling pick. With the outlier half armed, the latency is judged
// against the lane's threshold through acc — the caller's batch
// accumulator, or nil for a batch of one — and lc.ThresholdNs is set.
// A sampled request's stage spans are recorded (global, per class, per
// tenant) and the record joins the sampled ring; a breaching one joins
// the outlier ring with the ambient picture. Zero-allocation when the
// owner's probes are.
func (r *Recorder) Finish(acc *Acc, lc *Lifecycle, sampled bool) {
	var breach bool
	if r.outliers != nil {
		a := acc
		if a == nil {
			a = &Acc{rec: r}
		}
		lc.ThresholdNs, breach = a.observe(lc.Class, lc.Tenant, lc.LatencyNs, lc.Outcome == OutcomeOK)
		if acc == nil {
			a.Flush()
		}
	}
	sampled = sampled && r.sampled != nil
	if (sampled || breach) && r.stamps != nil {
		lc.TS, lc.Flags = r.stamps(lc.Slot, lc.Nano)
	}
	if sampled {
		r.spans.observeStamps(&lc.TS)
		if lc.Class >= 0 && lc.Class < len(r.classSpans) {
			r.classSpans[lc.Class].observeStamps(&lc.TS)
		}
		tenant(*r.lanes.Load(), lc.Tenant).spans.observeStamps(&lc.TS)
		r.sampled.Push(lc)
	}
	if breach {
		r.capture(lc)
	}
}

// capture stamps o with the ambient picture and pushes it into the
// outlier ring, assigning its Seq.
func (r *Recorder) capture(o *Lifecycle) {
	if r.ambient != nil {
		o.Ambient = r.ambient()
	}
	r.outliers.Push(o)
}

// CaptureEvent records a domain event (swapd txn abort); o.Kind is
// forced to KindEvent. A no-op with the outlier half disarmed.
func (r *Recorder) CaptureEvent(o *Lifecycle) {
	if r.outliers == nil {
		return
	}
	r.events.Add(1)
	o.Kind = KindEvent
	r.capture(o)
}

// Tick is the wall-clock owner's heartbeat: it advances the SLO window
// rings and feeds the watchdog p, capturing every stall that newly
// fired as a typed stall record. Zero-allocation.
func (r *Recorder) Tick(nano int64, p ProbeState) {
	if r.outliers == nil {
		return
	}
	r.winMu.Lock()
	for _, w := range r.windows {
		if w.n != 0 && nano-w.last < w.interval {
			continue
		}
		e := &w.entries[w.n%windowEntries]
		for c := 0; c < MaxClasses; c++ {
			e.classGood[c] = r.classGood[c].Load()
			e.classTotal[c] = r.classTotal[c].Load()
		}
		tab := *r.lanes.Load()
		for t := 0; t < min(len(tab), maxWindowTenants); t++ {
			e.tenGood[t] = tab[t].good.Load()
			e.tenTotal[t] = tab[t].total.Load()
		}
		w.n++
		w.last = nano
	}
	r.winMu.Unlock()
	for _, reason := range r.watch.tick(p) {
		r.stalls.Add(1)
		r.capture(&Lifecycle{Kind: KindStall, Reason: reason, Nano: nano, Slot: -1, Class: -1})
	}
}

// threshold is the breach threshold a lane EWMA implies.
func (r *Recorder) threshold(ewma int64) int64 {
	return max(r.floor, ewma*r.mult)
}

// Snapshot is a point-in-time view of a Recorder's sampled half.
type Snapshot struct {
	// Enabled is false when sampling is off; SampleShift is the
	// configured 1-in-2^k shift (-1 when off).
	Enabled     bool
	SampleShift int
	// Begun / Ended / Aborted count sampled lifecycles opened (Sample),
	// completed through retrieval (Finish), and abandoned by failed
	// submissions (Drop).
	Begun, Ended, Aborted int64
	// Spans holds the per-stage latency histograms.
	Spans SpanSnapshot
	// ClassSpans holds the same histograms split by priority class,
	// indexed by class; empty when the recorder was built without classes.
	ClassSpans []SpanSnapshot
	// Captured holds the retained sampled lifecycles, oldest first.
	Captured []Lifecycle
}

// Snapshot captures the sampled half: counters, span histograms and the
// retained lifecycles in Seq order.
func (r *Recorder) Snapshot() Snapshot {
	if r.sampled == nil {
		return Snapshot{SampleShift: -1}
	}
	s := Snapshot{
		Enabled:     true,
		SampleShift: r.shift,
		Begun:       r.begun.Load(),
		Ended:       int64(r.sampled.Pushed()),
		Aborted:     r.aborted.Load(),
		Spans:       r.spans.Snapshot(),
		Captured:    r.sampled.Snapshot(),
	}
	if len(r.classSpans) > 0 {
		s.ClassSpans = make([]SpanSnapshot, len(r.classSpans))
		for i := range r.classSpans {
			s.ClassSpans[i] = r.classSpans[i].Snapshot()
		}
	}
	return s
}

// Spans captures only the global span histograms — the cheap accessor
// for periodic consumers (e.g. an adaptive-threshold retuner) that must
// not pay Snapshot's ring scan.
func (r *Recorder) Spans() SpanSnapshot { return r.spans.Snapshot() }

// TenantSpans captures tenant t's span histograms (the default
// tenant's for an unknown t).
func (r *Recorder) TenantSpans(t int) SpanSnapshot {
	return tenant(*r.lanes.Load(), t).spans.Snapshot()
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

// FlightSnapshot is a point-in-time copy of a Recorder's outlier half:
// counters, the outlier ring in capture order, active lane thresholds,
// and SLO state. It is the /debug/outliers wire format.
type FlightSnapshot struct {
	Enabled    bool            `json:"enabled"`
	RingDepth  int             `json:"ring_depth"`
	Breaches   int64           `json:"breaches"`
	Stalls     int64           `json:"stalls"`
	Events     int64           `json:"events"`
	Captured   int64           `json:"captured"`
	Outliers   []Lifecycle     `json:"outliers"`
	Thresholds []LaneThreshold `json:"thresholds"`
	SLO        SLOSnapshot     `json:"slo"`
}

// FlightSnapshot copies the outlier half (zero, Enabled false, when
// disarmed). Safe to call concurrently with captures: every returned
// record is whole (see Ring.Snapshot), while the counters are read one
// by one and may run a capture ahead of the records.
func (r *Recorder) FlightSnapshot() FlightSnapshot {
	if r.outliers == nil {
		return FlightSnapshot{}
	}
	s := FlightSnapshot{
		Enabled:   true,
		RingDepth: r.outliers.Depth(),
		Breaches:  r.breaches.Load(),
		Stalls:    r.stalls.Load(),
		Events:    r.events.Load(),
		Captured:  int64(r.outliers.Pushed()),
		Outliers:  r.outliers.Snapshot(),
	}
	tab := *r.lanes.Load()
	for t, tl := range tab {
		for c := 0; c < MaxClasses; c++ {
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
	for c := 0; c < MaxClasses; c++ {
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
