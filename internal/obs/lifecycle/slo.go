package lifecycle

// SLO burn-rate windows. Each window keeps a small ring of cumulative
// good/total snapshots spaced window/windowEntries apart; once the
// ring has wrapped, its oldest entry is one full window old, and the
// burn over the window is the delta between now and that entry.
// Before the ring fills, the delta spans the available history — a
// freshly started device reports burn over "since start", converging
// to the true window as history accumulates.
//
// Memory is fixed: windowEntries snapshots per window, each carrying
// the per-class counters plus the first maxWindowTenants tenants.
// Tenants beyond the cap fall back to cumulative burn in the snapshot
// (TenantSLO.Windowed false) — with a thousand tenants the windowed
// history would dominate the recorder's footprint for series nobody
// alerts on individually.

const (
	// windowEntries is the per-window history ring size; burn
	// granularity is window/windowEntries.
	windowEntries = 64
	// maxWindowTenants caps per-tenant windowed history.
	maxWindowTenants = 32
)

type sloEntry struct {
	classGood  [MaxClasses]int64
	classTotal [MaxClasses]int64
	tenGood    [maxWindowTenants]int64
	tenTotal   [maxWindowTenants]int64
}

type wring struct {
	windowNs int64
	interval int64 // windowNs / windowEntries
	last     int64 // nano of the newest entry
	n        int   // entries ever written; index n%windowEntries is next
	entries  [windowEntries]sloEntry
}

func newWring(windowNs int64) *wring {
	if windowNs <= 0 {
		windowNs = 1
	}
	iv := windowNs / windowEntries
	if iv <= 0 {
		iv = 1
	}
	return &wring{windowNs: windowNs, interval: iv}
}

// oldest returns the oldest retained entry, or nil before the first
// tick. Callers hold winMu.
func (w *wring) oldest() *sloEntry {
	if w.n == 0 {
		return nil
	}
	if w.n <= windowEntries {
		return &w.entries[0]
	}
	return &w.entries[w.n%windowEntries]
}

const (
	// highWaterFraction is the completion-backlog trip point as a
	// fraction of ring capacity; stallTicks is how many consecutive bad
	// watchdog ticks make a report (~30 ms at the realtime monitor's
	// cadence: past any scheduling hiccup, well inside a human's
	// notice).
	highWaterFraction = 0.75
	stallTicks        = 3
)

// ProbeState is what the owner's monitor loop feeds the watchdog each
// tick: cheap cumulative counters and live depths, no locks taken.
type ProbeState struct {
	// QueuedWork reports whether work was waiting for dispatch at probe
	// time. The realtime device reports a non-empty staging queue or a
	// non-zero backlog: requests flushed but not yet dispatched, on its
	// submission queue or in its scheduler's buckets.
	QueuedWork bool
	// DispatchProgress is a cumulative dispatch counter; the watchdog
	// compares ticks, so any monotone counter works.
	DispatchProgress int64
	// CompletionDepth and CompletionCap describe the completion
	// queue's backlog and capacity.
	CompletionDepth, CompletionCap int64
	// RetrieveProgress is a cumulative retrieval counter.
	RetrieveProgress int64
}

// episode is one latched watchdog condition: it fires once when the
// condition has held for need consecutive ticks and re-arms when it
// clears, so a wedged device reports once per episode, not once per tick.
type episode struct {
	ticks   int
	latched bool
}

func (e *episode) tick(bad bool, need int) (fire bool) {
	if !bad {
		*e = episode{}
		return false
	}
	e.ticks++
	fire = e.ticks >= need && !e.latched
	e.latched = e.latched || fire
	return fire
}

// watchdog turns a stream of ProbeStates into typed stall reports.
// It is single-threaded by contract — only the owner's monitor loop
// ticks it, through Recorder.Tick.
type watchdog struct {
	needTicks int // consecutive bad ticks that make a report (stallTicks; tests shorten it)

	lastDispatch, lastRetrieve int64
	stall, backlog, starve     episode
	fired                      []Reason
}

func newWatchdog() *watchdog {
	return &watchdog{needTicks: stallTicks, fired: make([]Reason, 0, 3)}
}

// tick evaluates one probe and returns the reasons that newly fired
// this tick (the returned slice is reused across calls — consume it
// before the next tick). Nil-safe.
func (w *watchdog) tick(p ProbeState) []Reason {
	if w == nil {
		return nil
	}
	w.fired = w.fired[:0]
	// Worker stall: queued work, zero dispatch progress.
	if w.stall.tick(p.QueuedWork && p.DispatchProgress == w.lastDispatch, w.needTicks) {
		w.fired = append(w.fired, ReasonWorkerStall)
	}
	// Completion backlog: a ring above high water.
	if w.backlog.tick(p.CompletionCap > 0 &&
		float64(p.CompletionDepth) >= highWaterFraction*float64(p.CompletionCap), w.needTicks) {
		w.fired = append(w.fired, ReasonCompletionBacklog)
	}
	// Poller starvation: completions waiting, nobody retrieving.
	if w.starve.tick(p.CompletionDepth > 0 && p.RetrieveProgress == w.lastRetrieve, w.needTicks) {
		w.fired = append(w.fired, ReasonPollerStarvation)
	}
	w.lastDispatch, w.lastRetrieve = p.DispatchProgress, p.RetrieveProgress
	return w.fired
}
