// Package lifecycle is the reader side of per-request stage tracing: the
// vocabulary of stages a request passes through in an asynchronous move
// pipeline (submit → flushed → dispatched → copy start/end → completed →
// retrieved), and everything derived from a finished request's stamp
// vector — per-stage latency histograms, the one captured-request
// record (Lifecycle) with the one lock-free ring that holds it (Ring,
// record.go), and a Chrome trace_event export. It is the latency-budget
// attribution the paper's Section 6 builds its whole argument on, turned
// into an always-on instrument.
//
// The package never stamps. Every pipeline keeps its stage timestamps on
// its own request record (the realtime device's Request, the simulated
// core device's MovReq under swapd and streamrt), written by the
// goroutines that already own the record at each handoff. When the
// application retrieves a completion, the pipeline assembles the seven
// stamps into one vector and hands it here: a SpanSet derives the
// stage-pair spans, and a Collector adds the 1-in-2^shift sampling
// decision, per-class attribution and a Ring of the sampled records on
// top. The flight recorder (package flight) keeps the requests it finds
// past their threshold in a second Ring of the same records. All of
// that work runs on the retrieval path, never on a worker or controller
// goroutine (the interrupt path).
//
// The package follows the obs ground rules: everything is lock-free,
// safe from any goroutine, and nil-safe, so call sites need no
// enabled-checks.
package lifecycle

import (
	"encoding/json"

	"memif/internal/obs"
)

// Stage is one timestamped point in a request's life.
type Stage uint8

// The stage model. A pipeline stamps the subset it has: the realtime
// device stamps all of them; a request failing off-protocol (e.g.
// ErrNoSlots at the flush) skips straight from StageSubmit to
// StageCompleted, and span derivation skips spans with a missing
// endpoint.
const (
	// StageSubmit: the request entered the staging queue.
	StageSubmit Stage = iota
	// StageFlushed: the flush moved it staging → submission queue.
	StageFlushed
	// StageDispatched: the worker dequeued it and began chunking.
	StageDispatched
	// StageCopyStart: the first chunk reached a transfer controller.
	StageCopyStart
	// StageCopyEnd: the last chunk finished copying.
	StageCopyEnd
	// StageCompleted: the completion was posted (Release + Notify).
	StageCompleted
	// StageRetrieved: the application collected the completion.
	StageRetrieved

	NumStages int = iota
)

// stageNames index by Stage.
var stageNames = [NumStages]string{
	"submit", "flushed", "dispatched", "copy_start", "copy_end", "completed", "retrieved",
}

func (s Stage) String() string { return enumName(stageNames[:], "stage", uint8(s)) }

// Span is one derived stage-latency: the time between two stages (or,
// for the chunk-level spans, a directly observed queue wait).
type Span uint8

// The attribution buckets of the Section 6 latency budget, pipeline
// edition.
const (
	// SpanStagingWait: submit → flushed; time spent on a staging shard
	// waiting for a flush.
	SpanStagingWait Span = iota
	// SpanDispatchWait: flushed → dispatched; time on the submission
	// queue waiting for the worker.
	SpanDispatchWait
	// SpanRingWait: push → pop of a chunk on a dispatch ring (chunk
	// level; observed once per sampled chunk).
	SpanRingWait
	// SpanStealDelay: ring wait of chunks that were stolen by a
	// non-owning controller — how long work sat before stealing saved it.
	SpanStealDelay
	// SpanCopy: copy start → copy end; the actual byte-moving window,
	// across every controller touching the request.
	SpanCopy
	// SpanCompletionDwell: completed → retrieved; time the finished
	// request sat on the completion queue.
	SpanCompletionDwell
	// SpanTotal: submit → retrieved.
	SpanTotal

	NumSpans int = iota
)

var spanNames = [NumSpans]string{
	"staging_wait", "dispatch_wait", "ring_wait", "steal_delay",
	"copy", "completion_dwell", "total",
}

// String is the span's metric-label name.
func (s Span) String() string { return enumName(spanNames[:], "span", uint8(s)) }

// stageSpans lists the spans derived from stage pairs (the chunk-level
// SpanRingWait / SpanStealDelay are observed separately).
var stageSpans = [...]struct {
	span     Span
	from, to Stage
}{
	{SpanStagingWait, StageSubmit, StageFlushed},
	{SpanDispatchWait, StageFlushed, StageDispatched},
	{SpanCopy, StageCopyStart, StageCopyEnd},
	{SpanCompletionDwell, StageCompleted, StageRetrieved},
	{SpanTotal, StageSubmit, StageRetrieved},
}

// Outcome classifies a finished lifecycle.
type Outcome uint8

// Lifecycle outcomes.
const (
	OutcomeOK Outcome = iota
	OutcomeCanceled
	OutcomeExpired
	OutcomeFailed
)

func (o Outcome) String() string {
	switch o {
	case OutcomeOK:
		return "ok"
	case OutcomeCanceled:
		return "canceled"
	case OutcomeExpired:
		return "expired"
	default:
		return "failed"
	}
}

// SpanSet is a bundle of per-span latency histograms, fed one finished
// stamp vector at a time.
type SpanSet struct {
	spans [NumSpans]obs.Histogram
}

// Observe records one duration (ns, wall or virtual) for a span.
// Nil-safe; negative durations are clamped to zero rather than dropped,
// so a torn clock can never hide a sample.
func (s *SpanSet) Observe(sp Span, d int64) {
	if s == nil {
		return
	}
	if d < 0 {
		d = 0
	}
	s.spans[sp].Observe(d)
}

// ObserveStamps derives and records every stage-pair span whose
// endpoints are both stamped (nonzero). The chunk-level spans are not
// derivable from stamps and are untouched.
func (s *SpanSet) ObserveStamps(ts *[NumStages]int64) {
	if s == nil {
		return
	}
	for _, d := range stageSpans {
		from, to := ts[d.from], ts[d.to]
		if from == 0 || to == 0 {
			continue
		}
		s.Observe(d.span, to-from)
	}
}

// Stamps assembles a stage-stamp array from the seven stage times of a
// request record (0 = stage never reached). Feed the result to
// ObserveStamps.
func Stamps(submit, flushed, dispatched, copyStart, copyEnd, completed, retrieved int64) [NumStages]int64 {
	var ts [NumStages]int64
	ts[StageSubmit] = submit
	ts[StageFlushed] = flushed
	ts[StageDispatched] = dispatched
	ts[StageCopyStart] = copyStart
	ts[StageCopyEnd] = copyEnd
	ts[StageCompleted] = completed
	ts[StageRetrieved] = retrieved
	return ts
}

// Snapshot captures every span histogram. Nil-safe (zero snapshot).
func (s *SpanSet) Snapshot() SpanSnapshot {
	var out SpanSnapshot
	if s == nil {
		return out
	}
	for i := range s.spans {
		out.Spans[i] = s.spans[i].Snapshot()
	}
	return out
}

// SpanSnapshot is a point-in-time copy of a SpanSet, indexed by Span.
type SpanSnapshot struct {
	Spans [NumSpans]obs.HistogramSnapshot
}

// Delta returns the per-span samples accumulated between prev and s —
// the steady-state window of a benchmark.
func (s SpanSnapshot) Delta(prev SpanSnapshot) SpanSnapshot {
	var out SpanSnapshot
	for i := range s.Spans {
		out.Spans[i] = s.Spans[i].Delta(prev.Spans[i])
	}
	return out
}

// DefaultCaptureDepth is the depth of a Collector's completed-lifecycle
// ring.
const DefaultCaptureDepth = 256

// Collector turns the finished stamp vectors of one device's sampled
// requests into histograms and a capture ring. The device makes the
// sampling decision through Sample when a request is submitted, stamps
// its own request record on the way through, and hands the completed
// Lifecycle to Collect at retrieval. A nil *Collector is valid: it
// samples nothing and records nothing.
type Collector struct {
	mask       uint64 // sample when (n-1)&mask == 0
	shift      int
	begun      obs.Counter
	aborted    obs.Counter
	spans      SpanSet
	classSpans []SpanSet // per-class attribution; empty without classes
	capture    *Ring
}

// NewCollector returns a collector sampling one request in 2^sampleShift
// (shift 0 = every request, the full-capture mode). classes > 0
// additionally attributes every span to the lifecycle's priority class,
// giving per-class stage latencies alongside the global ones. A negative
// sampleShift returns nil — tracing disabled; every method is nil-safe.
func NewCollector(sampleShift, classes int) *Collector {
	if sampleShift < 0 {
		return nil
	}
	if sampleShift > 62 {
		sampleShift = 62
	}
	return &Collector{
		mask:       uint64(1)<<uint(sampleShift) - 1,
		shift:      sampleShift,
		classSpans: make([]SpanSet, classes),
		capture:    NewRing(DefaultCaptureDepth),
	}
}

// Sample makes the sampling decision for the n'th request (counting
// from 1) of whatever stream the caller counts — the realtime device
// counts per request slot, so each slot samples its own 1st,
// 2^shift+1'th, ... request and the unsampled path never touches state
// shared across submitters. It reports whether the request is sampled;
// the caller records that on the request and stamps it with fresh
// clocks.
func (c *Collector) Sample(n uint64) bool {
	if c == nil || (n-1)&c.mask != 0 {
		return false
	}
	c.begun.Inc()
	return true
}

// Drop accounts for a sampled request that never entered the pipeline
// (its submission failed back to the caller), so Begun stays equal to
// Ended + Aborted + in flight.
func (c *Collector) Drop() {
	if c != nil {
		c.aborted.Inc()
	}
}

// ObserveQueueWait records a chunk-level dispatch-ring wait for a
// request of the given class; stolen chunks are additionally attributed
// to SpanStealDelay.
func (c *Collector) ObserveQueueWait(class int, d int64, stolen bool) {
	if c == nil {
		return
	}
	c.spans.Observe(SpanRingWait, d)
	if stolen {
		c.spans.Observe(SpanStealDelay, d)
	}
	if class >= 0 && class < len(c.classSpans) {
		c.classSpans[class].Observe(SpanRingWait, d)
		if stolen {
			c.classSpans[class].Observe(SpanStealDelay, d)
		}
	}
}

// Collect takes one sampled request's completed lifecycle: it derives
// every stage-pair span of lc.TS into the global and per-class
// histograms — and into extra when non-nil, so a caller can attribute
// the same vector to a second dimension (the realtime device's
// per-tenant stage latencies) without deriving twice — stamps lc.Seq
// and pushes the lifecycle onto the capture ring. Runs on the
// application's retrieval goroutine, never the device's.
func (c *Collector) Collect(lc *Lifecycle, extra *SpanSet) {
	if c == nil {
		return
	}
	c.spans.ObserveStamps(&lc.TS)
	extra.ObserveStamps(&lc.TS)
	if lc.Class >= 0 && lc.Class < len(c.classSpans) {
		c.classSpans[lc.Class].ObserveStamps(&lc.TS)
	}
	c.capture.Push(lc)
}

// Snapshot captures the collector state: sampling counters, the
// per-span histograms and the retained completed lifecycles in Seq
// order. Nil-safe (zero snapshot, Enabled false).
func (c *Collector) Snapshot() Snapshot {
	if c == nil {
		return Snapshot{SampleShift: -1}
	}
	s := Snapshot{
		Enabled:     true,
		SampleShift: c.shift,
		Begun:       c.begun.Load(),
		Ended:       int64(c.capture.Pushed()),
		Aborted:     c.aborted.Load(),
		Spans:       c.spans.Snapshot(),
	}
	if len(c.classSpans) > 0 {
		s.ClassSpans = make([]SpanSnapshot, len(c.classSpans))
		for i := range c.classSpans {
			s.ClassSpans[i] = c.classSpans[i].Snapshot()
		}
	}
	s.Captured = c.capture.Snapshot()
	return s
}

// Spans captures only the global per-span histograms — the cheap
// accessor for periodic consumers (e.g. an adaptive-threshold retuner)
// that must not pay Snapshot's capture-ring scan. Nil-safe.
func (c *Collector) Spans() SpanSnapshot {
	if c == nil {
		return SpanSnapshot{}
	}
	return c.spans.Snapshot()
}

// Snapshot is a point-in-time view of a Collector.
type Snapshot struct {
	// Enabled is false on a disabled (nil) collector; SampleShift is the
	// configured 1-in-2^k shift (-1 when disabled).
	Enabled     bool
	SampleShift int
	// Begun / Ended / Aborted count sampled lifecycles opened (Sample),
	// completed through retrieval (Collect), and abandoned by failed
	// submissions (Drop).
	Begun, Ended, Aborted int64
	// Spans holds the per-stage latency histograms.
	Spans SpanSnapshot
	// ClassSpans holds the same histograms split by priority class,
	// indexed by class; empty when the collector was built without classes.
	ClassSpans []SpanSnapshot
	// Captured holds the retained completed lifecycles, oldest first.
	Captured []Lifecycle
}

// chromeEvent is one trace_event entry in the JSON Object Format that
// chrome://tracing and Perfetto load. Timestamps and durations are
// microseconds.
type chromeEvent struct {
	Name  string         `json:"name"`
	Cat   string         `json:"cat"`
	Phase string         `json:"ph"`
	TS    float64        `json:"ts"`
	Dur   float64        `json:"dur,omitempty"`
	PID   int            `json:"pid"`
	TID   int            `json:"tid"`
	Args  map[string]any `json:"args,omitempty"`
}

type chromeTrace struct {
	TraceEvents     []chromeEvent `json:"traceEvents"`
	DisplayTimeUnit string        `json:"displayTimeUnit"`
}

// TraceGroup is one process row of a Chrome trace: a named subsystem
// and its captured lifecycles.
type TraceGroup struct {
	Process    string
	Lifecycles []Lifecycle
}

// ChromeTraceGroupsJSON renders captured lifecycles as Chrome
// trace_event JSON: one Chrome "process" per group on a common time
// base, one thread row per request slot, one complete ("X") event per
// derivable span, timestamps rebased to the earliest submit so the
// timeline starts near zero. The result loads directly into
// chrome://tracing or ui.perfetto.dev.
func ChromeTraceGroupsJSON(groups []TraceGroup) ([]byte, error) {
	var base int64
	for _, g := range groups {
		for _, lc := range g.Lifecycles {
			if t := lc.TS[StageSubmit]; t != 0 && (base == 0 || t < base) {
				base = t
			}
		}
	}
	us := func(ns int64) float64 { return float64(ns-base) / 1e3 }
	out := chromeTrace{DisplayTimeUnit: "ns"}
	for gi, g := range groups {
		pid := gi + 1
		out.TraceEvents = append(out.TraceEvents, chromeEvent{
			Name: "process_name", Cat: "__metadata", Phase: "M", PID: pid,
			Args: map[string]any{"name": g.Process},
		})
		for _, lc := range g.Lifecycles {
			for _, d := range stageSpans {
				if d.span == SpanTotal {
					continue // the per-stage rows already tile the total
				}
				from, to := lc.TS[d.from], lc.TS[d.to]
				if from == 0 || to == 0 {
					continue
				}
				if to < from {
					to = from
				}
				out.TraceEvents = append(out.TraceEvents, chromeEvent{
					Name: d.span.String(), Cat: "memif", Phase: "X",
					TS: us(from), Dur: float64(to-from) / 1e3,
					PID: pid, TID: lc.Slot,
					Args: map[string]any{
						"seq": lc.Seq, "bytes": lc.Bytes, "class": lc.Class,
						"outcome": lc.Outcome.String(),
					},
				})
			}
		}
	}
	return json.Marshal(out)
}
