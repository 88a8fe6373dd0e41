// Package lifecycle is the observability of every engine's request
// pipeline: the stages a request passes through in an asynchronous move
// (submit → flushed → dispatched → copy start/end → completed →
// retrieved), the one captured-request record (Lifecycle) and the one
// lock-free ring that holds it (record.go), a Chrome trace_event export,
// and the one Recorder each engine — the realtime device, swapd, the
// stream engine — hands every finished request to, once, through
// Finish. It is the paper's Section 6 latency-budget attribution turned
// into an always-on instrument.
//
// The package never stamps: each pipeline keeps its stage timestamps on
// its own request record, written by the goroutines that own it at each
// handoff. The Recorder has two halves. Sampling: one request in
// 2^shift (1 in 128 on the realtime device, every request on the
// simulated engines) has its stage-pair spans derived into histograms —
// global, per class, per tenant or stream — and joins the sampled ring.
// Flight recording: sampling almost never holds the p99.9 request, so
// every request's latency is judged at retrieval against an adaptive
// per-(class,tenant) threshold (Acc is the one implementation of that
// arithmetic), and a breach joins the outlier ring with the owner's
// ambient congestion picture. A wall-clock owner also gets per-class and
// per-tenant SLO burn rates and a stall watchdog whose findings land in
// the outlier ring as typed records.
//
// All of it runs on the retrieval path and the owner's monitor tick,
// never on a worker or controller goroutine, and the request path is
// lock-free. What is settable is FlightOptions; every former knob that
// only ever had one value is a constant, with its reason.
package lifecycle

import (
	"encoding/json"

	"memif/internal/obs"
)

// Stage is one timestamped point in a request's life.
type Stage uint8

// The stage model. A pipeline stamps the subset it has: the realtime
// device stamps all of them; a request failing off-protocol (e.g. a
// batch member's ErrNoSlots at staging) skips straight from StageSubmit
// to StageCompleted, and span derivation skips spans with a missing
// endpoint.
const (
	// StageSubmit: the request entered the staging queue.
	StageSubmit Stage = iota
	// StageFlushed: it left the staging queue — a flush moved it onto
	// the submission queue (the simulated driver), or the realtime
	// worker drained it into its scheduler's buckets.
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
	// SpanStagingWait: submit → flushed; time spent in the staging queue
	// waiting for a flush or the worker's drain.
	SpanStagingWait Span = iota
	// SpanDispatchWait: flushed → dispatched; time on the submission
	// queue (or in the realtime scheduler's buckets) waiting for the
	// worker.
	SpanDispatchWait
	// SpanRingWait: push → pop of a chunk on a dispatch ring (chunk
	// level; observed once per sampled chunk).
	SpanRingWait
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
	"staging_wait", "dispatch_wait", "ring_wait", "copy",
	"completion_dwell", "total",
}

// String is the span's metric-label name.
func (s Span) String() string { return enumName(spanNames[:], "span", uint8(s)) }

// stageSpans lists the spans derived from stage pairs (the chunk-level
// SpanRingWait is observed separately).
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
// Negative durations are clamped to zero rather than dropped, so a torn
// clock can never hide a sample.
func (s *SpanSet) Observe(sp Span, d int64) {
	if d < 0 {
		d = 0
	}
	s.spans[sp].Observe(d)
}

// observeStamps derives and records every stage-pair span whose
// endpoints are both stamped (nonzero). The chunk-level spans are not
// derivable from stamps and are untouched.
func (s *SpanSet) observeStamps(ts *[NumStages]int64) {
	for _, d := range stageSpans {
		from, to := ts[d.from], ts[d.to]
		if from == 0 || to == 0 {
			continue
		}
		s.Observe(d.span, to-from)
	}
}

// Stamps assembles a stage-stamp array from the seven stage times of a
// request record (0 = stage never reached), the Lifecycle.TS a Recorder
// derives spans from.
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

// Snapshot captures every span histogram.
func (s *SpanSet) Snapshot() SpanSnapshot {
	var out SpanSnapshot
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
// derivable stage-pair span, timestamps rebased to the earliest submit
// so the timeline starts near zero. The result loads directly into
// chrome://tracing or ui.perfetto.dev.
//
// The rows do not tile the request: no span covers dispatched →
// copy_start (the sim driver's prepare phase, the realtime first
// chunk's ring wait) or copy_end → completed, so those intervals show
// as gaps on the row.
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
					continue // the whole request, not a stage
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
