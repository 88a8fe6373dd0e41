// Package obshttp is the export and serving layer over the obs /
// lifecycle instruments: it renders metric snapshots in the Prometheus
// text exposition format, renders captured request lifecycles as Chrome
// trace_event JSON, and serves both — plus the Go runtime profiles —
// from one http.Handler:
//
//	/metrics               Prometheus text format (scrapable)
//	/trace                 Chrome trace_event JSON (chrome://tracing, Perfetto)
//	/debug/outliers        flight-recorder snapshots as JSON (captured
//	                       outliers, stall reports, thresholds, SLO burn)
//	/debug/outliers/trace  the captured outliers as Chrome trace JSON
//	/debug/pprof/*         the standard Go profiles
//
// The package deliberately pulls, never pushes: collectors are closures
// that snapshot a subsystem when a scrape arrives, so an idle handler
// costs nothing and a scrape costs one snapshot per subsystem. The
// bundled converters (RealtimeMetrics, SwapdMetrics, StreamEngineMetrics)
// map the realtime device, the swap daemon and the streaming runtime
// onto a stable metric namespace; ParseExposition validates rendered
// output so CI can assert the exposition stays well-formed without a
// Prometheus binary.
package obshttp

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/pprof"
	"sort"
	"strconv"
	"strings"
	"sync"

	"memif/internal/obs"
	"memif/internal/obs/lifecycle"
)

// MetricType classifies a Metric for the # TYPE header.
type MetricType int

// The exposition metric types used here.
const (
	TypeCounter MetricType = iota
	TypeGauge
	TypeHistogram
)

func (t MetricType) String() string {
	switch t {
	case TypeCounter:
		return "counter"
	case TypeGauge:
		return "gauge"
	default:
		return "histogram"
	}
}

// Label is one name="value" pair on a metric.
type Label struct{ Name, Value string }

// with returns lb extended by extra in a fresh slice, so series that
// share a base label set never alias one backing array.
func with(lb []Label, extra ...Label) []Label {
	return append(append([]Label(nil), lb...), extra...)
}

// Metric is one exposition sample family member: a counter or gauge
// carries Value; a histogram carries Hist (rendered as cumulative
// power-of-two le buckets plus _sum and _count).
type Metric struct {
	Name   string
	Help   string
	Type   MetricType
	Labels []Label
	Value  float64
	Hist   obs.HistogramSnapshot
}

// Collector produces a metric batch at scrape time.
type Collector func() []Metric

// source is one named subsystem snapshotted at render time: its sampled
// lifecycles for /trace, its flight recorder for /debug/outliers.
type source[T any] struct {
	name     string
	snapshot func() T
}

// Handler serves /metrics, /trace, /debug/outliers and /debug/pprof/*
// for a set of registered collectors and sources. The zero value is
// usable; registration is safe concurrently with serving.
type Handler struct {
	mu         sync.RWMutex
	collectors []Collector
	traces     []source[[]lifecycle.Lifecycle]
	outliers   []source[lifecycle.FlightSnapshot]
}

// NewHandler returns an empty Handler.
func NewHandler() *Handler { return &Handler{} }

// Register adds a metric collector, called on every /metrics scrape.
func (h *Handler) Register(c Collector) {
	h.mu.Lock()
	h.collectors = append(h.collectors, c)
	h.mu.Unlock()
}

// RegisterTrace adds a lifecycle source, one Chrome process row per
// source, rendered on every /trace request.
func (h *Handler) RegisterTrace(process string, fn func() []lifecycle.Lifecycle) {
	h.mu.Lock()
	h.traces = append(h.traces, source[[]lifecycle.Lifecycle]{process, fn})
	h.mu.Unlock()
}

// RegisterOutliers adds a flight-recorder source, one entry in the
// /debug/outliers document (and one Chrome process row in
// /debug/outliers/trace) per source.
func (h *Handler) RegisterOutliers(name string, fn func() lifecycle.FlightSnapshot) {
	h.mu.Lock()
	h.outliers = append(h.outliers, source[lifecycle.FlightSnapshot]{name, fn})
	h.mu.Unlock()
}

// Gather runs every collector and returns the combined batch.
func (h *Handler) Gather() []Metric {
	h.mu.RLock()
	cs := h.collectors
	h.mu.RUnlock()
	var out []Metric
	for _, c := range cs {
		out = append(out, c()...)
	}
	return out
}

// MetricsText renders the current scrape as exposition-format bytes —
// the body /metrics serves, also handy for tests and CLI validation.
func (h *Handler) MetricsText() []byte {
	var b strings.Builder
	WriteExposition(&b, h.Gather())
	return []byte(b.String())
}

// TraceJSON renders the current captured lifecycles of every source as
// one Chrome trace_event JSON document.
func (h *Handler) TraceJSON() ([]byte, error) {
	h.mu.RLock()
	srcs := h.traces
	h.mu.RUnlock()
	groups := make([]lifecycle.TraceGroup, 0, len(srcs))
	for _, s := range srcs {
		groups = append(groups, lifecycle.TraceGroup{Process: s.name, Lifecycles: s.snapshot()})
	}
	return lifecycle.ChromeTraceGroupsJSON(groups)
}

// OutlierReport is one source's entry in the /debug/outliers document.
type OutlierReport struct {
	Source string                   `json:"source"`
	Flight lifecycle.FlightSnapshot `json:"flight"`
}

// OutlierReports snapshots every registered flight recorder.
func (h *Handler) OutlierReports() []OutlierReport {
	h.mu.RLock()
	srcs := h.outliers
	h.mu.RUnlock()
	out := make([]OutlierReport, 0, len(srcs))
	for _, s := range srcs {
		out = append(out, OutlierReport{Source: s.name, Flight: s.snapshot()})
	}
	return out
}

// OutliersJSON renders every registered flight recorder's snapshot as
// one JSON document — the /debug/outliers body.
func (h *Handler) OutliersJSON() ([]byte, error) {
	return json.MarshalIndent(h.OutlierReports(), "", "  ")
}

// OutliersTraceJSON renders the outlier ring of every flight source
// through the same exporter as /trace: each breaching request's stamp
// vector becomes a span row, so the tail can be eyeballed on the same
// timeline view as the sampled export. Stall and event records carry
// no stamp vector, so they contribute no spans.
func (h *Handler) OutliersTraceJSON() ([]byte, error) {
	var groups []lifecycle.TraceGroup
	for _, rep := range h.OutlierReports() {
		groups = append(groups, lifecycle.TraceGroup{Process: rep.Source + " outliers", Lifecycles: rep.Flight.Outliers})
	}
	return lifecycle.ChromeTraceGroupsJSON(groups)
}

// ServeHTTP routes /metrics, /trace, /debug/outliers and /debug/pprof/*.
func (h *Handler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	switch p := r.URL.Path; {
	case p == "/metrics":
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		w.Write(h.MetricsText())
	case p == "/trace":
		serveJSON(w, h.TraceJSON)
	case p == "/debug/outliers":
		serveJSON(w, h.OutliersJSON)
	case p == "/debug/outliers/trace":
		serveJSON(w, h.OutliersTraceJSON)
	case strings.HasPrefix(p, "/debug/pprof"):
		switch p {
		case "/debug/pprof/cmdline":
			pprof.Cmdline(w, r)
		case "/debug/pprof/profile":
			pprof.Profile(w, r)
		case "/debug/pprof/symbol":
			pprof.Symbol(w, r)
		case "/debug/pprof/trace":
			pprof.Trace(w, r)
		default:
			pprof.Index(w, r)
		}
	case p == "/" || p == "":
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		io.WriteString(w, "memif observability endpoints:\n  /metrics\n  /trace\n  /debug/outliers\n  /debug/outliers/trace\n  /debug/pprof/\n")
	default:
		http.NotFound(w, r)
	}
}

func serveJSON(w http.ResponseWriter, render func() ([]byte, error)) {
	body, err := render()
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Write(body)
}

// ---------------------------------------------------------------------
// Exposition rendering
// ---------------------------------------------------------------------

// WriteExposition renders metrics in the Prometheus text format
// (version 0.0.4). Metrics sharing a name are grouped under one
// # HELP / # TYPE header in first-appearance order; histograms expand
// into cumulative le buckets on the obs power-of-two boundaries, up to
// the highest occupied bucket, plus +Inf, _sum and _count.
func WriteExposition(w io.Writer, ms []Metric) {
	order := make([]string, 0, len(ms))
	groups := make(map[string][]Metric, len(ms))
	for _, m := range ms {
		if _, ok := groups[m.Name]; !ok {
			order = append(order, m.Name)
		}
		groups[m.Name] = append(groups[m.Name], m)
	}
	for _, name := range order {
		g := groups[name]
		help := ""
		for _, m := range g {
			if m.Help != "" {
				help = m.Help
				break
			}
		}
		if help != "" {
			fmt.Fprintf(w, "# HELP %s %s\n", name, helpEscaper.Replace(help))
		}
		fmt.Fprintf(w, "# TYPE %s %s\n", name, g[0].Type)
		for _, m := range g {
			if m.Type == TypeHistogram {
				writeHistogram(w, m)
				continue
			}
			fmt.Fprintf(w, "%s%s %s\n", name, renderLabels(m.Labels), formatValue(m.Value))
		}
	}
}

func writeHistogram(w io.Writer, m Metric) {
	hi := 0
	for i := obs.NumBuckets - 1; i >= 0; i-- {
		if m.Hist.Buckets[i] != 0 {
			hi = i
			break
		}
	}
	var cum int64
	for i := 0; i <= hi; i++ {
		cum += m.Hist.Buckets[i]
		fmt.Fprintf(w, "%s_bucket%s %d\n", m.Name,
			renderLabels(with(m.Labels, Label{"le", strconv.FormatInt(obs.BucketUpper(i), 10)})), cum)
	}
	// A snapshot taken under load is per-field atomic only: Count may
	// trail the buckets by the samples in flight, and a +Inf below the
	// last bucket is an invalid exposition.
	count := m.Hist.Count
	if count < cum {
		count = cum
	}
	fmt.Fprintf(w, "%s_bucket%s %d\n", m.Name,
		renderLabels(with(m.Labels, Label{"le", "+Inf"})), count)
	fmt.Fprintf(w, "%s_sum%s %d\n", m.Name, renderLabels(m.Labels), m.Hist.Sum)
	fmt.Fprintf(w, "%s_count%s %d\n", m.Name, renderLabels(m.Labels), count)
}

func renderLabels(ls []Label) string {
	if len(ls) == 0 {
		return ""
	}
	var b strings.Builder
	b.WriteByte('{')
	for i, l := range ls {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(l.Name)
		b.WriteString(`="`)
		b.WriteString(labelEscaper.Replace(l.Value))
		b.WriteByte('"')
	}
	b.WriteByte('}')
	return b.String()
}

var (
	labelEscaper = strings.NewReplacer(`\`, `\\`, "\n", `\n`, `"`, `\"`)
	helpEscaper  = strings.NewReplacer(`\`, `\\`, "\n", `\n`)
)

func formatValue(v float64) string {
	if v == float64(int64(v)) {
		return strconv.FormatInt(int64(v), 10)
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// ---------------------------------------------------------------------
// Exposition validation (for CI and tests — no Prometheus binary needed)
// ---------------------------------------------------------------------

type histSeries struct {
	lastLe   float64
	lastVal  float64
	seenInf  bool
	infVal   float64
	count    float64
	hasCount bool
}

// ParseExposition validates Prometheus text-format exposition: comment
// and sample syntax, declared types, le-labelled cumulative histogram
// buckets that are monotone and end at +Inf, and _count agreeing with
// the +Inf bucket. It returns the first violation, or nil when the
// input is well-formed and contains at least one sample.
func ParseExposition(data []byte) error {
	types := make(map[string]string)
	hists := make(map[string]*histSeries)
	samples := 0
	for ln, line := range strings.Split(string(data), "\n") {
		lineNo := ln + 1
		if strings.TrimSpace(line) == "" {
			continue
		}
		if strings.HasPrefix(line, "#") {
			if err := parseComment(line, types); err != nil {
				return fmt.Errorf("line %d: %w", lineNo, err)
			}
			continue
		}
		name, labels, value, err := parseSample(line)
		if err != nil {
			return fmt.Errorf("line %d: %w", lineNo, err)
		}
		samples++
		base, suffix := splitSeries(name, types)
		typ, declared := types[base]
		if !declared {
			return fmt.Errorf("line %d: sample %q has no # TYPE declaration", lineNo, name)
		}
		if typ == "histogram" {
			if err := checkHistogramSample(base, suffix, labels, value, hists); err != nil {
				return fmt.Errorf("line %d: %w", lineNo, err)
			}
		} else if suffix != "" {
			return fmt.Errorf("line %d: %s sample %q uses histogram suffix", lineNo, typ, name)
		}
	}
	if samples == 0 {
		return fmt.Errorf("exposition contains no samples")
	}
	for key, h := range hists {
		if !h.seenInf {
			return fmt.Errorf("histogram series %s has no +Inf bucket", key)
		}
		if h.hasCount && h.count != h.infVal {
			return fmt.Errorf("histogram series %s: _count %g != +Inf bucket %g", key, h.count, h.infVal)
		}
	}
	return nil
}

func parseComment(line string, types map[string]string) error {
	fields := strings.SplitN(line, " ", 4)
	if len(fields) < 2 {
		return nil // bare comment
	}
	switch fields[1] {
	case "HELP":
		if len(fields) < 3 || !validName(fields[2], true) {
			return fmt.Errorf("malformed HELP comment %q", line)
		}
	case "TYPE":
		if len(fields) < 4 || !validName(fields[2], true) {
			return fmt.Errorf("malformed TYPE comment %q", line)
		}
		typ := strings.TrimSpace(fields[3])
		switch typ {
		case "counter", "gauge", "histogram", "summary", "untyped":
		default:
			return fmt.Errorf("unknown metric type %q", typ)
		}
		if old, dup := types[fields[2]]; dup && old != typ {
			return fmt.Errorf("metric %s redeclared as %s (was %s)", fields[2], typ, old)
		}
		types[fields[2]] = typ
	}
	return nil
}

// splitSeries strips a histogram sample suffix when the base name is a
// declared histogram (so a counter legitimately named *_count is not
// misparsed).
func splitSeries(name string, types map[string]string) (base, suffix string) {
	for _, s := range []string{"_bucket", "_sum", "_count"} {
		if b, ok := strings.CutSuffix(name, s); ok && types[b] == "histogram" {
			return b, s
		}
	}
	return name, ""
}

func checkHistogramSample(base, suffix string, labels []Label, value float64, hists map[string]*histSeries) error {
	rest := make([]Label, 0, len(labels))
	le := ""
	for _, l := range labels {
		if l.Name == "le" {
			le = l.Value
			continue
		}
		rest = append(rest, l)
	}
	sort.Slice(rest, func(i, j int) bool { return rest[i].Name < rest[j].Name })
	key := base + renderLabels(rest)
	h := hists[key]
	if h == nil {
		h = &histSeries{lastLe: -1}
		hists[key] = h
	}
	switch suffix {
	case "_bucket":
		if le == "" {
			return fmt.Errorf("%s_bucket sample missing le label", base)
		}
		if le == "+Inf" {
			h.seenInf = true
			h.infVal = value
			if value < h.lastVal {
				return fmt.Errorf("series %s: +Inf bucket %g below previous bucket %g", key, value, h.lastVal)
			}
			return nil
		}
		bound, err := strconv.ParseFloat(le, 64)
		if err != nil {
			return fmt.Errorf("series %s: bad le %q", key, le)
		}
		if bound <= h.lastLe {
			return fmt.Errorf("series %s: le %g not increasing (previous %g)", key, bound, h.lastLe)
		}
		if value < h.lastVal {
			return fmt.Errorf("series %s: cumulative bucket %g decreased (previous %g)", key, value, h.lastVal)
		}
		h.lastLe, h.lastVal = bound, value
	case "_count":
		h.count, h.hasCount = value, true
	case "_sum":
	default:
		return fmt.Errorf("histogram %s has bare sample (no _bucket/_sum/_count suffix)", base)
	}
	return nil
}

// validName reports whether s is a metric name (colon allowed) or a
// label name (not).
func validName(s string, colon bool) bool {
	for i := 0; i < len(s); i++ {
		if !isNameChar(s[i], i > 0, colon) {
			return false
		}
	}
	return s != ""
}

func isNameChar(c byte, notFirst, colon bool) bool {
	return c == '_' || (colon && c == ':') ||
		(c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
		(notFirst && c >= '0' && c <= '9')
}

func parseSample(line string) (name string, labels []Label, value float64, err error) {
	i := 0
	for i < len(line) && isNameChar(line[i], i > 0, true) {
		i++
	}
	name = line[:i]
	if !validName(name, true) {
		return "", nil, 0, fmt.Errorf("bad metric name in %q", line)
	}
	rest := line[i:]
	if strings.HasPrefix(rest, "{") {
		labels, rest, err = parseLabels(rest[1:])
		if err != nil {
			return "", nil, 0, fmt.Errorf("%w in %q", err, line)
		}
	}
	fields := strings.Fields(rest)
	if len(fields) < 1 || len(fields) > 2 {
		return "", nil, 0, fmt.Errorf("expected value [timestamp] after %q", name)
	}
	value, err = strconv.ParseFloat(fields[0], 64)
	if err != nil {
		return "", nil, 0, fmt.Errorf("bad sample value %q", fields[0])
	}
	if len(fields) == 2 {
		if _, err := strconv.ParseInt(fields[1], 10, 64); err != nil {
			return "", nil, 0, fmt.Errorf("bad timestamp %q", fields[1])
		}
	}
	return name, labels, value, nil
}

// parseLabels parses the label pairs that follow an opening brace and
// returns them with whatever follows the closing one.
func parseLabels(s string) (out []Label, rest string, err error) {
	for {
		if s == "" {
			return nil, "", fmt.Errorf("unterminated label set")
		}
		if s[0] == '}' {
			return out, s[1:], nil
		}
		eq := strings.IndexByte(s, '=')
		if eq <= 0 {
			return nil, "", fmt.Errorf("malformed label pair %q", s)
		}
		lname := s[:eq]
		if !validName(lname, false) {
			return nil, "", fmt.Errorf("bad label name %q", lname)
		}
		s = s[eq+1:]
		if len(s) == 0 || s[0] != '"' {
			return nil, "", fmt.Errorf("label %s value not quoted", lname)
		}
		s = s[1:]
		var val strings.Builder
		closed := false
		for i := 0; i < len(s); i++ {
			c := s[i]
			if c == '\\' {
				if i+1 >= len(s) {
					return nil, "", fmt.Errorf("dangling escape in label %s", lname)
				}
				i++
				switch s[i] {
				case '\\':
					val.WriteByte('\\')
				case '"':
					val.WriteByte('"')
				case 'n':
					val.WriteByte('\n')
				default:
					return nil, "", fmt.Errorf("bad escape \\%c in label %s", s[i], lname)
				}
				continue
			}
			if c == '"' {
				closed = true
				s = s[i+1:]
				break
			}
			val.WriteByte(c)
		}
		if !closed {
			return nil, "", fmt.Errorf("unterminated value for label %s", lname)
		}
		out = append(out, Label{lname, val.String()})
		s = strings.TrimPrefix(s, ",")
	}
}

// ---------------------------------------------------------------------
// Span histograms (shared by every subsystem converter)
// ---------------------------------------------------------------------

// SpanMetrics renders a lifecycle.SpanSnapshot as one histogram family:
// name{...labels, stage="staging_wait"|...} per span. Every span is
// emitted, occupied or not, so dashboards see a stable series set.
func SpanMetrics(name, help string, labels []Label, s lifecycle.SpanSnapshot) []Metric {
	out := make([]Metric, 0, lifecycle.NumSpans)
	for sp, h := range s.Spans {
		out = append(out, Metric{
			Name: name, Help: help, Type: TypeHistogram,
			Labels: with(labels, Label{"stage", lifecycle.Span(sp).String()}),
			Hist:   h,
		})
	}
	return out
}
