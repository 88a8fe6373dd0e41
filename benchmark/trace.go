package main

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"time"
)

// spanKind names one call site the traced run records. Spans are taken
// from the benchmark's own files, around each call into a layer; spans
// inside the engines are a later issue.
type spanKind uint8

const (
	spanWindow spanKind = iota // one measured window or repetition (root)
	spanAlloc
	spanSubmit
	spanPoll
	spanRetrieve
	spanFree
	spanConsume // streamrt: one Stream.Consume, i.e. one chunk
	spanAccount // the generator's own bookkeeping and output checks
	spanMmap
	spanFill
	spanVerify
	spanRun // wall time around sim Engine.Run
	numSpanKinds
)

var spanNames = [numSpanKinds]string{
	"window", "alloc", "submit", "poll", "retrieve", "free",
	"streamrt.consume", "bench.account", "vm.mmap", "bench.fill", "bench.verify", "sim.run",
}

// span is one recorded interval. Times are host nanoseconds since the
// tracer was created; Parent indexes the buffer (-1 for a root); Req is
// the first request id the call handled and N how many it handled.
type span struct {
	Start, End int64
	Req        uint64
	Parent     int32
	N          int32
	Kind       spanKind
}

// maxSpans bounds the in-memory span buffer (32 B each): enough for the
// first few hundred thousand calls of a run. Once it is full only the
// per-kind totals keep accumulating, so per-layer numbers always cover
// the whole run while the written trace stays loadable.
const maxSpans = 1 << 18

// tracer records spans into a preallocated buffer and keeps per-kind
// totals. A nil tracer is the untraced run: every method is a no-op
// that reads no clock.
type tracer struct {
	layer string // prefix of the call-site span names ("realtime", "core")
	base  time.Time
	buf   []span
	root  int32
	// Per-kind time totals since the last resetTotals.
	ns [numSpanKinds]int64
}

func newTracer(layer string) *tracer {
	return &tracer{layer: layer, base: time.Now(), buf: make([]span, 0, maxSpans), root: -1}
}

// now returns nanoseconds since the tracer's base, 0 when untraced.
func (t *tracer) now() int64 {
	if t == nil {
		return 0
	}
	return int64(time.Since(t.base))
}

// add records [start, end) as a span of kind under the current root.
func (t *tracer) add(kind spanKind, start, end int64, req uint64, n int) {
	if t == nil {
		return
	}
	t.ns[kind] += end - start
	if len(t.buf) < cap(t.buf) {
		t.buf = append(t.buf, span{Start: start, End: end, Req: req, Parent: t.root, N: int32(n), Kind: kind})
	}
}

// begin opens a root span (a window or repetition); spans added until
// end are its children.
func (t *tracer) begin(start int64, req uint64) {
	if t == nil {
		return
	}
	t.root = -1
	if len(t.buf) < cap(t.buf) {
		t.buf = append(t.buf, span{Start: start, Req: req, Parent: -1, Kind: spanWindow})
		t.root = int32(len(t.buf) - 1)
	}
}

// end closes the current root span.
func (t *tracer) end(end int64, n int) {
	if t == nil {
		return
	}
	if t.root >= 0 {
		t.buf[t.root].End = end
		t.buf[t.root].N = int32(n)
	}
	t.root = -1
}

// resetTotals clears the per-kind totals (the span buffer is kept).
func (t *tracer) resetTotals() {
	if t == nil {
		return
	}
	t.ns = [numSpanKinds]int64{}
}

func (t *tracer) name(k spanKind) string {
	switch k {
	case spanAlloc, spanSubmit, spanPoll, spanRetrieve, spanFree:
		return t.layer + "." + spanNames[k]
	}
	return spanNames[k]
}

// write stores the span buffer as JSON under dir and returns the path.
// The file is an object with the span schema and one array row per
// span, compact enough that a full buffer stays a few tens of MB.
func (t *tracer) write(dir, workload string, seed int64) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, workload+".trace.json")
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	w := bufio.NewWriterSize(f, 1<<20)
	fmt.Fprintf(w, "{\"workload\":%q,\"seed\":%d,\"time_unit\":\"ns since trace start (host clock)\",\n", workload, seed)
	fmt.Fprintf(w, "\"columns\":[\"id\",\"name\",\"start\",\"end\",\"parent\",\"request\",\"count\"],\n")
	fmt.Fprintf(w, "\"truncated\":%t,\n\"spans\":[\n", len(t.buf) == cap(t.buf))
	for i, s := range t.buf {
		sep := ","
		if i == len(t.buf)-1 {
			sep = ""
		}
		fmt.Fprintf(w, "[%d,%q,%d,%d,%d,%d,%d]%s\n", i, t.name(s.Kind), s.Start, s.End, s.Parent, s.Req, s.N, sep)
	}
	fmt.Fprintf(w, "]}\n")
	if err := w.Flush(); err != nil {
		f.Close()
		return "", err
	}
	return path, f.Close()
}
