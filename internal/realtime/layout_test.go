package realtime

import (
	"reflect"
	"testing"
	"unsafe"
)

// lineField is one field of a padded struct: its byte range and the
// goroutine population that writes it.
type lineField struct {
	name      string
	off, size uintptr
	writer    string
}

// checkCacheLines fails for every pair of fields with different writers
// whose byte ranges come closer than 64 bytes: at any base alignment
// such a pair can share a cache line, and each writer's RMW then
// invalidates the other's. fields must list every named field of typ,
// so a field added later has to be given a writer here. Fields with
// writer "" (set before the struct is published) are not checked.
func checkCacheLines(t *testing.T, typ reflect.Type, fields []lineField) {
	t.Helper()
	named := 0
	for i := 0; i < typ.NumField(); i++ {
		if typ.Field(i).Name != "_" {
			named++
		}
	}
	if named != len(fields) {
		t.Errorf("%v has %d named fields, the layout table lists %d", typ, named, len(fields))
	}
	for _, a := range fields {
		for _, b := range fields {
			if a.writer == "" || b.writer == "" || a.writer == b.writer || a.off > b.off {
				continue
			}
			if gap := int(b.off) - int(a.off+a.size); gap < 64 {
				t.Errorf("%v: %s (%s) ends %d bytes before %s (%s) starts; want at least 64",
					typ, a.name, a.writer, gap, b.name, b.writer)
			}
		}
	}
}

// TestCacheLineLayout pins the false-sharing audit of the two counter
// blocks every request touches: in metrics and in tenantState, nothing
// a submitter writes can share a cache line with anything a finisher,
// the worker or a poller writes.
func TestCacheLineLayout(t *testing.T) {
	const (
		sub    = "submitters"
		fin    = "finishers"
		wrk    = "worker"
		poll   = "pollers"
		queued = "submitters and worker"
	)
	var m metrics
	checkCacheLines(t, reflect.TypeOf(&m).Elem(), []lineField{
		{"submitted", unsafe.Offsetof(m.submitted), unsafe.Sizeof(m.submitted), sub},
		{"kicks", unsafe.Offsetof(m.kicks), unsafe.Sizeof(m.kicks), sub},
		{"batches", unsafe.Offsetof(m.batches), unsafe.Sizeof(m.batches), sub},
		{"shed", unsafe.Offsetof(m.shed), unsafe.Sizeof(m.shed), sub},
		{"enqueueRetries", unsafe.Offsetof(m.enqueueRetries), unsafe.Sizeof(m.enqueueRetries), sub},
		{"classSubmitted", unsafe.Offsetof(m.classSubmitted), unsafe.Sizeof(m.classSubmitted), sub},
		{"classShed", unsafe.Offsetof(m.classShed), unsafe.Sizeof(m.classShed), sub},
		{"sizes", unsafe.Offsetof(m.sizes), unsafe.Sizeof(m.sizes), sub},
		{"submissionHW", unsafe.Offsetof(m.submissionHW), unsafe.Sizeof(m.submissionHW), sub},
		{"completed", unsafe.Offsetof(m.completed), unsafe.Sizeof(m.completed), fin},
		{"canceled", unsafe.Offsetof(m.canceled), unsafe.Sizeof(m.canceled), fin},
		{"expired", unsafe.Offsetof(m.expired), unsafe.Sizeof(m.expired), fin},
		{"failed", unsafe.Offsetof(m.failed), unsafe.Sizeof(m.failed), fin},
		{"overloaded", unsafe.Offsetof(m.overloaded), unsafe.Sizeof(m.overloaded), fin},
		{"doubleCompletes", unsafe.Offsetof(m.doubleCompletes), unsafe.Sizeof(m.doubleCompletes), fin},
		{"classCompleted", unsafe.Offsetof(m.classCompleted), unsafe.Sizeof(m.classCompleted), fin},
		{"classLatency", unsafe.Offsetof(m.classLatency), unsafe.Sizeof(m.classLatency), fin},
		{"completionHW", unsafe.Offsetof(m.completionHW), unsafe.Sizeof(m.completionHW), fin},
		{"wakes", unsafe.Offsetof(m.wakes), unsafe.Sizeof(m.wakes), wrk},
		{"inlineCompleted", unsafe.Offsetof(m.inlineCompleted), unsafe.Sizeof(m.inlineCompleted), wrk},
		{"agedPops", unsafe.Offsetof(m.agedPops), unsafe.Sizeof(m.agedPops), wrk},
		{"retunes", unsafe.Offsetof(m.retunes), unsafe.Sizeof(m.retunes), wrk},
		{"dispatchRetries", unsafe.Offsetof(m.dispatchRetries), unsafe.Sizeof(m.dispatchRetries), wrk},
		{"dispatched", unsafe.Offsetof(m.dispatched), unsafe.Sizeof(m.dispatched), wrk},
		{"pollerSpins", unsafe.Offsetof(m.pollerSpins), unsafe.Sizeof(m.pollerSpins), poll},
		{"pollerParks", unsafe.Offsetof(m.pollerParks), unsafe.Sizeof(m.pollerParks), poll},
		{"retrieved", unsafe.Offsetof(m.retrieved), unsafe.Sizeof(m.retrieved), poll},
	})
	var ts tenantState
	checkCacheLines(t, reflect.TypeOf(&ts).Elem(), []lineField{
		{"id", unsafe.Offsetof(ts.id), unsafe.Sizeof(ts.id), ""},
		{"name", unsafe.Offsetof(ts.name), unsafe.Sizeof(ts.name), ""},
		{"weight", unsafe.Offsetof(ts.weight), unsafe.Sizeof(ts.weight), ""},
		{"quota", unsafe.Offsetof(ts.quota), unsafe.Sizeof(ts.quota), ""},
		{"classLimit", unsafe.Offsetof(ts.classLimit), unsafe.Sizeof(ts.classLimit), ""},
		{"queued", unsafe.Offsetof(ts.queued), unsafe.Sizeof(ts.queued), queued},
		{"submitted", unsafe.Offsetof(ts.submitted), unsafe.Sizeof(ts.submitted), sub},
		{"shed", unsafe.Offsetof(ts.shed), unsafe.Sizeof(ts.shed), sub},
		{"completed", unsafe.Offsetof(ts.completed), unsafe.Sizeof(ts.completed), fin},
		{"canceled", unsafe.Offsetof(ts.canceled), unsafe.Sizeof(ts.canceled), fin},
		{"latency", unsafe.Offsetof(ts.latency), unsafe.Sizeof(ts.latency), fin},
	})
}
