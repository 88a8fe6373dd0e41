package lifecycle

// Acc is the recorder's one implementation of lane and SLO accounting,
// batched across one completion-retrieve batch. Folding every request
// into the shared state on its own costs ~10 atomic RMWs (EWMA fold,
// lane count, four SLO counters); on the armed always-on path that
// alone would blow the recorder's overhead budget. Acc defers all of it
// to local arithmetic, folded into the shared counters once per batch
// by Flush — while the breach decision (and the breach counter) stays
// exact per request, so retroactive capture keeps its no-sampling-holes
// contract. Recorder.Finish with a nil Acc is a batch of one.
//
// The threshold and warmup state a batch compares against are frozen at
// the lane's first touch in the batch: a breach decision within a batch
// does not see latencies folded by the same batch. At retrieve-batch
// granularity (tens of requests, microseconds) the drift is far below
// the EWMA's own time constant.
//
// An Acc is a plain stack value: Init, hand every retrieved request to
// Recorder.Finish with it, Flush when the batch is done. Not safe for concurrent use — each
// retrieving goroutine owns its Acc.
type Acc struct {
	rec   *Recorder
	n     int
	lanes [accBatchLanes]accLane
}

// accBatchLanes bounds the distinct (class, tenant) lanes one batch can
// accumulate locally; a batch touching more flushes what it has and
// carries on — correct, just less amortized. Retrieve batches are
// almost always single-tenant and one or two classes deep.
const accBatchLanes = 4

type accLane struct {
	tl     *tenantLanes
	class  int
	tenant int
	thr    int64 // threshold in force at first touch
	obj    int64 // SLO objective (0 = class has none)
	warmed bool
	cnt    int64 // OK observations (EWMA + lane count feed)
	latSum int64
	total  int64 // SLO totals (OK observations on lanes with an objective)
	good   int64
}

// Init points the accumulator at r and resets it for a new batch.
func (a *Acc) Init(r *Recorder) {
	a.rec = r
	a.n = 0
}

// observe judges one completed request against its lane's threshold,
// with the lane EWMA, lane count, and SLO counter updates deferred to
// Flush. It returns the threshold in force and whether latNs breached
// it; a breach bumps the recorder's breach counter immediately so the
// Captured == Breaches + Stalls + Events invariant holds at every
// instant. Out-of-range classes and tenants clamp to lane 0.
func (a *Acc) observe(class, tenantID int, latNs int64, ok bool) (thresholdNs int64, breach bool) {
	r := a.rec
	if latNs < 0 {
		latNs = 0
	}
	if class < 0 || class >= MaxClasses {
		class = 0
	}
	var e *accLane
	for i := 0; i < a.n; i++ {
		if a.lanes[i].class == class && a.lanes[i].tenant == tenantID {
			e = &a.lanes[i]
			break
		}
	}
	if e == nil {
		if a.n == len(a.lanes) {
			a.Flush() // spill: fold what the batch has, start over
		}
		e = &a.lanes[a.n]
		a.n++
		*e = accLane{tl: tenant(*r.lanes.Load(), tenantID), class: class, tenant: tenantID}
		ln := &e.tl.lane[class]
		e.thr = r.threshold(ln.ewma.Load())
		e.warmed = ln.count.Load() >= r.warm
		e.obj = r.objectives[class]
	}
	thresholdNs = e.thr
	if ok {
		e.cnt++
		e.latSum += latNs
		if e.obj > 0 {
			e.total++
			if latNs <= e.obj {
				e.good++
			}
		}
	}
	if e.warmed && latNs > thresholdNs {
		breach = true
		r.breaches.Add(1)
	}
	return thresholdNs, breach
}

// Flush folds the batch into the shared lanes and SLO counters and
// resets the accumulator. The EWMA is advanced one fold per OK
// observation using the batch mean — the same fixed point as per-sample
// folding when the batch is latency-homogeneous, and within one batch's
// variance of it otherwise.
func (a *Acc) Flush() {
	r := a.rec
	if r == nil || a.n == 0 {
		return
	}
	for i := 0; i < a.n; i++ {
		e := &a.lanes[i]
		if e.cnt > 0 {
			ln := &e.tl.lane[e.class]
			mean := e.latSum / e.cnt
			ewma := ln.ewma.Load()
			n0 := ln.count.Load()
			k := e.cnt
			if n0 == 0 {
				ewma = mean
				k--
			}
			for ; k > 0; k-- {
				ewma += (mean - ewma) >> ewmaShift
			}
			ln.ewma.Store(ewma)
			ln.count.Store(n0 + e.cnt)
			if e.total > 0 {
				r.classTotal[e.class].Add(e.total)
				e.tl.total.Add(e.total)
				if e.good > 0 {
					r.classGood[e.class].Add(e.good)
					e.tl.good.Add(e.good)
				}
			}
		}
		a.lanes[i] = accLane{}
	}
	a.n = 0
}
