package realtime

import (
	"fmt"
	"sync/atomic"

	"memif/internal/obs"
	"memif/internal/obs/lifecycle"
	"memif/internal/qos"
)

// metrics is the device's obs instrument set.
//
// False-sharing audit: every instrument is grouped by its writer
// population — submitters, the finishers (controllers plus the worker's
// inline path), the worker, and pollers — with a cache-line pad between
// groups, so one population's RMW traffic doesn't invalidate another's
// line. Within a group the writers genuinely share the counter (true
// sharing, the price of a global count); the per-chunk counters that
// used to true-share here (chunks, bytesMoved) moved to per-controller
// ctrCounters blocks instead. TestCacheLineLayout pins the grouping.
type metrics struct {
	// Submitter-side: bumped on Submit/SubmitBatch/admit and at the
	// kick.
	submitted, kicks obs.Counter
	batches, shed    obs.Counter
	classSubmitted   [qos.NumClasses]obs.Counter
	classShed        [qos.NumClasses]obs.Counter
	sizes            obs.Histogram
	_                [64]byte
	// Finisher-side: bumped in finish, from whichever controller (or
	// the worker, inline) retires the request.
	completed, canceled obs.Counter
	expired, failed     obs.Counter
	overloaded          obs.Counter
	doubleCompletes     obs.Counter
	classCompleted      [qos.NumClasses]obs.Counter
	classLatency        [qos.NumClasses]obs.Histogram
	completionHW        obs.Gauge
	_                   [64]byte
	// Worker-side: bumped only on the dispatch goroutine.
	wakes, inlineCompleted obs.Counter
	agedPops, retunes      obs.Counter
	dispatchRetries        obs.Counter
	dispatched             obs.Counter
	_                      [64]byte
	// Poller-side: bumped in Poll/PollContext's micro-wait and on the
	// retrieval paths (the watchdog's progress probe).
	pollerSpins, pollerParks obs.Counter
	retrieved                obs.Counter
	_                        [64]byte // off the read-mostly Device fields after m
}

// ctrCounters is one transfer controller's private counter block,
// padded to a cache line. Shared chunks/bytesMoved counters were the
// hottest true sharing in the engine — every controller RMW'd the same
// adjacent words once per chunk — so each controller (plus one extra
// slot for the worker's inline-copy path) counts privately and Stats
// sums the blocks.
type ctrCounters struct {
	chunks, bytesMoved atomic.Int64
	_                  [48]byte
}

// classOccupancy is class c's accepted-but-not-terminal count. Every
// accepted request bumps classSubmitted once (accept) and
// classCompleted once (finish), so the occupancy is their difference
// and costs the hot path no counter of its own. completed is loaded
// first: a request finishing between the loads can only overstate it.
func (m *metrics) classOccupancy(c int) int64 {
	done := m.classCompleted[c].Load()
	return m.classSubmitted[c].Load() - done
}

// StatsSnapshot is a point-in-time view of the device counters,
// histograms, queue watermarks and sampled lifecycles. Safe to take
// from any goroutine at any time.
type StatsSnapshot struct {
	// Request outcomes. Completed counts every terminal request,
	// including the Canceled / Expired / Failed subsets.
	Submitted, Completed      int64
	Canceled, Expired, Failed int64
	// Kicks counts the kick-start syscall-equivalents; WorkerWakes the
	// times the worker actually slept and was woken (amortization means
	// Kicks can stay near 1 for a burst). Batches counts SubmitBatch
	// calls — each costs at most one kick regardless of its length.
	Kicks, WorkerWakes, Batches int64
	// PollerSpins counts Poll/PollContext calls whose bounded
	// spin-before-sleep micro-wait observed a completion without
	// parking; PollerParks counts blocking waits on the notify edge.
	PollerSpins, PollerParks int64
	// Chunks counts controller work units; BytesMoved the payload
	// actually copied (canceled chunks don't count).
	Chunks, BytesMoved int64
	// DispatchRetries counts worker backoffs with the chunk ring full.
	// Steals is always 0: the controllers share one chunk ring, so no
	// chunk is taken from another controller's. The field stays because
	// the benchmark module reads it (realtime.steals_per_op).
	Steals, DispatchRetries int64
	// DoubleCompletes counts completion paths that found the request
	// already terminal. The protocol guarantees completion fires exactly
	// once, so any nonzero value is a bug; the chaos suite asserts it
	// stays zero.
	DoubleCompletes int64
	// Shed counts submissions the admission controller rejected with
	// ErrOverload (single submits returned the error; batch members
	// surfaced it through their completion). Overloaded is the subset
	// that surfaced as completions. Both exclude ErrNoSlots, which
	// remains a Failed outcome.
	Shed, Overloaded int64
	// InlineCompleted counts requests copied inline by the worker (the
	// adaptive poll path); InlineThresholdBytes is the current
	// self-tuned cutoff (0 = inline completion disabled); Retunes counts
	// threshold recomputations.
	InlineCompleted, InlineThresholdBytes, Retunes int64
	// AgedPops counts dispatches that served a lower class out of
	// strict-priority order via the aging credit.
	AgedPops int64
	// Classes breaks submissions down by priority class.
	Classes [qos.NumClasses]ClassStats
	// Tenants breaks submissions down by tenant namespace, default
	// tenant (id 0) first, then OpenTenant order.
	Tenants []TenantStats
	// CompletionHighWater is the completion ring's deepest depth,
	// observed at each post.
	CompletionHighWater int64
	// Live depths sampled at Stats time: the staging queue, the backlog,
	// the completion ring and the chunk ring. SubmissionDepth is the
	// backlog — requests the worker took off staging but has not yet
	// dispatched, in the scheduler's buckets — the sum of the tenants'
	// QueueDepth.
	StagingDepth, SubmissionDepth, CompletionDepth, RingDepth int64
	// Latency is the submission-to-completion histogram (ns), the sum of
	// the classes' (each request is observed once, in its class); Sizes
	// the request payload histogram (bytes).
	Latency, Sizes obs.HistogramSnapshot
	// Lifecycle is the sampled-lifecycle snapshot: per-stage latency
	// histograms (staging wait, dispatch wait, ring wait, copy,
	// completion dwell) and the last captured complete lifecycles.
	// Enabled is false when Options.TraceSampleShift < 0.
	Lifecycle lifecycle.Snapshot
	// Flight is the flight-recorder snapshot: captured outliers and
	// stall reports, adaptive per-lane thresholds, and SLO burn rates.
	// Flight.Enabled is false when Options.Flight.Disable is set.
	Flight lifecycle.FlightSnapshot
}

// ClassStats is one priority class's slice of the device counters.
type ClassStats struct {
	// Submitted counts accepted submissions at this class; Completed
	// the terminal ones; Shed the admission rejections (never accepted,
	// except batch members, which also complete with ErrOverload).
	Submitted, Completed, Shed int64
	// InFlight is the live accepted-but-not-terminal count.
	InFlight int64
	// Latency is the submission-to-completion histogram (ns) of this
	// class alone.
	Latency obs.HistogramSnapshot
}

// Stats returns a snapshot of the device's counters, histograms, queue
// watermarks and sampled lifecycles. Safe from any goroutine at any time.
func (d *Device) Stats() StatsSnapshot {
	var classes [qos.NumClasses]ClassStats
	var latency obs.HistogramSnapshot // every request is observed once, in its class
	for c := range classes {
		classes[c] = ClassStats{
			Submitted: d.m.classSubmitted[c].Load(),
			Completed: d.m.classCompleted[c].Load(),
			Shed:      d.m.classShed[c].Load(),
			InFlight:  d.m.classOccupancy(c),
			Latency:   d.m.classLatency[c].Snapshot(),
		}
		l := &classes[c].Latency
		latency.Count += l.Count
		latency.Sum += l.Sum
		for i, n := range l.Buckets {
			latency.Buckets[i] += n
		}
	}
	tab := *d.tenants.Load()
	tenants := make([]TenantStats, len(tab))
	var backlog int64 // summed from the same reads, so the snapshot adds up
	for i, ts := range tab {
		tenants[i] = d.tenantStats(ts)
		backlog += tenants[i].QueueDepth
	}
	var chunks, bytesMoved int64
	for i := range d.ctr {
		chunks += d.ctr[i].chunks.Load()
		bytesMoved += d.ctr[i].bytesMoved.Load()
	}
	return StatsSnapshot{
		StagingDepth:         int64(d.staging.Size()),
		SubmissionDepth:      backlog,
		CompletionDepth:      d.completions.size(),
		RingDepth:            d.chunks.size(),
		Lifecycle:            d.rec.Snapshot(),
		Flight:               d.rec.FlightSnapshot(),
		Submitted:            d.m.submitted.Load(),
		Completed:            d.m.completed.Load(),
		Canceled:             d.m.canceled.Load(),
		Expired:              d.m.expired.Load(),
		Failed:               d.m.failed.Load(),
		Kicks:                d.m.kicks.Load(),
		WorkerWakes:          d.m.wakes.Load(),
		PollerSpins:          d.m.pollerSpins.Load(),
		PollerParks:          d.m.pollerParks.Load(),
		Batches:              d.m.batches.Load(),
		Chunks:               chunks,
		BytesMoved:           bytesMoved,
		DispatchRetries:      d.m.dispatchRetries.Load(),
		DoubleCompletes:      d.m.doubleCompletes.Load(),
		Shed:                 d.m.shed.Load(),
		Overloaded:           d.m.overloaded.Load(),
		InlineCompleted:      d.m.inlineCompleted.Load(),
		InlineThresholdBytes: d.inline.Load(),
		Retunes:              d.m.retunes.Load(),
		AgedPops:             d.m.agedPops.Load(),
		Classes:              classes,
		Tenants:              tenants,
		CompletionHighWater:  d.m.completionHW.Load(),
		Latency:              latency,
		Sizes:                d.m.sizes.Snapshot(),
	}
}

// AuditSlots verifies, on a quiescent device (no Submit/Retrieve in
// flight, pipeline drained), that every request slot is in exactly one
// of {free list, staging, completion, caller-held}.
// held lists slot indices of requests the caller has allocated or
// retrieved and not yet freed. This is the realtime side of the "no
// index may ever vanish" invariant; the chaos suite runs it after every
// storm.
func (d *Device) AuditSlots(held []uint32) error {
	owner := make([]string, len(d.reqs))
	for _, place := range []struct {
		name string
		idxs []uint32
	}{
		{"free", d.freeList.snapshot()},
		{"staging", d.staging.Snapshot()},
		{"completion", d.completions.snapshot()},
		{"user-held", held},
	} {
		for _, idx := range place.idxs {
			switch {
			case int(idx) >= len(d.reqs):
				return fmt.Errorf("realtime: audit: index %d out of range (seen in %s)", idx, place.name)
			case owner[idx] != "":
				return fmt.Errorf("realtime: audit: index %d in two places: %s and %s", idx, owner[idx], place.name)
			}
			owner[idx] = place.name
		}
	}
	for i, who := range owner {
		if who == "" {
			return fmt.Errorf("realtime: audit: index %d vanished: in no queue and not user-held", i)
		}
	}
	return nil
}

// Kicks reports how many kick-start syscall-equivalents were issued.
func (d *Device) Kicks() int64 { return d.m.kicks.Load() }

// Completed reports how many requests have completed.
func (d *Device) Completed() int64 { return d.m.completed.Load() }
