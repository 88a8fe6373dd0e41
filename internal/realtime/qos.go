package realtime

// QoS: priority classes, admission control, and the adaptive
// poll-vs-notify completion heuristic.
//
// The paper's three execution paths (Section 5) already encode a
// policy — poll small transfers, take the interrupt for large ones —
// but leave "what happens under overload" open. This file closes that
// gap for the realtime device:
//
//   - every request carries a qos.Class (Foreground, Background,
//     Scavenger);
//   - an admission controller sheds low-priority work with ErrOverload
//     (plus a retry-after hint) before it can occupy enough of the slab
//     to starve higher classes — occupancy thresholds play the role of
//     kswapd watermarks, per class;
//   - the worker serves its scheduler's buckets, filled from the
//     submission and staging queues, in strict class priority order,
//     with an aging credit so a saturating high class cannot starve
//     lower ones forever;
//   - completion is adaptive: a single-chunk request at or below the
//     inline threshold is copied by the worker itself (the "syscall
//     path polls" case — no ring push, no controller wakeup), while
//     larger transfers park on the ring/notify path. The threshold
//     self-tunes from the sampled requests' span histograms so it
//     lands where the inline copy costs about as much as the dispatch
//     overhead it saves.

import (
	"errors"
	"fmt"
	"time"

	"memif/internal/obs/lifecycle"
	"memif/internal/qos"
)

// Class is a request's priority class, the shared qos vocabulary. The
// alias and the three constants exist for benchmark/, which spells
// realtime.Class* and is frozen outside its own PRs; everything else
// names package qos directly.
type Class = qos.Class

const (
	ClassForeground = qos.Foreground
	ClassBackground = qos.Background
	ClassScavenger  = qos.Scavenger
)

// QoS errors.
var (
	// ErrOverload is the admission controller's rejection: the pipeline
	// is too full to take work at this request's class right now. Match
	// with errors.Is; the concrete error is an *OverloadError carrying a
	// retry-after hint.
	ErrOverload = errors.New("realtime: overloaded: admission shed request")
	// ErrBadClass rejects a request whose Class is not one of the
	// defined classes.
	ErrBadClass = errors.New("realtime: unknown priority class")
)

// OverloadError is the concrete admission rejection: which class was
// shed, which tenant's occupancy bound it (empty when the global
// controller shed an untenanted request), and a hint for how long the
// caller should back off before retrying (an EWMA of recent request
// completion latency — roughly one pipeline drain).
// errors.Is(err, ErrOverload) matches it.
type OverloadError struct {
	Class      qos.Class
	Tenant     string
	RetryAfter time.Duration
}

func (e *OverloadError) Error() string {
	if e.Tenant != "" {
		return fmt.Sprintf("realtime: overloaded: tenant %q %s shed, retry after %v", e.Tenant, e.Class, e.RetryAfter)
	}
	return fmt.Sprintf("realtime: overloaded: %s shed, retry after %v", e.Class, e.RetryAfter)
}

// Unwrap makes errors.Is(e, ErrOverload) true.
func (e *OverloadError) Unwrap() error { return ErrOverload }

// QoS defaults.
const (
	// agingCredit is the number of times a lower class may be passed over
	// by strict-priority dispatch before it is served one request out of
	// order: a saturated higher class yields one pop in 16 — enough to
	// bound starvation while keeping priority inversion under ~6%.
	agingCredit = 16
	// DefaultInlineThreshold is the initial poll-inline cutoff. 32 KB
	// copies in a few microseconds on anything modern — the same order
	// as a ring push plus a controller wakeup — and the retuner moves it
	// from there.
	DefaultInlineThreshold = 32 << 10
	// retuneEvery: retune the inline threshold every 512 dispatches;
	// each retune reads two histogram snapshots, so the amortized cost
	// is noise.
	retuneEvery = 512
	// minRetryAfter floors the overload retry-after hint.
	minRetryAfter = 50 * time.Microsecond
	// minInlineThreshold and (*Device).maxInline bound the retuner so a
	// degenerate histogram can never turn inline completion off (or
	// swallow chunk-sized copies into the worker).
	minInlineThreshold = 1 << 10
)

// DefaultClassShares returns the occupancy thresholds admission sheds
// at: share c caps total pipeline occupancy (in-flight requests as a
// fraction of the slots) above which class c is shed with ErrOverload.
// Foreground may fill the slab (it may still see ErrNoSlots when the
// slab itself runs out), background is shed past 85% occupancy,
// scavenger past 50%.
func DefaultClassShares() [qos.NumClasses]float64 {
	return [qos.NumClasses]float64{1.0, 0.85, 0.5}
}

// classLimits turns the default class shares into admission thresholds
// over n slots — the device's NumReqs, or a tenant's quota: a full share
// may use all n, and no class is ever limited below one slot.
func classLimits(n int64) (limits [qos.NumClasses]int64) {
	for c, share := range DefaultClassShares() {
		limit := int64(share * float64(n))
		if share >= 1 || limit > n {
			limit = n
		}
		limits[c] = max(limit, 1)
	}
	return limits
}

// admit is the admission controller: it accepts or sheds r based on an
// occupancy threshold. A tenanted request is measured against its own
// tenant's quota — never the global occupancy — so one tenant's
// overload sheds only that tenant's requests; the untenanted default
// namespace keeps the global PR 5 thresholds, where foreground (any
// class with share 1) is never shed and the slab's capacity is its only
// limit. Called with the submitter gate held, before the request is
// staged, so a shed request never consumes a queue node.
func (d *Device) admit(r *Request) error {
	c := r.Class
	if !c.Valid() {
		return fmt.Errorf("%w: %d", ErrBadClass, uint8(c))
	}
	ts := d.tenantOf(r)
	tenant := ts.name
	if ts.quota > 0 {
		if ts.occupancy() < ts.classLimit[c] {
			return nil
		}
	} else {
		tenant = "" // shed by the global controller, not by a quota
		limit := d.classLimit[c]
		if limit >= int64(len(d.reqs)) {
			return nil // full-share class: admission can't bind tighter than the slab
		}
		if d.m.submitted.Load()-d.m.completed.Load() < limit {
			return nil
		}
	}
	d.m.shed.Inc()
	d.m.classShed[c].Inc()
	ts.shed.Inc()
	return d.overloadError(c, tenant)
}

// overloadError builds the rejection with a retry-after hint: the
// latency EWMA approximates how long the pipeline takes to drain one
// request, i.e. when a token is likely to free up.
func (d *Device) overloadError(c qos.Class, tenant string) *OverloadError {
	ra := time.Duration(d.latEWMA.Load())
	if ra < minRetryAfter {
		ra = minRetryAfter
	}
	return &OverloadError{Class: c, Tenant: tenant, RetryAfter: ra}
}

// observeLatEWMA folds one completed-request latency into the
// retry-after estimator. Plain load/store RMW: concurrent finishers can
// lose updates, which is fine for a hint.
func (d *Device) observeLatEWMA(latNs int64) {
	old := d.latEWMA.Load()
	d.latEWMA.Store(old + (latNs-old)/8)
}

// popSubmission takes the next request out of the tenant scheduler's
// buckets, which tenantSched.drain fills: strict priority with the aging
// credit across classes, weighted deficit round robin between tenants
// within the chosen class (see tsched.go). Worker-only.
func (d *Device) popSubmission() (uint32, bool) {
	idx, tenant, aged, ok := d.sched.pop()
	if !ok {
		return 0, false
	}
	if aged {
		d.m.agedPops.Inc()
	}
	d.tenant(tenant).queued.Add(-1)
	return idx, true
}

// maybeRetune re-derives the inline threshold from the lifecycle span
// histograms every retuneEvery dispatches. Worker-only.
func (d *Device) maybeRetune() {
	if d.inline.Load() == 0 {
		return
	}
	d.dispatchSeq++
	if d.dispatchSeq%retuneEvery != 0 {
		return
	}
	d.retune()
}

// retune implements the paper's Section 5 heuristic as a feedback loop:
// poll (copy inline) when the transfer takes no longer than the
// overhead of taking the asynchronous path. The dispatch overhead is
// estimated as the mean ring wait of sampled chunks; copy bandwidth as
// mean request bytes over mean copy span. The new threshold — bytes
// copyable within the overhead window — is blended 50/50 with the
// current one so a noisy window cannot slam it around, and clamped to
// [minInlineThreshold, maxInline].
func (d *Device) retune() {
	spans := d.rec.Spans()
	ring := spans.Spans[lifecycle.SpanRingWait]
	cp := spans.Spans[lifecycle.SpanCopy]
	if ring.Count == 0 || cp.Count == 0 {
		return // not enough signal yet (or everything already inline)
	}
	meanBytes := d.m.sizes.Snapshot().Mean()
	meanCopyNs := cp.Mean()
	if meanBytes <= 0 || meanCopyNs <= 0 {
		return
	}
	bytesPerNs := meanBytes / meanCopyNs
	target := int64(bytesPerNs * ring.Mean())
	cur := d.inline.Load()
	next := (cur + target) / 2
	if next < minInlineThreshold {
		next = minInlineThreshold
	}
	if max := d.maxInline(); next > max {
		next = max
	}
	if next != cur {
		d.inline.Store(next)
	}
	d.m.retunes.Inc()
}

// maxInline caps the adaptive threshold: never inline more than one
// chunk's worth of bytes (the chunking threshold is where the engine
// decided parallel controllers pay off), and never more than
// DefaultChunkBytes when chunking is disabled.
func (d *Device) maxInline() int64 {
	if d.chunkBytes > 0 {
		return int64(d.chunkBytes)
	}
	return DefaultChunkBytes
}
