package realtime

// Tenant namespaces: one physical device shared by many logical
// tenants, each carrying its own slot quota, DRR weight, counters,
// latency histogram and lifecycle span attribution.
//
// A tenant is a namespace over the device, not a copy of it: requests
// still come from the shared slots and flow through the shared staging
// queue and completion ring. The tenant id rides on the request
// (stamped at Submit) and three mechanisms keyed off it provide the
// isolation guarantees:
//
//   - admission: a tenanted request is admitted against its *own*
//     occupancy (in-flight vs quota x class share), never the global
//     one — so one tenant's overload sheds only that tenant's requests;
//   - scheduling: the worker serves tenants inside each class by
//     weighted deficit round robin (tsched.go), so a backlogged tenant
//     gets throughput proportional to its weight, not its submit rate;
//   - cancellation: the tenant id is packed into the request's atomic
//     state word alongside the lifecycle state, so CancelAll's
//     compare-and-swap claims exactly the canceling tenant's pending
//     requests — a mass cancel can never touch a slot that was freed
//     and re-allocated by another tenant in the window.
//
// Tenant id 0 is the device's built-in default namespace: requests
// submitted through the plain Device API belong to it, it has weight 1
// and no quota (global PR 5 admission applies), so pre-tenant callers
// observe exactly the old behavior.

import (
	"errors"
	"fmt"
	"sync/atomic"

	"memif/internal/obs"
	"memif/internal/obs/lifecycle"
	"memif/internal/qos"
)

// Tenant-config validation errors.
var (
	// ErrBadTenant rejects an OpenTenant call whose config fails
	// validation (empty or oversized name, bad label characters, weight
	// or quota out of range, duplicate name).
	ErrBadTenant = errors.New("realtime: invalid tenant config")
	// ErrTenantExists rejects a duplicate tenant name.
	ErrTenantExists = errors.New("realtime: tenant name already open")
)

// Tenant-config bounds. MaxTenantWeight keeps one round of DRR bounded;
// maxTenantNameLen keeps the /metrics label sane. The tenant-id space
// itself is bounded by the state-word packing (29 usable bits), far
// beyond any realistic tenant count.
const (
	MaxTenantWeight   = 1 << 16
	maxTenantNameLen  = 64
	maxTenantID       = 1<<(32-stateBits) - 1
	defaultTenantName = "default"
)

// TenantConfig describes one tenant namespace.
type TenantConfig struct {
	// Name identifies the tenant in Stats and /metrics labels. Required;
	// at most 64 bytes of printable ASCII (no '"' or '\\'), unique per
	// device.
	Name string
	// Weight is the tenant's DRR quantum: the number of requests it is
	// served per scheduling round, relative to other backlogged tenants
	// in the same class. 0 means 1; range [1, MaxTenantWeight].
	Weight int
	// SlotQuota caps the tenant's in-flight requests (its private
	// occupancy limit; class shares scale it exactly like the global
	// admission thresholds). Required; range [1, NumReqs of the device].
	SlotQuota int
}

// Validate checks the config's device-independent invariants: name
// shape, weight range and quota positivity. OpenTenant additionally
// bounds SlotQuota by the device's NumReqs and enforces name
// uniqueness. Always returns either nil or an error matching
// errors.Is(err, ErrBadTenant).
func (c TenantConfig) Validate() error {
	if c.Name == "" {
		return fmt.Errorf("%w: empty name", ErrBadTenant)
	}
	if len(c.Name) > maxTenantNameLen {
		return fmt.Errorf("%w: name %d bytes, max %d", ErrBadTenant, len(c.Name), maxTenantNameLen)
	}
	for i := 0; i < len(c.Name); i++ {
		b := c.Name[i]
		if b < 0x20 || b > 0x7e || b == '"' || b == '\\' {
			return fmt.Errorf("%w: name byte %d (0x%02x) not printable label ASCII", ErrBadTenant, i, b)
		}
	}
	if c.Weight < 0 || c.Weight > MaxTenantWeight {
		return fmt.Errorf("%w: weight %d outside [0, %d]", ErrBadTenant, c.Weight, MaxTenantWeight)
	}
	if c.SlotQuota <= 0 {
		return fmt.Errorf("%w: slot quota %d, want >= 1", ErrBadTenant, c.SlotQuota)
	}
	return nil
}

// tenantState is the device-side record of one tenant: identity,
// scheduling parameters, admission limits and per-tenant instruments.
type tenantState struct {
	id         uint32
	name       string
	weight     int64
	quota      int64 // 0 on the default tenant: global admission applies
	classLimit [qos.NumClasses]int64

	// queued is RMW'd by the worker alone (drain and dispatch) and read
	// by Stats and the monitor; padding keeps it on its own cache line.
	// The submitters' counters and the finishers' are a pad apart as
	// well, so each side RMWs a line the other does not
	// (TestCacheLineLayout pins it).
	_      [64]byte
	queued atomic.Int64 // drained off staging, not yet dispatched: the tenant's share of the backlog
	_      [64]byte

	submitted, shed obs.Counter // submitters: accept and admit
	_               [64]byte

	completed, canceled obs.Counter // finishers: finish
	latency             obs.Histogram
}

// Tenant is a handle on one tenant namespace of a Device. Handles are
// cheap, immutable and safe for concurrent use; there is no close — a
// tenant lives as long as its device.
type Tenant struct {
	d  *Device
	id uint32
}

// OpenTenant registers a tenant namespace on the device and returns its
// handle. The config is validated (errors match ErrBadTenant; a
// duplicate name additionally matches ErrTenantExists); SlotQuota is
// clamped to the device's NumReqs. Tenants may be opened at any time,
// including while the device is under load.
func (d *Device) OpenTenant(cfg TenantConfig) (*Tenant, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	weight := int64(cfg.Weight)
	if weight == 0 {
		weight = 1
	}
	quota := int64(cfg.SlotQuota)
	if quota > int64(len(d.reqs)) {
		quota = int64(len(d.reqs))
	}
	ts := &tenantState{name: cfg.Name, weight: weight, quota: quota,
		classLimit: classLimits(quota)}
	d.tenantMu.Lock()
	defer d.tenantMu.Unlock()
	old := *d.tenants.Load()
	for _, t := range old {
		if t.name == cfg.Name {
			return nil, fmt.Errorf("%w: %w: %q", ErrBadTenant, ErrTenantExists, cfg.Name)
		}
	}
	if len(old) > maxTenantID {
		return nil, fmt.Errorf("%w: tenant id space exhausted", ErrBadTenant)
	}
	ts.id = uint32(len(old))
	// Copy-on-write: readers (admission, finish, Stats, the worker's
	// weight lookup) load the table pointer once and never see a slice
	// mid-append.
	tab := make([]*tenantState, len(old)+1)
	copy(tab, old)
	tab[len(old)] = ts
	d.tenants.Store(&tab)
	// Grow the recorder's tenant table in lockstep so the new tenant's
	// completions train their own EWMA/SLO lanes and stage spans from
	// request one instead of folding into tenant 0.
	d.rec.EnsureTenants(len(tab))
	return &Tenant{d: d, id: ts.id}, nil
}

// newDefaultTenant builds tenant id 0: the namespace of every request
// submitted through the plain Device API. Quota 0 selects the global
// PR 5 admission path, weight 1 makes untenanted work one DRR
// participant among equals.
func newDefaultTenant() *tenantState {
	return &tenantState{id: 0, name: defaultTenantName, weight: 1}
}

// tenant returns the state for id, falling back to the default tenant
// for an out-of-range id (impossible through the public API; the
// fallback keeps the accounting total even if a stale id ever appears).
func (d *Device) tenant(id uint32) *tenantState {
	tab := *d.tenants.Load()
	if int(id) < len(tab) {
		return tab[id]
	}
	return tab[0]
}

// occupancy is the tenant's accepted-but-not-terminal count, the number
// tenant admission binds: submitted − completed, read the way
// metrics.classOccupancy reads its pair.
func (ts *tenantState) occupancy() int64 {
	done := ts.completed.Load()
	return ts.submitted.Load() - done
}

// tenantOf resolves the tenant owning r.
func (d *Device) tenantOf(r *Request) *tenantState { return d.tenant(r.tenant.Load()) }

// tenantWeight is the scheduler's weight lookup (worker goroutine).
func (d *Device) tenantWeight(id uint32) int64 { return d.tenant(id).weight }

// owner is the scheduler's bucket lookup (worker goroutine): the class
// and tenant of the request in slot idx, both set before it was staged.
func (d *Device) owner(idx uint32) (int, uint32) {
	r := d.reqs[idx]
	return int(r.Class), r.tenant.Load()
}

// Name returns the tenant's configured name.
func (t *Tenant) Name() string { return t.d.tenant(t.id).name }

// ID returns the tenant's dense device-local id (0 is the device's
// default namespace; handles from OpenTenant start at 1).
func (t *Tenant) ID() int { return int(t.id) }

// Device returns the underlying device.
func (t *Tenant) Device() *Device { return t.d }

// Submit queues r under this tenant: admission is checked against the
// tenant's own quota, dispatch is weighted by its DRR share, and the
// completion is attributed to its counters and histograms. Same
// contract as Device.Submit otherwise.
func (t *Tenant) Submit(r *Request) error {
	r.tenant.Store(t.id)
	return t.d.submit(r)
}

// SubmitBatch queues the batch under this tenant; same contract as
// Device.SubmitBatch (exactly one completion per request, sheds surface
// as ErrOverload completions).
func (t *Tenant) SubmitBatch(reqs []*Request) error {
	for _, r := range reqs {
		r.tenant.Store(t.id)
	}
	return t.d.submitBatch(reqs)
}

// CancelAll cancels every pending request of this tenant and returns
// how many cancels won. Each claimed request completes with ErrCanceled
// through the normal path. The claim is a single compare-and-swap on
// the packed (tenant, state) word, so a storm of CancelAll calls can
// never cancel — or even observe — another tenant's requests: a slot
// freed and re-allocated by tenant B mid-scan carries B's id in the
// word and the CAS simply fails.
func (t *Tenant) CancelAll() int {
	d := t.d
	pending := packState(t.id, stPending)
	canceled := packState(t.id, stCanceled)
	n := 0
	for _, r := range d.reqs {
		if r.state.Load() == pending && r.state.CompareAndSwap(pending, canceled) {
			n++
		}
	}
	return n
}

// Stats returns this tenant's slice of the device counters.
func (t *Tenant) Stats() TenantStats { return t.d.tenantStats(t.d.tenant(t.id)) }

// TenantStats is one tenant's slice of the device counters, exported
// through StatsSnapshot.Tenants and the memif_realtime_tenant_* series.
type TenantStats struct {
	// ID is the dense device-local tenant id (0 = the default
	// namespace); Name the configured name.
	ID   int
	Name string
	// Weight is the DRR quantum; SlotQuota the in-flight cap (0 on the
	// default tenant, whose admission is the global controller).
	Weight, SlotQuota int64
	// Submitted counts accepted submissions; Completed terminal ones;
	// Shed admission rejections charged to this tenant; Canceled the
	// ErrCanceled completions (CancelAll and per-request Cancel alike).
	Submitted, Completed, Shed, Canceled int64
	// InFlight is the live accepted-but-not-terminal count; QueueDepth
	// the count the worker took off staging but has not yet dispatched
	// (its scheduler buckets). The tenants' QueueDepths sum to the device's
	// SubmissionDepth.
	InFlight, QueueDepth int64
	// Latency is the submission-to-completion histogram (ns) of this
	// tenant alone.
	Latency obs.HistogramSnapshot
	// Spans carries the tenant's lifecycle stage-latency attribution
	// (sampled requests only, like the device-wide spans).
	Spans lifecycle.SpanSnapshot
}

func (d *Device) tenantStats(ts *tenantState) TenantStats {
	return TenantStats{
		ID:         int(ts.id),
		Name:       ts.name,
		Weight:     ts.weight,
		SlotQuota:  ts.quota,
		Submitted:  ts.submitted.Load(),
		Completed:  ts.completed.Load(),
		Shed:       ts.shed.Load(),
		Canceled:   ts.canceled.Load(),
		InFlight:   ts.occupancy(),
		QueueDepth: ts.queued.Load(),
		Latency:    ts.latency.Snapshot(),
		Spans:      d.rec.TenantSpans(int(ts.id)),
	}
}
