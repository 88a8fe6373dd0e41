package realtime

import (
	"bytes"
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"

	"memif/internal/rbq"
)

func TestTenantConfigValidate(t *testing.T) {
	bad := []TenantConfig{
		{Name: "", SlotQuota: 4},
		{Name: strings.Repeat("x", maxTenantNameLen+1), SlotQuota: 4},
		{Name: "has\"quote", SlotQuota: 4},
		{Name: "has\\slash", SlotQuota: 4},
		{Name: "ctrl\x01char", SlotQuota: 4},
		{Name: "nonascii\xff", SlotQuota: 4},
		{Name: "w", Weight: -1, SlotQuota: 4},
		{Name: "w", Weight: MaxTenantWeight + 1, SlotQuota: 4},
		{Name: "q", SlotQuota: 0},
		{Name: "q", SlotQuota: -3},
	}
	for i, cfg := range bad {
		if err := cfg.Validate(); !errors.Is(err, ErrBadTenant) {
			t.Errorf("config %d (%+v): err = %v, want ErrBadTenant", i, cfg, err)
		}
	}
	good := []TenantConfig{
		{Name: "a", SlotQuota: 1},
		{Name: strings.Repeat("y", maxTenantNameLen), Weight: MaxTenantWeight, SlotQuota: 1 << 20},
		{Name: "spaces and. punct_ok-2", Weight: 7, SlotQuota: 3},
	}
	for i, cfg := range good {
		if err := cfg.Validate(); err != nil {
			t.Errorf("config %d (%+v): unexpected error %v", i, cfg, err)
		}
	}
}

func TestOpenTenantDuplicateAndClamp(t *testing.T) {
	d := Open(Options{NumReqs: 16})
	defer d.Close()

	a, err := d.OpenTenant(TenantConfig{Name: "a", Weight: 3, SlotQuota: 1 << 30})
	if err != nil {
		t.Fatal(err)
	}
	if a.ID() != 1 || a.Name() != "a" || a.Device() != d {
		t.Errorf("handle = id %d name %q, want 1 %q", a.ID(), a.Name(), "a")
	}
	st := a.Stats()
	if st.SlotQuota != 16 {
		t.Errorf("SlotQuota = %d, want clamped to NumReqs 16", st.SlotQuota)
	}
	if st.Weight != 3 {
		t.Errorf("Weight = %d, want 3", st.Weight)
	}
	if _, err := d.OpenTenant(TenantConfig{Name: "a", SlotQuota: 4}); !errors.Is(err, ErrTenantExists) || !errors.Is(err, ErrBadTenant) {
		t.Errorf("duplicate name: err = %v, want ErrTenantExists (and ErrBadTenant)", err)
	}
	if _, err := d.OpenTenant(TenantConfig{Name: defaultTenantName, SlotQuota: 4}); !errors.Is(err, ErrTenantExists) {
		t.Errorf("shadowing the default namespace: err = %v, want ErrTenantExists", err)
	}
	b, err := d.OpenTenant(TenantConfig{Name: "b", SlotQuota: 4})
	if err != nil {
		t.Fatal(err)
	}
	if b.ID() != 2 {
		t.Errorf("second tenant id = %d, want 2", b.ID())
	}
	stats := d.Stats()
	if len(stats.Tenants) != 3 {
		t.Fatalf("Stats().Tenants has %d entries, want 3 (default + 2)", len(stats.Tenants))
	}
	if stats.Tenants[0].Name != defaultTenantName || stats.Tenants[1].Name != "a" || stats.Tenants[2].Name != "b" {
		t.Errorf("tenant names = %q %q %q", stats.Tenants[0].Name, stats.Tenants[1].Name, stats.Tenants[2].Name)
	}
}

// TestTenantQuotaAdmissionIsolated freezes the pipeline and fills tenant
// A to its quota: A's next submit is shed with the tenant named in the
// typed error, while tenant B and the untenanted default path admit
// normally — one tenant's overload sheds only its own requests.
func TestTenantQuotaAdmissionIsolated(t *testing.T) {
	stall := make(chan struct{})
	var once sync.Once
	d := Open(Options{
		NumReqs:     32,
		Controllers: 1,
		Chaos: &ChaosHooks{
			BeforeChunkCopy: func(idx uint32, off, end int) { <-stall },
		},
	})
	d.inline.Store(0) // keep copies off the worker
	defer d.Close()
	defer once.Do(func() { close(stall) })

	a, err := d.OpenTenant(TenantConfig{Name: "A", SlotQuota: 4})
	if err != nil {
		t.Fatal(err)
	}
	b, err := d.OpenTenant(TenantConfig{Name: "B", SlotQuota: 8})
	if err != nil {
		t.Fatal(err)
	}

	submit := func(ten *Tenant) error {
		r := d.AllocRequest()
		if r == nil {
			t.Fatal("alloc failed")
		}
		r.Src, r.Dst = []byte{1, 2, 3, 4}, make([]byte, 4)
		if ten != nil {
			return ten.Submit(r)
		}
		return d.Submit(r)
	}

	const quota = 4
	for i := 0; i < quota; i++ {
		if err := submit(a); err != nil {
			t.Fatalf("A submit %d within quota: %v", i, err)
		}
	}
	err = submit(a)
	if !errors.Is(err, ErrOverload) {
		t.Fatalf("A submit past quota: err = %v, want ErrOverload", err)
	}
	var oe *OverloadError
	if !errors.As(err, &oe) || oe.Tenant != "A" {
		t.Errorf("shed error %v does not name tenant A", err)
	}
	// A is saturated; B and the default namespace must be unaffected.
	for i := 0; i < 4; i++ {
		if err := submit(b); err != nil {
			t.Errorf("B submit %d while A overloaded: %v", i, err)
		}
		if err := submit(nil); err != nil {
			t.Errorf("default submit %d while A overloaded: %v", i, err)
		}
	}
	if st := a.Stats(); st.Shed != 1 || st.InFlight != quota {
		t.Errorf("A stats: shed=%d inFlight=%d, want 1 and %d", st.Shed, st.InFlight, quota)
	}
	if st := b.Stats(); st.Shed != 0 {
		t.Errorf("B shed = %d, want 0", st.Shed)
	}

	once.Do(func() { close(stall) })
	got := drainAll(t, d, quota+8)
	for _, r := range got {
		if r.Err != nil {
			t.Errorf("request %d: %v, want clean completion", r.idx, r.Err)
		}
		d.FreeRequest(r)
	}
	if st := a.Stats(); st.Completed != quota || st.InFlight != 0 || st.Latency.Count != quota {
		t.Errorf("A after drain: completed=%d inFlight=%d latencyCount=%d", st.Completed, st.InFlight, st.Latency.Count)
	}
	if st := b.Stats(); st.Completed != 4 || st.InFlight != 0 {
		t.Errorf("B after drain: completed=%d inFlight=%d", st.Completed, st.InFlight)
	}
}

// TestTenantSchedWeightedOrder drives the DRR scheduler directly: with
// two backlogged tenants at weights 3 and 1 the pop sequence must grant
// three consecutive slots to the heavy tenant per round, and total
// service must match the 3:1 ratio.
func TestTenantSchedWeightedOrder(t *testing.T) {
	slab := rbq.NewSlab(64)
	q := slab.NewQueue(rbq.Blue)
	owner := map[uint32]uint32{}
	weights := map[uint32]int64{1: 3, 2: 1}
	s := newTenantSched(q, slab.NewQueue(rbq.Red), 1,
		func(idx uint32) (int, uint32) { return 0, owner[idx] },
		func(ten uint32) int64 { return weights[ten] },
		16)

	// Interleave enqueues: 12 for tenant 1, 12 for tenant 2.
	idx := uint32(0)
	for i := 0; i < 12; i++ {
		for ten := uint32(1); ten <= 2; ten++ {
			owner[idx] = ten
			if _, ok := q.Enqueue(idx); !ok {
				t.Fatal("enqueue failed")
			}
			idx++
		}
	}
	var order []uint32
	for {
		_, ten, aged, ok := s.next()
		if !ok {
			break
		}
		if aged {
			t.Error("aged pop with a single class")
		}
		order = append(order, ten)
	}
	if len(order) != 24 {
		t.Fatalf("popped %d requests, want 24", len(order))
	}
	// While both tenants are backlogged (first 16 pops), service comes in
	// 3:1 quanta.
	want := []uint32{1, 1, 1, 2, 1, 1, 1, 2, 1, 1, 1, 2, 1, 1, 1, 2}
	for i, ten := range want {
		if order[i] != ten {
			t.Fatalf("pop %d served tenant %d, want %d (order %v)", i, order[i], ten, order)
		}
	}
	if s.queuedTotal() != 0 {
		t.Errorf("queuedTotal = %d after drain, want 0", s.queuedTotal())
	}
}

// TestTenantSchedNoBanking checks that an idle tenant does not
// accumulate deficit: after its bucket empties and it re-activates, it
// is served from a fresh quantum at the tail of the round.
func TestTenantSchedNoBanking(t *testing.T) {
	slab := rbq.NewSlab(64)
	q := slab.NewQueue(rbq.Blue)
	owner := map[uint32]uint32{}
	s := newTenantSched(q, slab.NewQueue(rbq.Red), 1,
		func(idx uint32) (int, uint32) { return 0, owner[idx] },
		func(ten uint32) int64 { return 8 }, // big quantum for everyone
		16)
	enq := func(ten uint32, n int, base uint32) {
		for i := 0; i < n; i++ {
			owner[base+uint32(i)] = ten
			if _, ok := q.Enqueue(base + uint32(i)); !ok {
				t.Fatal("enqueue failed")
			}
		}
	}
	// Tenant 1 has one request: it is served, empties, deficit resets.
	enq(1, 1, 0)
	if _, ten, _, ok := s.next(); !ok || ten != 1 {
		t.Fatalf("first pop = tenant %d ok=%v", ten, ok)
	}
	// Now 1 re-activates behind 2; with weight 8 each and both
	// backlogged, 2 (activated first) is served its full quantum before 1
	// sees service — 1's earlier idle round banked nothing.
	enq(2, 8, 100)
	enq(1, 8, 200)
	var order []uint32
	for i := 0; i < 16; i++ {
		_, ten, _, ok := s.next()
		if !ok {
			t.Fatalf("pop %d failed", i)
		}
		order = append(order, ten)
	}
	for i := 0; i < 8; i++ {
		if order[i] != 2 {
			t.Fatalf("pop %d served tenant %d, want 2 (order %v)", i, order[i], order)
		}
	}
	for i := 8; i < 16; i++ {
		if order[i] != 1 {
			t.Fatalf("pop %d served tenant %d, want 1 (order %v)", i, order[i], order)
		}
	}
}

// TestTenantCancelAllIsolation freezes the controllers with both
// tenants' requests mid-pipeline, mass-cancels tenant A, and asserts
// the storm claimed every pending A request and nothing of B's.
func TestTenantCancelAllIsolation(t *testing.T) {
	stall := make(chan struct{})
	var once sync.Once
	d := Open(Options{
		NumReqs:     32,
		Controllers: 2,
		ChunkBytes:  1 << 10,
		Chaos: &ChaosHooks{
			BeforeChunkCopy: func(idx uint32, off, end int) { <-stall },
		},
	})
	d.inline.Store(0)
	defer d.Close()
	defer once.Do(func() { close(stall) })

	a, err := d.OpenTenant(TenantConfig{Name: "A", SlotQuota: 16})
	if err != nil {
		t.Fatal(err)
	}
	b, err := d.OpenTenant(TenantConfig{Name: "B", SlotQuota: 16})
	if err != nil {
		t.Fatal(err)
	}
	const n = 6
	var aReqs, bReqs []*Request
	for i := 0; i < n; i++ {
		ra := d.AllocRequest()
		ra.Src, ra.Dst = bytes.Repeat([]byte{byte(i + 1)}, 4<<10), make([]byte, 4<<10)
		if err := a.Submit(ra); err != nil {
			t.Fatalf("A submit %d: %v", i, err)
		}
		aReqs = append(aReqs, ra)
		rb := d.AllocRequest()
		rb.Src, rb.Dst = bytes.Repeat([]byte{byte(i + 0x80)}, 4<<10), make([]byte, 4<<10)
		if err := b.Submit(rb); err != nil {
			t.Fatalf("B submit %d: %v", i, err)
		}
		bReqs = append(bReqs, rb)
	}

	won := a.CancelAll()
	if won == 0 {
		t.Error("CancelAll claimed nothing with pending requests frozen in the pipeline")
	}
	once.Do(func() { close(stall) })

	got := drainAll(t, d, 2*n)
	var aCanceled int
	for _, r := range got {
		d.FreeRequest(r)
	}
	for i, r := range aReqs {
		switch {
		case errors.Is(r.Err, ErrCanceled):
			aCanceled++
		case r.Err == nil:
			if !bytes.Equal(r.Src, r.Dst) {
				t.Errorf("A request %d: clean completion with corrupt payload", i)
			}
		default:
			t.Errorf("A request %d: unexpected error %v", i, r.Err)
		}
	}
	if aCanceled != won {
		t.Errorf("A: %d ErrCanceled completions, CancelAll reported %d wins", aCanceled, won)
	}
	for i, r := range bReqs {
		if r.Err != nil {
			t.Errorf("B request %d: %v — A's CancelAll touched tenant B", i, r.Err)
		} else if !bytes.Equal(r.Src, r.Dst) {
			t.Errorf("B request %d: corrupt payload", i)
		}
	}
	if st := a.Stats(); st.Canceled != int64(won) {
		t.Errorf("A Canceled = %d, want %d", st.Canceled, won)
	}
	if st := b.Stats(); st.Canceled != 0 {
		t.Errorf("B Canceled = %d, want 0", st.Canceled)
	}
	if err := d.AuditSlots(nil); err != nil {
		t.Error(err)
	}
}

// TestTenantCancelAllMissesReallocatedSlot pins the TOCTOU the packed
// state word closes: a slot freed by tenant A and re-submitted by tenant
// B mid-storm carries B's id in the word, so A's CancelAll CAS must
// fail against it even though the slot index once belonged to A.
func TestTenantCancelAllMissesReallocatedSlot(t *testing.T) {
	d := Open(Options{NumReqs: 4})
	defer d.Close()
	a, _ := d.OpenTenant(TenantConfig{Name: "A", SlotQuota: 4})
	b, _ := d.OpenTenant(TenantConfig{Name: "B", SlotQuota: 4})

	// Run an A request to completion so its slot returns to the free
	// list, then hand the same slot to B.
	r := d.AllocRequest()
	r.Src, r.Dst = []byte{1}, make([]byte, 1)
	if err := a.Submit(r); err != nil {
		t.Fatal(err)
	}
	rr := drainAll(t, d, 1)[0]
	d.FreeRequest(rr)

	r2 := d.AllocRequest()
	r2.Src, r2.Dst = []byte{2}, make([]byte, 1)
	r2.tenant.Store(b.id)
	r2.state.Store(packState(b.id, stPending)) // B pending, not yet queued
	if n := a.CancelAll(); n != 0 {
		t.Fatalf("A's CancelAll claimed %d of tenant B's requests", n)
	}
	if b.CancelAll() != 1 {
		t.Fatal("B's CancelAll failed to claim its own pending request")
	}
	// Restore the slot so Close doesn't trip the audit.
	r2.state.Store(stIdle)
	d.FreeRequest(r2)
}

// TestTenantQueueDepthAccounting verifies the live queued gauge: depth
// rises while the worker is parked pre-dispatch and returns to zero
// after the drain.
func TestTenantQueueDepthAccounting(t *testing.T) {
	entered := make(chan uint32, 1)
	release := make(chan struct{})
	d := Open(Options{
		NumReqs: 8,
		Chaos: &ChaosHooks{
			BeforeDispatch: func(idx uint32) {
				entered <- idx
				<-release
			},
		},
	})
	defer d.Close()
	ten, err := d.OpenTenant(TenantConfig{Name: "T", SlotQuota: 8})
	if err != nil {
		t.Fatal(err)
	}
	const n = 4
	// One batch, so all n are on the submission queue before the flush's
	// kick wakes the worker: the depth below never depends on the submit
	// loop outrunning the first dispatch.
	reqs := make([]*Request, n)
	for i := range reqs {
		reqs[i] = d.AllocRequest()
		reqs[i].Src, reqs[i].Dst = []byte{1, 2}, make([]byte, 2)
	}
	if err := ten.SubmitBatch(reqs); err != nil {
		t.Fatal(err)
	}
	<-entered // worker parked with one request in dispatch, rest queued
	// The parked request has been popped (depth n-1); allow either n-1 or
	// n depending on whether the pop's decrement landed.
	if depth := ten.Stats().QueueDepth; depth < int64(n-1) || depth > int64(n) {
		t.Errorf("QueueDepth = %d while parked, want %d or %d", depth, n-1, n)
	}
	close(release)
	for i := 0; i < n-1; i++ {
		<-entered
	}
	got := drainAll(t, d, n)
	for _, r := range got {
		d.FreeRequest(r)
	}
	st := ten.Stats()
	if st.QueueDepth != 0 || st.InFlight != 0 {
		t.Errorf("after drain: QueueDepth=%d InFlight=%d, want 0/0", st.QueueDepth, st.InFlight)
	}
	if st.Submitted != n || st.Completed != n {
		t.Errorf("Submitted=%d Completed=%d, want %d/%d", st.Submitted, st.Completed, n, n)
	}
}

// TestTenantBatchSubmit runs SubmitBatch through a tenant handle: every
// request is stamped with the tenant id and completes under its
// accounting.
func TestTenantBatchSubmit(t *testing.T) {
	d := Open(Options{NumReqs: 16})
	defer d.Close()
	ten, err := d.OpenTenant(TenantConfig{Name: "batch", Weight: 2, SlotQuota: 16})
	if err != nil {
		t.Fatal(err)
	}
	const n = 8
	batch := make([]*Request, n)
	for i := range batch {
		r := d.AllocRequest()
		r.Src, r.Dst = bytes.Repeat([]byte{byte(i + 1)}, 256), make([]byte, 256)
		batch[i] = r
	}
	if err := ten.SubmitBatch(batch); err != nil {
		t.Fatal(err)
	}
	for _, r := range drainAll(t, d, n) {
		if r.Err != nil || !bytes.Equal(r.Src, r.Dst) {
			t.Errorf("request %d: err=%v", r.idx, r.Err)
		}
		d.FreeRequest(r)
	}
	st := ten.Stats()
	if st.Submitted != n || st.Completed != n || st.Latency.Count != n {
		t.Errorf("stats: submitted=%d completed=%d latency=%d, want %d each", st.Submitted, st.Completed, st.Latency.Count, n)
	}
	if def := d.Stats().Tenants[0]; def.Submitted != 0 {
		t.Errorf("default namespace charged %d submissions for tenant batch work", def.Submitted)
	}
}

// openStalled opens a device whose worker blocks in BeforeDispatch on
// the first request it pops, so a test can build a standing backlog
// behind it with no race against dispatch. From then on the hook logs
// the owning tenant of every request in the order the scheduler pops
// them: order[0] was popped before the backlog formed, everything after
// it with the whole backlog visible. Call order only after draining
// every completion.
func openStalled(o Options) (d *Device, release func(), order func() []uint32) {
	stall := make(chan struct{})
	var popped []uint32
	o.Chaos = &ChaosHooks{BeforeDispatch: func(idx uint32) {
		popped = append(popped, d.reqs[idx].tenant.Load())
		<-stall
	}}
	d = Open(o) // one staging queue: arrival order is submit order
	var once sync.Once
	return d, func() { once.Do(func() { close(stall) }) }, func() []uint32 { return popped }
}

// submitSmall submits one small copy through ten, reporting the
// admission result.
func submitSmall(t *testing.T, d *Device, ten *Tenant) error {
	t.Helper()
	r := d.AllocRequest()
	if r == nil {
		t.Fatal("request slab exhausted")
	}
	r.Src, r.Dst = []byte{1, 2, 3, 4}, make([]byte, 4)
	err := ten.Submit(r)
	if err != nil {
		d.FreeRequest(r)
	}
	return err
}

// TestTenantWeightedDispatchOrder is the end-to-end DRR check: two
// tenants at weights 4 and 1, both backlogged to their quota behind a
// stalled worker, are served 80:20 over the next hundred dispatches,
// give or take one quantum for the round the stall interrupted.
func TestTenantWeightedDispatchOrder(t *testing.T) {
	t.Run("parkwake", func(t *testing.T) {
		const quota = 96
		d, release, order := openStalled(Options{NumReqs: 256, Controllers: 1})
		defer d.Close()
		defer release()
		heavy, err := d.OpenTenant(TenantConfig{Name: "heavy", Weight: 4, SlotQuota: quota})
		if err != nil {
			t.Fatal(err)
		}
		light, err := d.OpenTenant(TenantConfig{Name: "light", Weight: 1, SlotQuota: quota})
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < quota; i++ {
			for _, ten := range []*Tenant{heavy, light} {
				if err := submitSmall(t, d, ten); err != nil {
					t.Fatalf("%s submit %d within quota: %v", ten.Name(), i, err)
				}
			}
		}
		release()
		for _, r := range drainAll(t, d, 2*quota) {
			d.FreeRequest(r)
		}
		served := 0
		for _, ten := range order()[1:101] {
			if ten == heavy.id {
				served++
			}
		}
		if served < 80-4 || served > 80+4 {
			t.Errorf("heavy tenant got %d of 100 backlogged dispatches, want 80 ± one quantum of 4", served)
		}
	})
}

// TestTenantFleetDispatchOrder is fairness and isolation at fleet scale,
// read from the scheduler's own pop order instead of a throughput
// window: 1,021 equal-weight tenants and a 1/2/4-weight trio each park
// eight rounds of work behind a stalled worker; an aggressor floods past
// its quota and mass-cancels; a victim submits one request last of all.
// While every cohort and trio tenant is still backlogged, the cohort is
// served evenly (Jain's index), the trio in proportion to its weights,
// and the victim waits at most one DRR round — the reason its latency
// holds under the aggressor's storm.
func TestTenantFleetDispatchOrder(t *testing.T) {
	const (
		cohortN   = 1021
		rounds    = 8
		trioSum   = 1 + 2 + 4
		aggrQuota = 16
		aggrFlood = 28
	)
	d, release, order := openStalled(Options{NumReqs: (cohortN+trioSum)*rounds + aggrFlood + 1, Controllers: 1})
	defer d.Close()
	defer release()

	open := func(name string, weight, quota int) *Tenant {
		ten, err := d.OpenTenant(TenantConfig{Name: name, Weight: weight, SlotQuota: quota})
		if err != nil {
			t.Fatal(err)
		}
		return ten
	}
	var fleet []*Tenant // cohort, then trio
	var weights []int   // fleet[i]'s DRR weight
	for i := 0; i < cohortN; i++ {
		fleet, weights = append(fleet, open(fmt.Sprintf("cohort-%04d", i), 1, rounds)), append(weights, 1)
	}
	for _, w := range []int{1, 2, 4} {
		fleet, weights = append(fleet, open(fmt.Sprintf("weighted-%d", w), w, w*rounds)), append(weights, w)
	}
	aggr := open("aggressor", 1, aggrQuota)
	victim := open("victim", 2, 4)

	admitted := make(map[uint32]int) // cohort and trio only
	total := 0
	for r := 0; r < rounds; r++ {
		for i, ten := range fleet {
			for k := 0; k < weights[i]; k++ {
				if err := submitSmall(t, d, ten); err != nil {
					t.Fatalf("%s: %v", ten.Name(), err)
				}
				admitted[ten.id]++
				total++
			}
		}
	}
	for i := 0; i < aggrFlood; i++ {
		if err := submitSmall(t, d, aggr); err == nil {
			total++
		} else if !errors.Is(err, ErrOverload) {
			t.Fatalf("aggressor flood: %v", err)
		}
	}
	if won := aggr.CancelAll(); won == 0 {
		t.Error("aggressor's CancelAll claimed nothing from a frozen backlog")
	}
	if err := submitSmall(t, d, victim); err != nil {
		t.Fatalf("victim shed behind the aggressor's overload: %v", err)
	}
	total++
	release()
	for _, r := range drainAll(t, d, total) {
		d.FreeRequest(r)
	}

	if st := aggr.Stats(); st.Shed != aggrFlood-aggrQuota || st.Canceled == 0 {
		t.Errorf("aggressor shed %d (want %d), canceled %d (want > 0)", st.Shed, aggrFlood-aggrQuota, st.Canceled)
	}
	if st := victim.Stats(); st.Shed != 0 || st.Canceled != 0 || st.Completed != 1 {
		t.Errorf("victim: shed %d canceled %d completed %d, want 0/0/1", st.Shed, st.Canceled, st.Completed)
	}

	// The backlogged window: from the first pop after the stall to the
	// pop that empties the first cohort or trio tenant.
	pops := order()
	admitted[pops[0]]-- // popped before the backlog formed
	served := make(map[uint32]int)
	victimAt := -1
	for i, ten := range pops[1:] {
		served[ten]++
		if ten == victim.id {
			victimAt = i + 1
		}
		if served[ten] == admitted[ten] {
			break
		}
	}
	var sum, sumSq float64
	for _, ten := range fleet[:cohortN] {
		x := float64(served[ten.id])
		sum += x
		sumSq += x * x
	}
	if jain := sum * sum / (cohortN * sumSq); !(jain >= 0.90) {
		t.Errorf("Jain's index over the cohort's service counts = %.4f, want >= 0.90", jain)
	}
	trioTotal := 0
	for _, ten := range fleet[cohortN:] {
		trioTotal += served[ten.id]
	}
	for i, ten := range fleet[cohortN:] {
		w := weights[cohortN+i]
		// |served − total·w/trioSum| ≤ w, in integers.
		if off := trioSum*served[ten.id] - trioTotal*w; off > trioSum*w || off < -trioSum*w {
			t.Errorf("%s served %d of the trio's %d dispatches, more than one quantum from its %d/%d share",
				ten.Name(), served[ten.id], trioTotal, w, trioSum)
		}
	}
	// One round visits every backlogged tenant once for its quantum; the
	// victim, activated last, is reached before that round ends.
	if round := cohortN + trioSum + 1 + 2; victimAt < 0 || victimAt > round {
		t.Errorf("victim dispatched at position %d, want within one DRR round (%d pops)", victimAt, round)
	}
}
