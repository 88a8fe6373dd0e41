package memif_test

// The facade contract test: every exported symbol of package memif is
// exercised through the public import path only. Aliases that drift
// from their internal types, or error variables that stop matching the
// values the device actually returns, fail here — before the API
// snapshot check even runs.

import (
	"context"
	"errors"
	"flag"
	"os"
	"reflect"
	"sort"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"memif"
	// Only for the test-only fault-injection hooks, which the facade
	// deliberately does not export.
	"memif/internal/realtime"
)

// TestFacadeSymbolCoverage references every exported symbol. Most of
// the work is done at compile time — an alias pointing at the wrong
// internal type breaks an assignment below — with light behavioral
// checks where a value is cheap to produce.
func TestFacadeSymbolCoverage(t *testing.T) {
	// Machine group: platforms, nodes, pages, sim types.
	var _ *memif.Platform = memif.KeyStoneII()
	var _ *memif.Platform = memif.XeonE5()
	m := memif.NewMachine(memif.KeyStoneII())
	var _ *memif.Machine = m
	var _ memif.NodeID = memif.NodeSlow
	var _ memif.NodeID = memif.NodeFast
	for _, pg := range []int64{memif.Page4K, memif.Page64K, memif.Page2M} {
		if pg <= 0 {
			t.Fatalf("page preset %d not positive", pg)
		}
	}
	var _ memif.Time
	var opts memif.Options = memif.DefaultOptions()
	opts.RaceMode = memif.RaceRecover
	opts.RaceMode = memif.RacePrevent
	opts.RaceMode = memif.RaceDetect

	// One sim flow touches Open, Device, AddressSpace, Proc, MovReq,
	// the op/status/uapi-error constants, File, the Linux baseline, the
	// swap daemon, streaming, and their metrics types.
	ran := false
	m.Eng.Spawn("api", func(p *memif.Proc) {
		ran = true
		as := m.NewAddressSpace(memif.Page4K)
		var dev *memif.Device = memif.Open(m, as, opts)
		defer dev.Close()

		const n = 64 << 10
		src, err := as.Mmap(p, n, memif.NodeSlow, "src")
		if err != nil {
			t.Fatal(err)
		}
		dst, err := as.Mmap(p, n, memif.NodeFast, "dst")
		if err != nil {
			t.Fatal(err)
		}
		var req *memif.MovReq = dev.AllocRequest(p)
		req.Op = memif.OpReplicate
		req.SrcBase, req.DstBase, req.Length = src, dst, n
		if err := dev.Submit(p, req); err != nil {
			t.Fatal(err)
		}
		dev.Poll(p, 0)
		done := dev.RetrieveCompleted(p)
		if done == nil || done.Status != memif.StatusDone || done.Err != memif.ErrNone {
			t.Fatalf("sim completion: %+v", done)
		}
		_ = memif.OpMigrate
		_ = memif.StatusFailed
		for _, code := range []uint8{uint8(memif.ErrRace), uint8(memif.ErrAborted),
			uint8(memif.ErrNoMemory), uint8(memif.ErrBadRequest), uint8(memif.ErrBusy),
			uint8(memif.ErrTxnDirty)} {
			if code == uint8(memif.ErrNone) {
				t.Fatal("uapi failure code equals ErrNone")
			}
		}
		var cls memif.Class = done.Class // a MovReq's class is the shared vocabulary
		if cls != memif.Foreground || memif.Foreground != 0 || memif.Background == memif.Scavenger {
			t.Fatal("QoS class constants are not distinct/ordered")
		}
		var fl memif.MovFlags = memif.MovFlagTxn | memif.MovFlagKeepSrc
		if fl&memif.MovFlagTxn == 0 || fl&memif.MovFlagKeepSrc == 0 {
			t.Fatal("request flag constants do not compose")
		}
		dev.FreeRequest(p, done)

		var f *memif.File = memif.NewFile(m, "api-test", memif.Page4K*4, memif.Page4K)
		_ = f
		var mig *memif.LinuxMigrator = memif.NewLinuxMigrator(m, as)
		_ = mig
		var sd *memif.SwapDaemon = memif.NewSwapDaemon(dev, memif.DefaultSwapOptions())
		var swopts memif.SwapOptions = memif.DefaultSwapOptions()
		_ = swopts
		var swm memif.SwapMetricsSnapshot = sd.Metrics()
		if ms := memif.SwapObsMetrics("api", swm); len(ms) == 0 {
			t.Error("SwapObsMetrics returned no series")
		}
		sd.Stop()

		var cfg memif.StreamConfig = memif.DefaultStreamConfig()
		cfg.BufBytes = memif.Page4K * 4 // stream length below must be a multiple
		var k memif.StreamKernel = memif.KernelTriad
		_ = memif.KernelAdd
		_ = memif.KernelPGain
		base, err := as.Mmap(p, memif.Page4K*16, memif.NodeSlow, "stream")
		if err != nil {
			t.Fatal(err)
		}
		var res memif.StreamResult
		if res, err = memif.StreamDirect(p, as, k, base, memif.Page4K*16, cfg); err != nil {
			t.Fatal(err)
		}
		if res.Elapsed <= 0 {
			t.Error("direct stream run reported nonpositive elapsed time")
		}
	})
	m.Eng.Run()
	if !ran {
		t.Fatal("sim flow never ran")
	}
	if memif.MaxStreamCredits <= 0 {
		t.Error("MaxStreamCredits not positive")
	}

	// Low-level block: the red-blue queue on its own.
	var slab *memif.QueueSlab = memif.NewQueueSlab(8)
	var q *memif.Queue = slab.NewQueue(memif.Blue)
	if old, ok := q.SetColor(memif.Red); !ok || old != memif.Blue {
		t.Fatalf("SetColor on empty queue: old=%v ok=%v", old, ok)
	}
	if color, ok := q.Enqueue(1); !ok || color != memif.Red {
		t.Fatalf("enqueue: color=%v ok=%v", color, ok)
	}
	if v, ok := q.Dequeue(); !ok || v != 1 {
		t.Fatalf("dequeue: v=%d ok=%v", v, ok)
	}
	if old, ok := q.SetColor(memif.Blue); !ok || old != memif.Red {
		t.Fatalf("SetColor on drained queue: old=%v ok=%v", old, ok)
	}

	// Realtime group compile-time coverage; behavior is in the QoS tests
	// below.
	var _ memif.Class = memif.Foreground
	var classes = [memif.NumClasses]memif.Class{
		memif.Foreground, memif.Background, memif.Scavenger,
	}
	for i, c := range classes {
		if want := [...]string{"foreground", "background", "scavenger"}[i]; c.String() != want {
			t.Errorf("class %d: String %q, want the metric label %q", i, c.String(), want)
		}
	}
	shares := memif.DefaultRealtimeClassShares()
	if shares[memif.Foreground] != 1.0 || shares[memif.Scavenger] >= shares[memif.Background] {
		t.Errorf("default class shares out of order: %v", shares)
	}
	for _, err := range []error{memif.ErrCanceled, memif.ErrDeadline, memif.ErrNoSlots,
		memif.ErrOverload, memif.ErrClosed, memif.ErrBadSizes} {
		if err == nil || err.Error() == "" {
			t.Error("unified taxonomy exports a nil or empty error")
		}
	}
}

// TestStreamEngineFacade drives the redesigned streaming surface end to
// end through the facade: engine lifecycle, spec validation through the
// streaming error taxonomy, two concurrent streams over one pinned
// ring, per-stream stats, the engine snapshot, and the Prometheus
// export.
func TestStreamEngineFacade(t *testing.T) {
	m := memif.NewMachine(memif.KeyStoneII())
	ran := false
	m.Eng.Spawn("streams", func(p *memif.Proc) {
		ran = true
		as := m.NewAddressSpace(memif.Page4K)
		dev := memif.Open(m, as, memif.DefaultOptions())
		defer dev.Close()

		var opts memif.StreamEngineOptions = memif.DefaultStreamEngineOptions()
		opts.BufBytes = memif.Page4K * 4
		opts.NumBufs = 4
		var eng *memif.StreamEngine
		eng, err := memif.OpenStreamEngine(p, dev, opts)
		if err != nil {
			t.Fatalf("OpenStreamEngine: %v", err)
		}

		const length = memif.Page4K * 32
		base, err := as.Mmap(p, length*2, memif.NodeSlow, "ingest")
		if err != nil {
			t.Fatal(err)
		}

		// Rejections land in the streaming error taxonomy.
		if _, err := eng.OpenStream(p, memif.StreamSpec{Kernel: memif.KernelAdd, Base: base, Length: length + 1}); !errors.Is(err, memif.ErrBadStream) {
			t.Errorf("unaligned spec: %v, want ErrBadStream", err)
		}

		var sa, sb *memif.StreamHandle
		sa, err = eng.OpenStream(p, memif.StreamSpec{
			Kernel: memif.KernelAdd, Base: base, Length: length, Name: "ingest-a",
		})
		if err != nil {
			t.Fatalf("OpenStream a: %v", err)
		}
		sb, err = eng.OpenStream(p, memif.StreamSpec{
			Kernel: memif.KernelTriad, Base: base + length, Length: length,
			Class: memif.Scavenger, Credits: 3, Name: "ingest-b",
		})
		if err != nil {
			t.Fatalf("OpenStream b: %v", err)
		}

		// Drive one by Run, the other chunk-at-a-time by Consume.
		if _, err := sa.Run(p); err != nil {
			t.Fatalf("stream a run: %v", err)
		}
		for {
			done, err := sb.Consume(p)
			if err != nil {
				t.Fatalf("stream b consume: %v", err)
			}
			if done {
				break
			}
		}
		var st memif.StreamStats = sb.Stats()
		if !st.Done || st.FastChunks+st.SlowChunks != st.Chunks || st.CreditsInFlight != 0 {
			t.Errorf("stream b stats = %+v, want drained and credit-balanced", st)
		}
		if sa.Name() != "ingest-a" || sa.Err() != nil || !sa.Done() {
			t.Errorf("stream a handle: name=%q done=%v err=%v", sa.Name(), sa.Done(), sa.Err())
		}
		if sa.Checksum() != sb.Checksum() {
			t.Errorf("checksums diverged over zero-filled input: %#x vs %#x", sa.Checksum(), sb.Checksum())
		}

		// Snapshot before closing sb: closed-and-drained streams retire
		// from the registry (their flight lanes and engine totals remain).
		var snap memif.StreamEngineSnapshot = eng.Snapshot()
		if snap.RingBufs != opts.NumBufs || snap.BufMmaps != int64(opts.NumBufs) {
			t.Errorf("snapshot ring = %d mmaps = %d, want the pinned ring mapped once", snap.RingBufs, snap.BufMmaps)
		}
		if snap.StreamsOpened != 2 || snap.Stalls != 0 {
			t.Errorf("snapshot = %+v, want 2 streams and zero stalls", snap)
		}
		ms := memif.StreamEngineObsMetrics("api", snap)
		var sawEngine, sawStream bool
		for _, mm := range ms {
			switch mm.Name {
			case "memif_stream_engine_fills_total":
				sawEngine = true
			case "memif_stream_fast_chunks_total":
				sawStream = true
			}
		}
		if !sawEngine || !sawStream {
			t.Errorf("StreamEngineObsMetrics: engine series %v, per-stream series %v", sawEngine, sawStream)
		}

		sb.Close(p)
		eng.Close(p)
		if _, err := eng.OpenStream(p, memif.StreamSpec{Kernel: memif.KernelAdd, Base: base, Length: length}); !errors.Is(err, memif.ErrStreamClosed) {
			t.Errorf("open on closed engine: %v, want ErrStreamClosed", err)
		}
	})
	m.Eng.Run()
	if !ran {
		t.Fatal("stream flow never ran")
	}
}

// TestRealtimeFacadeQoS drives the realtime surface end to end through
// the facade: priority classes, admission shedding with the typed
// overload error, context-based poll and drain, per-class stats, and
// the observability exports.
func TestRealtimeFacadeQoS(t *testing.T) {
	ropts := memif.DefaultRealtimeOptions()
	ropts.NumReqs = 8
	ropts.Controllers = 1
	// Scavenger admission cuts off at 50% occupancy = 4 slots. The burst
	// below must hold that many requests in flight at once, so it stalls
	// every copy until the shed has been seen — whether a copy outlasts
	// the submit loop is the host's business, not the test's.
	var stall atomic.Bool
	release := make(chan struct{})
	ropts.Chaos = &realtime.ChaosHooks{
		BeforeChunkCopy: func(uint32, int, int) {
			if stall.Load() {
				<-release
			}
		},
	}
	var d *memif.RealtimeDevice = memif.OpenRealtime(ropts)

	payload := make([]byte, 1<<10)
	submit := func(class memif.Class, src, dst []byte) (*memif.RealtimeRequest, error) {
		r := d.AllocRequest()
		if r == nil {
			t.Fatal("AllocRequest: slab exhausted")
		}
		r.Class = class
		r.Src, r.Dst = src, dst
		err := d.Submit(r)
		if err != nil {
			d.FreeRequest(r)
			return nil, err
		}
		return r, nil
	}

	// Foreground flows regardless of load; completions arrive via the
	// context poll.
	fg, err := submit(memif.Foreground, payload, make([]byte, len(payload)))
	if err != nil {
		t.Fatalf("foreground submit: %v", err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	if !d.PollContext(ctx) {
		t.Fatal("PollContext returned without a completion")
	}
	cancel()
	got := d.RetrieveCompleted()
	if got != fg || got.Err != nil {
		t.Fatalf("retrieved %v err=%v, want the foreground request", got, got.Err)
	}
	if lat, ok := got.Latency(); !ok || lat <= 0 {
		t.Errorf("latency = %v ok=%v", lat, ok)
	}
	d.FreeRequest(got)

	// Burst scavenger submissions past the class's occupancy share
	// (50% of 8 slots = 4 in flight). With the copies stalled every
	// accepted request stays in flight, so exactly the fifth submission
	// crosses the limit and admission sheds it with the typed overload
	// error — well inside the 8-slot slab.
	stall.Store(true)
	const big = 512 << 10
	bigSrc := make([]byte, big)
	var overErr error
	var held []*memif.RealtimeRequest
	for i := 0; i < ropts.NumReqs*4 && overErr == nil; i++ {
		r, err := submit(memif.Scavenger, bigSrc, make([]byte, big))
		switch {
		case err == nil:
			held = append(held, r)
		case errors.Is(err, memif.ErrOverload):
			overErr = err
		default:
			t.Fatalf("scavenger submit: %v", err)
		}
	}
	stall.Store(false)
	close(release)
	if overErr == nil {
		t.Fatal("no scavenger submission was shed at 4x capacity")
	}
	if len(held) != 4 {
		t.Errorf("%d scavenger submissions accepted before the shed, want 4", len(held))
	}
	var oe *memif.RealtimeOverloadError
	if !errors.As(overErr, &oe) {
		t.Fatalf("overload error is %T, want *RealtimeOverloadError", overErr)
	}
	if oe.Class != memif.Scavenger || oe.RetryAfter <= 0 {
		t.Errorf("overload error = %+v, want scavenger class and positive retry-after", oe)
	}

	// Drain what was accepted, then check the per-class stats and the
	// Prometheus exports.
	for range held {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		d.PollContext(ctx)
		cancel()
		if r := d.RetrieveCompleted(); r != nil {
			d.FreeRequest(r)
		}
	}
	var st memif.RealtimeStats = d.Stats()
	var cs memif.RealtimeClassStats = st.Classes[memif.Scavenger]
	if cs.Shed == 0 {
		t.Error("scavenger class stats recorded no sheds")
	}
	if st.Classes[memif.Foreground].Submitted == 0 {
		t.Error("foreground class stats recorded no submissions")
	}
	if st.Shed == 0 {
		t.Error("device-level Shed counter is zero")
	}

	ms := memif.RealtimeObsMetrics("api", st)
	var sawClass bool
	for _, mm := range ms {
		var _ memif.ObsMetric = mm
		if mm.Name == "memif_realtime_class_shed_total" {
			sawClass = true
		}
	}
	if !sawClass {
		t.Error("RealtimeObsMetrics emitted no per-class shed series")
	}
	h := memif.NewObsHandler()
	var _ *memif.ObsHandler = h

	// Lifecycle exports: captured lifecycles render as Chrome trace JSON.
	var lcs memif.LifecycleSnapshot = st.Lifecycle
	var spans memif.LifecycleSpans = lcs.Spans
	_ = spans
	var caps []memif.CapturedLifecycle = lcs.Captured
	if blob, err := memif.ChromeTraceJSON("api", caps); err != nil {
		t.Errorf("ChromeTraceJSON: %v", err)
	} else if !strings.Contains(string(blob), "traceEvents") {
		t.Error("Chrome trace JSON missing traceEvents")
	}

	// Context drain closes the device; ErrClosed afterwards.
	ctx2, cancel2 := context.WithTimeout(context.Background(), 5*time.Second)
	if !d.CloseDrainContext(ctx2) {
		t.Error("CloseDrainContext did not drain an idle device")
	}
	cancel2()
	if _, err := submit(memif.Foreground, payload, make([]byte, len(payload))); !errors.Is(err, memif.ErrClosed) {
		t.Errorf("submit after close: %v, want ErrClosed", err)
	}
}

// TestRealtimeFacadeTenants drives the tenant namespace surface through
// the facade: OpenTenant validation and duplicate rejection, submission
// and per-tenant stats attribution via the handle, group cancellation,
// and the tenant slices of the device snapshot.
func TestRealtimeFacadeTenants(t *testing.T) {
	ropts := memif.DefaultRealtimeOptions()
	ropts.NumReqs = 16
	ropts.Controllers = 1
	d := memif.OpenRealtime(ropts)
	defer d.Close()

	// Config validation funnels into ErrBadTenant; duplicates into
	// ErrTenantExists.
	if _, err := d.OpenTenant(memif.RealtimeTenantConfig{Name: "", Weight: 1, SlotQuota: 4}); !errors.Is(err, memif.ErrBadTenant) {
		t.Errorf("empty name: %v, want ErrBadTenant", err)
	}
	if _, err := d.OpenTenant(memif.RealtimeTenantConfig{Name: "t", Weight: memif.RealtimeMaxTenantWeight + 1, SlotQuota: 4}); !errors.Is(err, memif.ErrBadTenant) {
		t.Errorf("oversized weight: %v, want ErrBadTenant", err)
	}
	var ta *memif.RealtimeTenant
	ta, err := d.OpenTenant(memif.RealtimeTenantConfig{Name: "tenant-a", Weight: 2, SlotQuota: 8})
	if err != nil {
		t.Fatalf("OpenTenant: %v", err)
	}
	if _, err := d.OpenTenant(memif.RealtimeTenantConfig{Name: "tenant-a", Weight: 1, SlotQuota: 4}); !errors.Is(err, memif.ErrTenantExists) {
		t.Errorf("duplicate name: %v, want ErrTenantExists", err)
	}
	if ta.Name() != "tenant-a" || ta.ID() == 0 || ta.Device() != d {
		t.Fatalf("tenant handle: name=%q id=%d", ta.Name(), ta.ID())
	}

	// A submission through the handle completes and is attributed to the
	// tenant's counters, not the default tenant's.
	payload := make([]byte, 1<<10)
	r := d.AllocRequest()
	r.Class = memif.Foreground
	r.Src, r.Dst = payload, make([]byte, len(payload))
	if err := ta.Submit(r); err != nil {
		t.Fatalf("tenant submit: %v", err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	if !d.PollContext(ctx) {
		t.Fatal("PollContext returned without a completion")
	}
	cancel()
	if got := d.RetrieveCompleted(); got != r || got.Err != nil {
		t.Fatalf("retrieved %v err=%v, want the tenant request", got, got.Err)
	}
	d.FreeRequest(r)
	var ts memif.RealtimeTenantStats = ta.Stats()
	if ts.Submitted != 1 || ts.Completed != 1 {
		t.Errorf("tenant stats = %+v, want 1 submitted/completed", ts)
	}
	if ta.CancelAll() != 0 {
		t.Error("CancelAll on an idle tenant canceled something")
	}

	// The device snapshot carries one TenantStats per namespace, default
	// tenant first.
	st := d.Stats()
	if len(st.Tenants) != 2 || st.Tenants[0].ID != 0 || st.Tenants[1].Name != "tenant-a" {
		t.Fatalf("snapshot tenants = %+v", st.Tenants)
	}
	if st.Tenants[0].Completed != 0 {
		t.Errorf("default tenant absorbed the tenant completion: %+v", st.Tenants[0])
	}
}

// TestRealtimeFacadeFlight drives the flight-recorder surface through
// the facade: a trained lane's threshold is read back from the
// snapshot, one request is held in its copy until it is past that
// threshold, and exactly that request lands in the outlier ring; the
// snapshot types line up, and the handler serves them as
// /debug/outliers reports.
func TestRealtimeFacadeFlight(t *testing.T) {
	ropts := memif.DefaultRealtimeOptions()
	var fo memif.FlightOptions
	fo.Warmup = 1
	ropts.Flight = fo
	var hold atomic.Bool
	release := make(chan struct{})
	ropts.Chaos = &realtime.ChaosHooks{
		BeforeChunkCopy: func(uint32, int, int) {
			if hold.Load() {
				<-release
			}
		},
	}
	d := memif.OpenRealtime(ropts)
	defer d.Close()

	payload := make([]byte, 4<<10)
	// roundTrip submits one request, runs during (if any) while it is
	// in flight, and retrieves it.
	roundTrip := func(during func()) {
		r := d.AllocRequest()
		if r == nil {
			t.Fatal("out of request slots")
		}
		r.Src, r.Dst = payload, make([]byte, len(payload))
		if err := d.Submit(r); err != nil {
			t.Fatalf("submit: %v", err)
		}
		if during != nil {
			during()
		}
		for {
			if got := d.RetrieveCompleted(); got != nil {
				d.FreeRequest(got)
				return
			}
			d.Poll(time.Second)
		}
	}
	for i := 0; i < 8; i++ {
		roundTrip(nil) // train the foreground lane past its warmup
	}

	var fs memif.FlightSnapshot = d.FlightSnapshot()
	if !fs.Enabled {
		t.Fatal("flight snapshot not enabled")
	}
	var thr int64
	for _, lt := range fs.Thresholds {
		if lt.Class == 0 && lt.Tenant == 0 {
			thr = lt.ThresholdNs
		}
	}
	if thr <= 0 {
		t.Fatalf("trained foreground lane reports no threshold: %+v", fs.Thresholds)
	}
	before := fs.Breaches

	// The straggler: stalled in its copy until it is older than the
	// threshold just read, whatever the EWMA came out as on this host.
	hold.Store(true)
	roundTrip(func() {
		time.Sleep(time.Duration(thr) + time.Millisecond)
		close(release)
	})

	fs = d.FlightSnapshot()
	if fs.Breaches != before+1 || fs.Captured != fs.Breaches+fs.Stalls {
		t.Fatalf("breaches %d -> %d, stalls %d, captured %d: want exactly the straggler, fully captured",
			before, fs.Breaches, fs.Stalls, fs.Captured)
	}
	var newest memif.CapturedLifecycle
	for _, o := range fs.Outliers {
		switch o.Kind {
		case memif.FlightKindLatency:
			newest = o
		case memif.FlightKindEvent:
			t.Fatalf("the realtime device captured a domain event: %+v", o)
		case memif.FlightKindStall: // a watchdog report: the host stalled the run for 30 ms
		}
	}
	if newest.ThresholdNs != thr || newest.LatencyNs <= thr {
		t.Fatalf("newest outlier %+v is not the straggler held past threshold %d", newest, thr)
	}

	h := memif.NewObsHandler()
	h.RegisterOutliers("realtime", d.FlightSnapshot)
	var reports []memif.ObsOutlierReport = h.OutlierReports()
	if len(reports) != 1 || reports[0].Source != "realtime" || !reports[0].Flight.Enabled {
		t.Fatalf("outlier reports = %+v, want one armed realtime source", reports)
	}
}

// The options snapshot: api/memif.txt prints "type RealtimeOptions =
// realtime.Options" and nothing below it, so a knob added to (or
// removed from) an aliased struct never shows up there. api/options.txt
// lists every exported field of every options/config struct the facade
// aliases, one per line; TestOptionsSnapshot fails until a change to any
// of them is regenerated and reviewed:
//
//	go test -run TestOptionsSnapshot . -args -o api/options.txt

var optionsOut = flag.String("o", "", "write the options snapshot to this file instead of comparing it")

// optionFields appends one "path type" line per exported field of t,
// expanding nested structs declared in this module.
func optionFields(lines []string, path string, t reflect.Type) []string {
	for i := 0; i < t.NumField(); i++ {
		f := t.Field(i)
		if !f.IsExported() {
			continue
		}
		if f.Type.Kind() == reflect.Struct && strings.HasPrefix(f.Type.PkgPath(), "memif/") {
			lines = optionFields(lines, path+"."+f.Name, f.Type)
			continue
		}
		lines = append(lines, path+"."+f.Name+" "+f.Type.String())
	}
	return lines
}

func TestOptionsSnapshot(t *testing.T) {
	var lines []string
	for name, v := range map[string]any{
		"Options":              memif.Options{},
		"RealtimeOptions":      memif.RealtimeOptions{},
		"FlightOptions":        memif.FlightOptions{},
		"RealtimeTenantConfig": memif.RealtimeTenantConfig{},
		"SwapOptions":          memif.SwapOptions{},
		"StreamEngineOptions":  memif.StreamEngineOptions{},
		"StreamSpec":           memif.StreamSpec{},
		"StreamConfig":         memif.StreamConfig{},
	} {
		lines = optionFields(lines, name, reflect.TypeOf(v))
	}
	sort.Strings(lines)
	got := strings.Join(lines, "\n") + "\n"
	if *optionsOut != "" {
		if err := os.WriteFile(*optionsOut, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile("api/options.txt")
	if err != nil {
		t.Fatal(err)
	}
	if got == string(want) {
		return
	}
	live := map[string]bool{}
	for _, l := range lines {
		live[l] = true
	}
	var diff []string
	for _, l := range strings.Split(strings.TrimRight(string(want), "\n"), "\n") {
		if !live[l] {
			diff = append(diff, "- "+l)
		}
		delete(live, l)
	}
	for l := range live {
		diff = append(diff, "+ "+l)
	}
	sort.Strings(diff)
	t.Errorf("option fields differ from api/options.txt — regenerate with `go test -run TestOptionsSnapshot . -args -o api/options.txt` and review the diff:\n%s", strings.Join(diff, "\n"))
}
