package main

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/rand"
	"slices"
	"time"

	"memif/internal/obs/lifecycle"
	"memif/internal/realtime"
)

// rtClass is one request class of a realtime workload: a fixed number
// of requests kept outstanding, submitted in batches of batch.
type rtClass struct {
	class       realtime.Class
	size        int // bytes per request
	outstanding int
	batch       int
	bufs        int // source buffers, and as many destination buffers
}

// rtSpec describes one realtime workload. classes[0] is the class whose
// latency is reported; ops and bytes count every class.
type rtSpec struct {
	name      string
	classes   []rtClass
	warmupOps int // fixed op count (classes[0]) run before the first window
}

func rtSpecs(small bool) map[string]rtSpec {
	// 256 buffers of 1 MiB each way: 2x256 MiB, above the 260 MiB
	// last-level cache of the sizing host, so a copy reads and writes
	// memory. The 4 KiB pools (2x512 KiB) stay cache-resident on purpose.
	largeBufs, warmSmall, warmLarge := 256, 200_000, 2_000
	if small {
		largeBufs, warmSmall, warmLarge = 16, 2_000, 32
	}
	fg4k := func(out, batch int) rtClass {
		return rtClass{class: realtime.ClassForeground, size: 4 << 10, outstanding: out, batch: batch, bufs: 128}
	}
	return map[string]rtSpec{
		// Four batches of 8 in flight. Twice that (64 in batches of 16)
		// completes as many per second but queues twice as long, and the
		// tail of that queue follows the host: its p99 spread 24-30% over
		// ten runs where this one's spread 8%.
		"rt_small": {name: "rt_small", warmupOps: warmSmall, classes: []rtClass{fg4k(32, 8)}},
		"rt_large": {name: "rt_large", warmupOps: warmLarge, classes: []rtClass{
			{class: realtime.ClassForeground, size: 1 << 20, outstanding: 8, batch: 1, bufs: largeBufs}}},
		"rt_mixed": {name: "rt_mixed", warmupOps: warmSmall, classes: []rtClass{
			// 32 foreground requests outstanding, not 8: behind every
			// background chunk a whole burst waits, so the blocked share is
			// well over 1% and the p99 reads head-of-line blocking (~200 us).
			// With 8 the share is about 1%: the p99 sat on the knee between
			// 12 us and 200 us and swung 25-125 us from window to window.
			fg4k(32, 1),
			{class: realtime.ClassBackground, size: 1 << 20, outstanding: 2, batch: 1, bufs: largeBufs}}},
	}
}

// stampStride is the distance between the 8-byte stamps that make every
// source buffer distinct; the first stamp of a buffer is checked on
// every retrieved request, the whole buffer after the last window.
const stampStride = 4 << 10

// rtPool is one class's buffers: sources in a seeded rotation,
// destinations handed out from a FIFO so none is rewritten in flight.
type rtPool struct {
	mem      []byte // one mapping: sources then destinations
	size     int
	src, dst [][]byte
	srcOrder []int // seeded rotation of source indices
	next     int   // position in srcOrder
	dstFree  []int // ring of free destination indices, seeded order
	dstHead  int   // oldest free entry of dstFree
	dstFreeN int   // free entries, from dstHead on
	lastSrc  []int // per destination: source it last received, -1 none
}

func newRTPool(c rtClass, rng *rand.Rand) (*rtPool, error) {
	mem, err := mapAnon(2 * c.bufs * c.size)
	if err != nil {
		return nil, err
	}
	p := &rtPool{mem: mem, size: c.size, srcOrder: rng.Perm(c.bufs), dstFree: rng.Perm(c.bufs), dstFreeN: c.bufs, lastSrc: make([]int, c.bufs)}
	// One seeded pattern block, copied into every source and stamped:
	// cheap enough to repeat per set-up, distinct enough that a copy
	// from the wrong source or a skipped copy cannot compare equal.
	pattern := make([]byte, c.size)
	rng.Read(pattern)
	salt := rng.Uint64()
	for i := 0; i < c.bufs; i++ {
		s := mem[i*c.size : (i+1)*c.size : (i+1)*c.size]
		copy(s, pattern)
		for off := 0; off+8 <= c.size; off += stampStride {
			binary.LittleEndian.PutUint64(s[off:], salt^uint64(i)<<20^uint64(off))
		}
		p.src = append(p.src, s)
		d := mem[(c.bufs+i)*c.size : (c.bufs+i+1)*c.size : (c.bufs+i+1)*c.size]
		clear(d) // pre-fault
		p.dst = append(p.dst, d)
		p.lastSrc[i] = -1
	}
	return p, nil
}

// takeDst hands out the destination that has been free the longest. A
// class never has more requests outstanding than it has destinations.
func (p *rtPool) takeDst() int {
	di := p.dstFree[p.dstHead]
	p.dstHead = (p.dstHead + 1) % len(p.dstFree)
	p.dstFreeN--
	return di
}

// putDst returns a destination to the back of the ring.
func (p *rtPool) putDst(di int) {
	p.dstFree[(p.dstHead+p.dstFreeN)%len(p.dstFree)] = di
	p.dstFreeN++
}

// verify compares every destination that received a copy with the
// source it last received and returns how many differ.
func (p *rtPool) verify() (checked, bad int64) {
	for d, s := range p.lastSrc {
		if s < 0 {
			continue
		}
		checked++
		if !bytes.Equal(p.dst[d], p.src[s]) {
			bad++
		}
	}
	return checked, bad
}

// rtSlot is the generator's record of what it put in a request slot.
type rtSlot struct {
	class    int
	src, dst int
	submitAt int64 // generator clock just before the submit call
}

// rtGen is the single closed-loop generator: one goroutine allocates,
// submits, polls, retrieves and frees, keeping each class at its fixed
// outstanding count. With the worker and the controllers it fits the
// two cores of the sizing host; more generator goroutines measured the
// Go scheduler, not memif (README.md, "Method").
type rtGen struct {
	d       *realtime.Device
	classes []rtClass
	pools   []*rtPool
	slots   []rtSlot
	out     []int // outstanding per class
	seq     uint64
	base    time.Time           // origin of the generator clock
	pending []*realtime.Request // batch under construction
	got     []*realtime.Request // retrieve buffer
	// Samples of the current window, classes[0] only, ns. lat is what
	// the caller sees: submit call to the return of the retrieve call
	// that delivered the completion. engine is Request.Latency(), the
	// device's own submit-to-complete stamp pair (traced windows).
	lat, engine []int64
}

// now reads the generator clock: ns since the generator was built.
func (g *rtGen) now() int64 { return int64(time.Since(g.base)) }

// rtWindow is what one window measured.
type rtWindow struct {
	ops, bytes        int64
	attempted, failed int64
	elapsed           time.Duration
	cpu               time.Duration
	p50, p99          int64 // ns, classes[0], caller-visible
	samples           int
	tailOK            bool
}

// run drives the closed loop until stop says so (checked once per loop
// iteration with the ops of classes[0] issued so far), then drains.
//
// The untraced loop reads the clock twice per iteration, before a
// submit call and after a retrieve call: the two ends of the
// caller-visible latency. A traced loop reads it at every boundary
// between calls, so its spans tile the window.
func (g *rtGen) run(tr *tracer, stop func(issued int64) bool) rtWindow {
	var w rtWindow
	g.lat, g.engine = g.lat[:0], g.engine[:0]
	d := g.d
	cpu0 := cpuTime()
	start := time.Now()
	t := g.now()
	// mark closes the span [t, now) of a traced loop and moves t on.
	mark := func(kind spanKind, req uint64, n int) {
		if tr != nil {
			t1 := g.now()
			tr.add(kind, t, t1, req, n)
			t = t1
		}
	}
	tr.begin(t, g.seq)
	var issued int64
	submitting := true
	total := 0
	for {
		if submitting {
			for ci := range g.classes {
				c := &g.classes[ci]
				for submitting && g.out[ci]+c.batch <= c.outstanding {
					first := g.seq
					g.pending = g.pending[:0]
					for len(g.pending) < c.batch {
						r := d.AllocRequest()
						if r == nil {
							// Slab exhausted below the outstanding target.
							w.attempted++
							w.failed++
							submitting = false
							break
						}
						p := g.pools[ci]
						si := p.srcOrder[p.next]
						p.next = (p.next + 1) % len(p.srcOrder)
						di := p.takeDst()
						r.Src, r.Dst, r.Class, r.Cookie = p.src[si], p.dst[di], c.class, g.seq
						g.seq++
						g.slots[r.Index()] = rtSlot{class: ci, src: si, dst: di}
						g.pending = append(g.pending, r)
					}
					mark(spanAlloc, first, len(g.pending))
					n := len(g.pending)
					if n == 0 {
						break
					}
					if tr == nil {
						t = g.now()
					}
					for _, r := range g.pending {
						g.slots[r.Index()].submitAt = t
					}
					w.attempted += int64(n)
					if err := d.SubmitBatch(g.pending); err != nil {
						w.failed += int64(n)
						for _, r := range g.pending {
							g.freeDst(r)
							d.FreeRequest(r)
						}
					} else {
						g.out[ci] += n
						total += n
						if ci == 0 {
							issued += int64(n)
						}
					}
					mark(spanSubmit, first, n)
				}
			}
		}
		if total == 0 {
			break
		}
		d.Poll(10 * time.Millisecond)
		mark(spanPoll, 0, 0)
		n := d.RetrieveCompletedBatch(g.got)
		var first uint64
		if n > 0 {
			first = g.got[0].Cookie
		}
		if tr == nil {
			t = g.now()
		} else {
			mark(spanRetrieve, first, n)
		}
		for _, r := range g.got[:n] {
			s := g.slots[r.Index()]
			p := g.pools[s.class]
			lat, ok := r.Latency()
			switch {
			case r.Err != nil, !ok:
				w.failed++
			case !bytes.Equal(r.Dst[:8], r.Src[:8]):
				w.failed++ // the copy did not land
			default:
				w.ops++
				w.bytes += int64(len(r.Src))
				p.lastSrc[s.dst] = s.src
				if s.class == 0 {
					g.lat = append(g.lat, t-s.submitAt)
					if tr != nil {
						g.engine = append(g.engine, int64(lat))
					}
				}
			}
			g.freeDst(r)
			g.out[s.class]--
		}
		mark(spanAccount, first, n)
		for _, r := range g.got[:n] {
			d.FreeRequest(r)
		}
		total -= n
		mark(spanFree, first, n)
		if submitting && stop(issued) {
			submitting = false
		}
	}
	w.elapsed = time.Since(start)
	w.cpu = cpuTime() - cpu0
	tr.end(g.now(), int(w.ops))
	slices.Sort(g.lat)
	w.samples = len(g.lat)
	if w.samples > 0 {
		w.p50, w.p99 = percentile(g.lat, 0.50), percentile(g.lat, 0.99)
	}
	w.tailOK = tailOK(w.samples, 0.99)
	return w
}

// freeDst returns a request's destination buffer to its pool's FIFO.
func (g *rtGen) freeDst(r *realtime.Request) {
	s := g.slots[r.Index()]
	g.pools[s.class].putDst(s.dst)
}

// rtSetup is everything one set-up builds.
type rtSetup struct {
	gen   *rtGen
	dev   *realtime.Device
	pools []*rtPool
}

func (s *rtSetup) close() {
	s.dev.Close()
	for _, p := range s.pools {
		unmap(p.mem)
	}
}

// openRT opens a device the way an application would: the package
// defaults with only NumReqs stated, so a changed default shows in the
// numbers and no benchmark-only tuning hides one.
func openRT(obsOff bool) *realtime.Device {
	o := realtime.DefaultOptions()
	o.NumReqs = 256
	if obsOff {
		o.Flight.Disable = true
		o.TraceSampleShift = -1
	}
	return realtime.Open(o)
}

// setupRT opens the device, builds and pre-faults the pools from the
// seed, and runs the fixed warm-up op count.
func setupRT(spec rtSpec, seed int64) (*rtSetup, error) {
	rng := rand.New(rand.NewSource(seed))
	s := &rtSetup{dev: openRT(false)}
	for _, c := range spec.classes {
		p, err := newRTPool(c, rng)
		if err != nil {
			s.close()
			return nil, err
		}
		s.pools = append(s.pools, p)
	}
	const latCap = 1 << 21 // samples of one 1 s window; grows if a window outruns it
	g := &rtGen{
		d: s.dev, classes: spec.classes, pools: s.pools,
		slots: make([]rtSlot, 256), out: make([]int, len(spec.classes)),
		pending: make([]*realtime.Request, 0, 64), got: make([]*realtime.Request, 64),
		lat: make([]int64, latCap), engine: make([]int64, latCap), base: time.Now(),
	}
	clear(g.lat) // pre-fault the sample buffers
	clear(g.engine)
	s.gen = g
	w := g.run(nil, func(issued int64) bool { return issued >= int64(spec.warmupOps) })
	if w.failed > 0 {
		s.close()
		return nil, fmt.Errorf("%s: %d of %d warm-up operations failed", spec.name, w.failed, w.attempted)
	}
	return s, nil
}

// setupCount is how many times a run sets up; setup_s is the median.
const setupCount = 3

// Window variants of a traced run, interleaved so host drift hits all
// alike: traced on the default device, untraced on the default device
// (trace overhead), untraced on a device with the recorder and the
// lifecycle tracer off (what the always-on observability costs).
const (
	varTraced = iota
	varPlain
	varObsOff
)

func runRT(cfg config, spec rtSpec) (*result, error) {
	res := newResult()
	var s *rtSetup
	for i := 0; i < setupCount; i++ {
		if s != nil {
			s.close()
		}
		t0 := time.Now()
		var err error
		if s, err = setupRT(spec, cfg.seed); err != nil {
			return nil, err
		}
		res.setups = append(res.setups, time.Since(t0).Seconds())
	}
	defer func() { s.close() }()
	g := s.gen

	variants := []int{varPlain}
	var tr *tracer
	var devOff *realtime.Device
	if cfg.trace {
		tr = newTracer("realtime")
		variants = []int{varTraced, varPlain}
		if spec.name == "rt_small" {
			variants = append(variants, varObsOff)
			devOff = openRT(true)
			defer devOff.Close()
			g.d = devOff
			g.run(nil, func(issued int64) bool { return issued >= int64(spec.warmupOps) })
			g.d = s.dev
		}
	}

	cal := newCalibrator(cfg.small)
	defer cal.close()
	var (
		opsBy   [3][]float64 // calibrated
		rawOps  []float64    // plain windows, host clock as it ran
		rawGBs  []float64    // likewise, for the share of the memmove floor
		acc     rtLayerAcc
		windows = cfg.windowCount()
	)
	for i := 0; i < windows; i++ {
		v := variants[i%len(variants)]
		wtr := tr
		if v != varTraced {
			wtr = nil
		}
		g.d = s.dev
		if v == varObsOff {
			g.d = devOff
		}
		var s0 realtime.StatsSnapshot
		if v == varTraced {
			s0 = s.dev.Stats()
			tr.resetTotals()
		}
		deadline := time.Now().Add(cfg.windowLen())
		w := g.run(wtr, func(int64) bool { return !time.Now().Before(deadline) })
		res.attempted += w.attempted
		res.failed += w.failed
		if w.ops == 0 {
			return nil, fmt.Errorf("%s: window %d completed no operation", spec.name, i)
		}
		// Host time from here on is calibrated (calib.go): seconds of the
		// quiet sizing host. The traced windows' spans stay raw.
		scale := cal.next()
		secs := w.elapsed.Seconds() * scale
		opsS := float64(w.ops) / secs
		opsBy[v] = append(opsBy[v], opsS)
		if !w.tailOK {
			res.invalid = append(res.invalid, fmt.Sprintf("window %d: only %d latency samples, p99 has fewer than %d beyond it", i, w.samples, minTailSamples))
		}
		if v == varTraced {
			acc.add(tr, w, s0, s.dev.Stats(), g.engine)
		}
		if v == varPlain {
			rawOps = append(rawOps, opsS*scale)
			rawGBs = append(rawGBs, float64(w.bytes)/w.elapsed.Seconds()/1e9)
			res.window("ops_s", opsS)
			res.window("gb_s", float64(w.bytes)/secs/1e9)
			res.window("lat_p50_us", float64(w.p50)*scale/1e3)
			res.window("lat_p99_us", float64(w.p99)*scale/1e3)
			res.window("cpu_us_per_op", float64(w.cpu.Microseconds())*scale/float64(w.ops))
		}
	}
	g.d = s.dev
	res.notes = cal.notes(rawOps)

	if cfg.check {
		checkRT(res, s, devOff)
	}
	if cfg.trace {
		acc.report(res)
		plain := median(opsBy[varPlain])
		res.layer["host.calibration"] = median(cal.scales)
		res.layer["trace.overhead_frac"] = 1 - median(opsBy[varTraced])/plain
		if len(opsBy[varObsOff]) > 0 {
			res.layer["obs.armed_overhead_frac"] = 1 - plain/median(opsBy[varObsOff])
		}
		big := s.pools[len(s.pools)-1]
		if big.size < 1<<20 {
			big = nil
		}
		if err := measureFloors(res, big, cfg.small); err != nil {
			return nil, err
		}
		if big != nil {
			res.layer["realtime.copy_frac_of_floor"] = median(rawGBs) / res.layer["floor.memmove_gb_s"]
		}
		res.tracer = tr
	}
	return res, nil
}

// checkRT is the end-of-run output check: every destination equals the
// source it last received, every slot is back on the free list, and the
// device completed each request exactly once with no failure.
func checkRT(res *result, s *rtSetup, devOff *realtime.Device) {
	for i, p := range s.pools {
		checked, bad := p.verify()
		res.attempted += checked
		if bad > 0 {
			res.failed += bad
			res.checkErrs = append(res.checkErrs, fmt.Sprintf("class %d: %d of %d destination buffers differ from their source", i, bad, checked))
		}
	}
	for _, d := range []*realtime.Device{s.dev, devOff} {
		if d == nil {
			continue
		}
		if err := d.AuditSlots(nil); err != nil {
			res.failed++
			res.checkErrs = append(res.checkErrs, err.Error())
		}
		st := d.Stats()
		if bad := st.DoubleCompletes + st.Failed + st.Canceled + st.Expired + st.Shed; bad > 0 || st.Completed != st.Submitted {
			res.failed++
			res.checkErrs = append(res.checkErrs, fmt.Sprintf("device counters: submitted %d completed %d failed %d canceled %d expired %d shed %d double-completes %d",
				st.Submitted, st.Completed, st.Failed, st.Canceled, st.Expired, st.Shed, st.DoubleCompletes))
		}
	}
}

// rtLayerAcc accumulates the traced windows' per-layer values; each
// reported value is the median over traced windows.
type rtLayerAcc struct {
	vals map[string][]float64
}

func (a *rtLayerAcc) put(name string, v float64) {
	if a.vals == nil {
		a.vals = make(map[string][]float64)
	}
	a.vals[name] = append(a.vals[name], v)
}

func (a *rtLayerAcc) add(tr *tracer, w rtWindow, s0, s1 realtime.StatsSnapshot, engine []int64) {
	ops := float64(w.ops)
	for kind, name := range map[spanKind]string{
		spanAlloc: "alloc", spanSubmit: "submit", spanPoll: "poll", spanRetrieve: "retrieve", spanFree: "free",
	} {
		a.put("realtime."+name+"_ns_per_op", float64(tr.ns[kind])/ops)
	}
	win := float64(w.elapsed.Nanoseconds())
	a.put("realtime.poll_wait_frac", float64(tr.ns[spanPoll])/win)
	calls := tr.ns[spanAlloc] + tr.ns[spanSubmit] + tr.ns[spanPoll] + tr.ns[spanRetrieve] + tr.ns[spanFree]
	a.put("trace.span_coverage_frac", float64(calls)/win)
	if len(engine) > 0 {
		// What the device adds (its own submit→complete stamps) and what
		// is left of the caller-visible latency: time the completion
		// sat before this generator's retrieve call returned it.
		slices.Sort(engine)
		p50 := percentile(engine, 0.5)
		a.put("realtime.engine_lat_p50_us", float64(p50)/1e3)
		a.put("realtime.engine_lat_p99_us", float64(percentile(engine, 0.99))/1e3)
		a.put("realtime.dwell_p50_us", float64(w.p50-p50)/1e3)
	}
	per := func(name string, a0, a1 int64) { a.put(name, float64(a1-a0)/ops) }
	per("realtime.kicks_per_op", s0.Kicks, s1.Kicks)
	per("realtime.worker_wakes_per_op", s0.WorkerWakes, s1.WorkerWakes)
	per("realtime.batches_per_op", s0.Batches, s1.Batches)
	per("realtime.dispatch_retries_per_op", s0.DispatchRetries, s1.DispatchRetries)
	per("realtime.steals_per_op", s0.Steals, s1.Steals)
	per("realtime.chunks_per_op", s0.Chunks, s1.Chunks)
	per("realtime.inline_frac", s0.InlineCompleted, s1.InlineCompleted)
	per("realtime.aged_pops_per_op", s0.AgedPops, s1.AgedPops)
	a.put("realtime.shed", float64(s1.Shed-s0.Shed))
	stages := s1.Lifecycle.Spans.Delta(s0.Lifecycle.Spans)
	for sp, name := range map[lifecycle.Span]string{
		lifecycle.SpanStagingWait: "staging_wait", lifecycle.SpanDispatchWait: "dispatch_wait",
		lifecycle.SpanRingWait: "ring_wait", lifecycle.SpanCopy: "copy", lifecycle.SpanCompletionDwell: "completion_dwell",
	} {
		if h := stages.Spans[sp]; h.Count > 0 {
			a.put("realtime.stage_"+name+"_p50_us", h.QuantileInterp(0.5)/1e3)
		}
	}
}

func (a *rtLayerAcc) report(res *result) {
	for name, vals := range a.vals {
		res.layer[name] = median(vals)
	}
	// shed is a count over the traced windows, not a per-window rate.
	var shed float64
	for _, v := range a.vals["realtime.shed"] {
		shed += v
	}
	res.layer["realtime.shed"] = shed
}
