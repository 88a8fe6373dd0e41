// Package swapd implements the automatic fast-memory tiering the
// paper's prototype lacks (Section 6.7: "the current memif cannot
// automatically swap out fast memory").
//
// The daemon is a two-way hot/cold tiering engine in the style of Nomad
// (non-exclusive memory tiering via transactional page migration). An
// access-scanning pass samples young/dirty bits over the registered
// regions — re-arming the young bit each pass, so a cleared bit at the
// next pass means the region was referenced — and folds the samples into
// a per-region heat EWMA. Heat feeds two queues: hot slow-tier regions
// are promoted into fast memory, and cold fast-tier regions are demoted
// out when usage crosses the high watermark or a hotter region needs the
// room.
//
// Every move is a *transactional* migration through the daemon's own
// memif device (uapi.ReqTxn): the application keeps reading and writing
// the page at full speed during the copy, and the commit is a per-page
// PTE CAS that fails if the page went dirty — the daemon simply retries
// later, so tiering can never corrupt, fault, or block the application.
// Promotions carry uapi.ReqKeepSrc, retaining the slow-tier frame as a
// shadow copy (non-exclusive tiering): demoting a page that stayed clean
// is then a bare PTE flip that moves zero bytes. Demotions ride the
// scavenger QoS class and promotions the background class, so tiering
// traffic yields the DMA channel to the application's foreground moves.
package swapd

import (
	"fmt"
	"sort"
	"sync"

	"memif/internal/core"
	"memif/internal/hw"
	"memif/internal/obs"
	"memif/internal/obs/lifecycle"
	"memif/internal/qos"
	"memif/internal/sim"
	"memif/internal/uapi"
)

// Options tunes the daemon.
type Options struct {
	// HighWatermark is the fast-node usage fraction that triggers
	// pressure demotion; LowWatermark is the target to demote down to,
	// and the headroom ceiling promotions fill up to.
	HighWatermark, LowWatermark float64
	// PeriodNS is the poll interval of the daemon.
	PeriodNS int64
	// ScanPeriodNS is the access-bit scan cadence (defaults to PeriodNS).
	ScanPeriodNS int64
	// ScanBudget bounds how many regions one pass scans (round-robin
	// across passes; 0 = all registered regions).
	ScanBudget int
	// MaxInflight caps concurrently outstanding tiering migrations.
	MaxInflight int

	// Flight configures the daemon's flight recorder. The zero value
	// arms it: slow migrations and slow promotions breach adaptive
	// per-class thresholds and capture full stage vectors, and txn
	// aborts land as domain events, all in virtual time. There is no
	// SLO tracker and no stall watchdog — burn windows and wall-clock
	// tick cadences are meaningless under the simulated clock. Set
	// Flight.Disable to opt out entirely.
	Flight lifecycle.FlightOptions
}

// DefaultOptions returns watermarks suited to the 6 MB MSMC node.
func DefaultOptions() Options {
	return Options{
		HighWatermark: 0.90,
		LowWatermark:  0.70,
		PeriodNS:      1_000_000, // 1 ms
		ScanPeriodNS:  2_000_000,
		MaxInflight:   4,
	}
}

// The tiering policy: properties of the two-node machine and of the
// heat model, not deployment choices.
const (
	// fastNode is the managed tier and slowNode where demotions send
	// regions: the platform has exactly these two nodes.
	fastNode, slowNode = hw.NodeFast, hw.NodeSlow
	// promoteThreshold is the heat (EWMA of the referenced fraction of
	// sampled pages, 0..1) at which a slow-tier region becomes a
	// promotion candidate: with heatDecay 0.5, one fully referenced scan
	// (or one Touch) of a cold region reaches it, and a region at full
	// heat falls back below after two unreferenced scans.
	promoteThreshold = 0.5
	// heatDecay is the EWMA retention factor: heat = heatDecay*heat +
	// (1-heatDecay)*sample, the latest sample weighing as much as all
	// history, so the daemon follows a hot set that shifts every few
	// scan periods.
	heatDecay = 0.5
	// samplePages bounds how many pages of a region one scan pass
	// samples (a rotating window): every page costs an access-bit read,
	// and 16 pages cover a 64 KB region of 4 KB pages in one pass.
	samplePages = 16
	// promoteClass and demoteClass are the QoS classes tiering transfers
	// ride. Both sit below Foreground, so tiering yields the DMA channel
	// to the application's own moves; a promotion (a region someone is
	// using) goes ahead of a demotion (nobody waits for it).
	promoteClass, demoteClass = qos.Background, qos.Scavenger
)

// region is one registered tiering candidate.
type region struct {
	base, length int64
	lastTouch    sim.Time
	heat         float64  // EWMA of the referenced fraction per scan
	hotSince     sim.Time // when heat last crossed promoteThreshold
	scanOff      int      // rotating sample-window offset (pages)
	primePasses  int      // scan passes done; the first full rotation only arms
	migrating    bool     // a tiering request for this region is in flight
}

// metrics is the daemon's obs instrument set: the MetricsSnapshot
// counters, a migration latency histogram (virtual ns, submission to
// completion), a per-migration byte histogram, the promotion-lag
// histogram (region turning hot → promotion committed). The per-stage
// spans live in the daemon's recorder.
type metrics struct {
	promotions, demotions, zeroCopy, aborts, failed obs.Counter
	bytesPromoted, bytesDemoted, bytesMoved         obs.Counter
	latency, sizes, promoLag                        obs.Histogram
}

// MetricsSnapshot is the daemon's one snapshot: counters plus the
// migration latency, size, and promotion-lag distributions, the stage
// spans and the flight recorder.
type MetricsSnapshot struct {
	Promotions        int64 // completed promotions into fast memory
	Demotions         int64 // completed demotions out of fast memory
	ZeroCopyDemotions int64 // demotions that moved zero bytes (valid shadow)
	Aborts            int64 // migrations aborted by racing writes (txn-dirty)
	// Failed counts migrations that failed for any other reason: another
	// mover held the region's claim (busy) or the destination node had
	// no frames (nomem). Nothing raced them, so they are no abort.
	Failed        int64
	BytesPromoted int64 // requested bytes of completed promotions
	BytesDemoted  int64 // requested bytes of completed demotions
	BytesMoved    int64 // bytes actually copied by DMA (excludes PTE flips)

	// Latency is the submission-to-completion histogram of successful
	// migrations (virtual ns); Sizes the per-migration byte histogram;
	// PromotionLag the region-hot-to-promotion-committed histogram.
	Latency, Sizes, PromotionLag obs.HistogramSnapshot
	// Stages attributes migration latency per pipeline stage (staging
	// wait, dispatch wait, copy, completion dwell), in virtual ns.
	Stages lifecycle.SpanSnapshot
	// Flight is the daemon's flight-recorder state: captured slow
	// migrations (full stage vectors), promotion-lag breaches on the
	// borrowed lane 3, and txn-abort events. All timestamps virtual;
	// Flight.Enabled is false when Options.Flight.Disable was set.
	Flight lifecycle.FlightSnapshot
}

// Daemon is the tiering engine.
type Daemon struct {
	dev  *core.Device // the daemon's own memif device
	opts Options

	// mu guards regions, stop, outstanding, pendingDelta, and the
	// demotion log against Register/Unregister/Touch/Stop racing the
	// daemon process.
	mu          sync.Mutex
	regions     map[int64]*region
	stop        bool
	outstanding int
	// pendingDelta projects the fast-node byte delta of in-flight
	// migrations (+promotions, -demotions) so one pump pass neither
	// over-demotes nor over-promotes.
	pendingDelta int64
	demotionLog  []int64 // bases in demotion-submit order (replay assertions)
	scanCursor   int

	m   metrics
	rec *lifecycle.Recorder
}

// New starts a daemon for the address space behind dev's machine. It
// opens its own memif device on the same address space so its moves do
// not interleave with the application's completion queue.
func New(app *core.Device, opts Options) *Daemon {
	if opts.HighWatermark <= 0 || opts.HighWatermark > 1 ||
		opts.LowWatermark <= 0 || opts.LowWatermark >= opts.HighWatermark {
		panic(fmt.Sprintf("swapd: bad watermarks %+v", opts))
	}
	if opts.ScanPeriodNS <= 0 {
		opts.ScanPeriodNS = opts.PeriodNS
	}
	if opts.MaxInflight <= 0 {
		opts.MaxInflight = 4
	}
	d := &Daemon{
		dev:     core.Open(app.M, app.AS, core.DefaultOptions()),
		opts:    opts,
		regions: make(map[int64]*region),
	}
	// The daemon lives on the simulated clock: no SLO burn windows, no
	// watchdog (there is no wall-tick cadence to count). Outlier capture
	// and the adaptive thresholds work fine on virtual ns. Every
	// migration is sampled: its stage spans are the Stages histograms.
	d.rec = lifecycle.NewRecorder(lifecycle.Config{Flight: opts.Flight})
	app.M.Eng.Spawn("kswapd-fast", d.run)
	return d
}

// Register adds a tiering candidate covering [base, base+length).
func (d *Daemon) Register(base, length int64) {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.regions[base] = &region{base: base, length: length}
}

// Unregister removes a candidate (e.g. before unmapping it).
func (d *Daemon) Unregister(base int64) {
	d.mu.Lock()
	defer d.mu.Unlock()
	delete(d.regions, base)
}

// Touch records an explicit use hint for the region at base, at time
// now — the madvise-style contract of the seed daemon, still honored
// alongside the access-bit scan. A touch counts as a fully referenced
// scan sample.
func (d *Daemon) Touch(base int64, now sim.Time) {
	d.mu.Lock()
	defer d.mu.Unlock()
	r, ok := d.regions[base]
	if !ok {
		return
	}
	r.lastTouch = now
	r.observeHeat(1, now)
}

// observeHeat folds one scan sample — the referenced fraction of the
// sampled pages, 0..1 — into the region's heat EWMA at now, stamping
// hotSince when the region turns hot. The caller holds the daemon's mu.
func (r *region) observeHeat(sample float64, now sim.Time) {
	was := r.heat
	r.heat = heatDecay*r.heat + (1-heatDecay)*sample
	if was < promoteThreshold && r.heat >= promoteThreshold {
		r.hotSince = now
	}
}

// Stop asks the daemon to shut down. The daemon process drains every
// in-flight migration before exiting and closing its device, so no
// request is ever leaked — Audit stays clean even when Stop races a
// migration storm.
func (d *Daemon) Stop() {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.stop = true
}

// Metrics returns the daemon's snapshot: counters, histograms, stage
// spans and the flight recorder.
func (d *Daemon) Metrics() MetricsSnapshot {
	return MetricsSnapshot{
		Promotions:        d.m.promotions.Load(),
		Demotions:         d.m.demotions.Load(),
		ZeroCopyDemotions: d.m.zeroCopy.Load(),
		Aborts:            d.m.aborts.Load(),
		Failed:            d.m.failed.Load(),
		BytesPromoted:     d.m.bytesPromoted.Load(),
		BytesDemoted:      d.m.bytesDemoted.Load(),
		BytesMoved:        d.m.bytesMoved.Load(),
		Latency:           d.m.latency.Snapshot(),
		Sizes:             d.m.sizes.Snapshot(),
		PromotionLag:      d.m.promoLag.Snapshot(),
		Stages:            d.rec.Spans(),
		Flight:            d.rec.FlightSnapshot(),
	}
}

// Outstanding reports how many tiering migrations are submitted and
// not yet retrieved.
func (d *Daemon) Outstanding() int {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.outstanding
}

// stopping reports whether Stop was called.
func (d *Daemon) stopping() bool {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.stop
}

// usage returns the fast node's used fraction.
func (d *Daemon) usage() float64 {
	node := d.dev.M.Mem.Node(fastNode)
	return float64(d.dev.M.Mem.Used(fastNode)) / float64(node.Capacity)
}

// tier reports which node the region currently resides on (the node of
// its first page's frame), or -1 if unmapped.
func (d *Daemon) tier(r *region) hw.NodeID {
	f := d.dev.AS.FrameAt(r.base)
	if f == nil {
		return -1
	}
	return f.Node
}

// cookie packs a region base and the migration direction into a request
// cookie; bases are page aligned, so the low bit is free.
func cookie(base int64, promote bool) uint64 {
	c := uint64(base)
	if promote {
		c |= 1
	}
	return c
}

// scan runs one access-bit sampling pass over (a budgeted, rotating
// subset of) the registered regions and folds the referenced fraction
// into each region's heat EWMA.
func (d *Daemon) scan(p *sim.Proc) {
	d.mu.Lock()
	regs := make([]*region, 0, len(d.regions))
	for _, r := range d.regions {
		regs = append(regs, r)
	}
	d.mu.Unlock()
	if len(regs) == 0 {
		return
	}
	sort.Slice(regs, func(i, j int) bool { return regs[i].base < regs[j].base })
	budget := d.opts.ScanBudget
	if budget <= 0 || budget > len(regs) {
		budget = len(regs)
	}
	as := d.dev.AS
	pb := as.PageBytes
	for i := 0; i < budget; i++ {
		r := regs[(d.scanCursor+i)%len(regs)]
		pages := int(r.length / pb)
		if pages == 0 {
			continue
		}
		n := samplePages
		if n > pages {
			n = pages
		}
		d.mu.Lock()
		off := r.scanOff % pages
		r.scanOff = (off + n) % pages
		d.mu.Unlock()
		if off+n > pages {
			n = pages - off
		}
		ref, _, sampled := as.ScanAccessBits(p, as.VPN(r.base)+uint64(off), n)
		if sampled == 0 {
			continue
		}
		// A young bit can only be read as referenced once the scanner
		// armed it: the first full rotation over a region primes the
		// bits and contributes no heat (a fresh mmap or a migration
		// release leaves young clear without any access having happened).
		rotations := (pages + n - 1) / n
		d.mu.Lock()
		if r.primePasses < rotations {
			r.primePasses++
		} else {
			sample := float64(ref) / float64(sampled)
			r.observeHeat(sample, p.Now())
			if sample > 0 {
				r.lastTouch = p.Now()
			}
		}
		d.mu.Unlock()
	}
	d.scanCursor = (d.scanCursor + budget) % len(regs)
}

// plan snapshots, under the lock, the demotion candidates (fast-tier,
// coldest first; ties by last touch, then base — the deterministic-order
// fix) and promotion candidates (slow-tier, hot, hottest first; ties by
// how long they have been hot, then base).
func (d *Daemon) plan() (demote, promote []*region) {
	d.mu.Lock()
	defer d.mu.Unlock()
	for _, r := range d.regions {
		if r.migrating {
			continue
		}
		switch d.tier(r) {
		case fastNode:
			demote = append(demote, r)
		case slowNode:
			if r.heat >= promoteThreshold {
				promote = append(promote, r)
			}
		}
	}
	sort.Slice(demote, func(i, j int) bool {
		a, b := demote[i], demote[j]
		if a.heat != b.heat {
			return a.heat < b.heat
		}
		if a.lastTouch != b.lastTouch {
			return a.lastTouch < b.lastTouch
		}
		return a.base < b.base
	})
	sort.Slice(promote, func(i, j int) bool {
		a, b := promote[i], promote[j]
		if a.heat != b.heat {
			return a.heat > b.heat
		}
		if a.hotSince != b.hotSince {
			return a.hotSince < b.hotSince
		}
		return a.base < b.base
	})
	return demote, promote
}

// submit issues one transactional tiering migration for r.
func (d *Daemon) submit(p *sim.Proc, r *region, promote bool) bool {
	req := d.dev.AllocRequest(p)
	if req == nil {
		return false
	}
	req.Op = uapi.OpMigrate
	req.SrcBase, req.Length = r.base, r.length
	req.Cookie = cookie(r.base, promote)
	req.Flags = uapi.ReqTxn
	if promote {
		req.DstNode = fastNode
		req.Class = promoteClass
		// Non-exclusive tiering: keep the slow copy for free demotion.
		req.Flags |= uapi.ReqKeepSrc
	} else {
		req.DstNode = slowNode
		req.Class = demoteClass
	}
	if err := d.dev.Submit(p, req); err != nil {
		d.dev.FreeRequest(p, req)
		return false
	}
	d.mu.Lock()
	r.migrating = true
	d.outstanding++
	if promote {
		d.pendingDelta += r.length
	} else {
		d.pendingDelta -= r.length
		d.demotionLog = append(d.demotionLog, r.base)
	}
	d.mu.Unlock()
	return true
}

// pump issues tiering work for one period: pressure demotion down to the
// low watermark when usage crossed the high one, make-room demotion for
// hotter promotion candidates, then promotions while headroom lasts.
func (d *Daemon) pump(p *sim.Proc) {
	capacity := float64(d.dev.M.Mem.Node(fastNode).Capacity)
	demote, promote := d.plan()

	projected := func() float64 {
		d.mu.Lock()
		delta := d.pendingDelta
		d.mu.Unlock()
		return d.usage() + float64(delta)/capacity
	}
	room := func() bool {
		d.mu.Lock()
		ok := d.outstanding < d.opts.MaxInflight
		d.mu.Unlock()
		return ok
	}

	// Pressure demotion: over the high watermark, shed coldest-first
	// down to the low one.
	di := 0
	if projected() >= d.opts.HighWatermark {
		for projected() > d.opts.LowWatermark && di < len(demote) && room() {
			d.submit(p, demote[di], false)
			di++
		}
	}

	// Promotion, with make-room demotion: a hot slow region may displace
	// a strictly colder fast region even below the high watermark.
	for _, hot := range promote {
		if !room() {
			break
		}
		need := float64(hot.length) / capacity
		for projected()+need > d.opts.HighWatermark && di < len(demote) && room() {
			cold := demote[di]
			if cold.heat >= hot.heat {
				break // nothing colder than the promotion candidate
			}
			d.submit(p, cold, false)
			di++
		}
		if projected()+need > d.opts.HighWatermark || !room() {
			continue
		}
		d.submit(p, hot, true)
	}
}

// handleCompletion books one finished tiering migration.
func (d *Daemon) handleCompletion(p *sim.Proc, got *uapi.MovReq) {
	promoted := got.Cookie&1 == 1
	base := int64(got.Cookie &^ 1)
	d.mu.Lock()
	r := d.regions[base]
	var hotSince sim.Time
	if r != nil {
		r.migrating = false
		hotSince = r.hotSince
	}
	d.outstanding--
	if promoted {
		d.pendingDelta -= got.Length
	} else {
		d.pendingDelta += got.Length
	}
	inflight := int64(d.outstanding)
	d.mu.Unlock()

	if got.Status == uapi.StatusDone {
		var lag int64
		if promoted {
			d.m.promotions.Inc()
			d.m.bytesPromoted.Add(got.Length)
			if hotSince > 0 {
				lag = int64(got.Completed - hotSince)
				d.m.promoLag.Observe(lag)
			}
		} else {
			d.m.demotions.Inc()
			d.m.bytesDemoted.Add(got.Length)
			if got.MovedBytes == 0 {
				d.m.zeroCopy.Inc()
			}
		}
		d.m.bytesMoved.Add(got.MovedBytes)
		lat := int64(got.Latency())
		d.m.latency.Observe(lat)
		d.m.sizes.Observe(got.Length)
		// The daemon's congestion picture is its in-flight migration
		// count; the queue-depth slots of Ambient don't apply to the sim
		// device.
		lc := lifecycle.Lifecycle{
			Nano:      int64(got.Completed),
			Slot:      -1,
			Class:     int(got.Class),
			Bytes:     got.Length,
			LatencyNs: lat,
			TS:        got.Stamps(),
			Ambient:   lifecycle.Ambient{SubmissionDepth: inflight},
		}
		d.rec.Finish(nil, &lc, true)
		if lag > 0 {
			// A promotion's lag is a second latency on the same stamp
			// vector: judged on its own lane, no spans of its own.
			lc.Reason, lc.Class, lc.LatencyNs = lifecycle.ReasonPromotionLag, promotionLagLane, lag
			d.rec.Finish(nil, &lc, false)
		}
	} else {
		// Only a racing write that dirtied a page (txn-dirty) aborts a
		// commit; a claim held by another mover (busy) or an empty
		// destination node (nomem) is a plain failure. Either way the
		// region stays put and is bumped in recency, so cold candidates
		// go first on retry.
		if got.Err == uapi.ErrTxnDirty {
			d.m.aborts.Inc()
			d.rec.CaptureEvent(&lifecycle.Lifecycle{
				Reason:  lifecycle.ReasonTxnAbort,
				Nano:    int64(p.Now()),
				Slot:    -1,
				Class:   int(got.Class),
				Bytes:   got.Length,
				Ambient: lifecycle.Ambient{SubmissionDepth: inflight},
			})
		} else {
			d.m.failed.Inc()
		}
		if r != nil {
			d.mu.Lock()
			r.lastTouch = p.Now()
			d.mu.Unlock()
		}
	}
	d.dev.FreeRequest(p, got)
}

// promotionLagLane is the flight-recorder class lane carrying the
// region-hot-to-promotion-committed latency, one past the QoS classes
// so migration latency and promotion lag train separate thresholds.
const promotionLagLane = 3

// drain retrieves finished migrations. With block set it waits until no
// migration remains outstanding — the shutdown path, so Stop can never
// leak an in-flight request.
func (d *Daemon) drain(p *sim.Proc, block bool) {
	for {
		got := d.dev.RetrieveCompleted(p)
		if got != nil {
			d.handleCompletion(p, got)
			continue
		}
		if !block || d.Outstanding() == 0 {
			return
		}
		d.dev.Poll(p, d.opts.PeriodNS)
	}
}

// run is the daemon process: scan heat on its cadence, pump tiering work
// each period, retrieve completions, and on Stop drain everything before
// closing the device.
func (d *Daemon) run(p *sim.Proc) {
	defer d.dev.Close()
	var lastScan sim.Time
	for {
		p.SleepNS(d.opts.PeriodNS)
		d.drain(p, false)
		if d.stopping() {
			break
		}
		if lastScan == 0 || int64(p.Now()-lastScan) >= d.opts.ScanPeriodNS {
			d.scan(p)
			lastScan = p.Now()
		}
		d.pump(p)
	}
	d.drain(p, true)
}
