package main

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/rand"
	"slices"
	"time"

	"memif/internal/core"
	"memif/internal/dma"
	"memif/internal/hw"
	"memif/internal/linuxmig"
	"memif/internal/machine"
	"memif/internal/sim"
	"memif/internal/stats"
	"memif/internal/uapi"
	"memif/internal/vm"
)

// movePhase is one Fig 8-shaped request stream: reqs requests of pages
// pages of pageBytes each, moveWindow of them in flight.
type movePhase struct {
	name      string
	op        uapi.Op
	pageBytes int64
	pages     int
	reqs      int
}

// moveWindow is the number of requests kept in flight, as in the
// repository's Fig 8 experiment.
const moveWindow = 4

// maxGapNS bounds the seeded compute gap between retrieving a request
// and submitting the next on its buffer: memif's callers submit,
// compute and poll (paper Fig 2).
const maxGapNS = 2000

func movePhases(small bool) []movePhase {
	// Sized so the three phases take about a third of a host second
	// each: driver CPU phases dominate the first, the DMA copy the last.
	n := []int{12000, 6000, 1500}
	if small {
		n = []int{200, 100, 100}
	}
	return []movePhase{
		{"4k16", uapi.OpMigrate, hw.Page4K, 16, n[0]},
		{"64k4", uapi.OpReplicate, hw.Page64K, 4, n[1]},
		{"2m1", uapi.OpMigrate, hw.Page2M, 1, n[2]},
	}
}

func runSimMove(cfg config) (*result, error) {
	phases := movePhases(cfg.small)
	res, err := runSimReps(cfg, "core", func(tr *tracer, repIdx int) (simRep, error) {
		return moveRep(cfg, phases, tr, repIdx)
	})
	if err != nil || !cfg.trace {
		return res, err
	}
	// Reference: the same three phases through the Linux baseline.
	var lb, lv, lcpu int64
	for _, ph := range phases {
		b, v, c, err := linuxPhase(cfg, ph)
		if err != nil {
			return nil, err
		}
		lb, lv, lcpu = lb+b, lv+v, lcpu+c
		res.layer["core.speedup_vs_linuxmig_"+ph.name] = res.layer["core.gb_s_virt_"+ph.name] / (float64(b) / float64(v))
		delete(res.layer, "core.gb_s_virt_"+ph.name)
	}
	res.layer["linuxmig.gb_s_virt"] = float64(lb) / float64(lv)
	res.layer["linuxmig.cpu_frac_virt"] = float64(lcpu) / float64(lv)
	return res, nil
}

// moveRegion is one ping-pong buffer of a phase.
type moveRegion struct {
	src, dst int64     // dst is 0 for a migration
	loc      hw.NodeID // where src lives now
	want     []byte    // expected contents
}

// moveRep runs the three phases once, each on a fresh machine.
func moveRep(cfg config, phases []movePhase, tr *tracer, repIdx int) (simRep, error) {
	rep := simRep{layer: make(map[string]float64)}
	t0 := tr.now()
	tr.begin(t0, uint64(max(repIdx, 0)))
	var lat []int64
	var acc *coreLayerAcc
	if tr != nil {
		acc = &coreLayerAcc{}
	}
	for pi, ph := range phases {
		// Every repetition replays the same seeded inputs. The seed
		// also stretches the phase by up to 1/32 of its requests, so
		// no two seeds stream exactly the same amount of work.
		rng := rand.New(rand.NewSource(cfg.seed*31 + int64(pi)))
		ph.reqs += rng.Intn(ph.reqs/32 + 1)
		if err := movePhaseRun(cfg, ph, rng, tr, &rep, &lat, acc); err != nil {
			return rep, fmt.Errorf("sim_move phase %s: %w", ph.name, err)
		}
	}
	tr.end(tr.now(), int(rep.ops))
	slices.Sort(lat)
	rep.samples = len(lat)
	if rep.samples > 0 {
		rep.p50, rep.p99 = percentile(lat, 0.50), percentile(lat, 0.99)
	}
	rep.digest = fold(fold(rep.digest, rep.p50), rep.p99)
	if tr != nil {
		acc.report(rep.layer, rep.ops, rep.virtNS)
	}
	return rep, nil
}

// movePhaseRun builds a machine, maps and fills the regions, warms up,
// streams the measured requests and verifies what they moved.
func movePhaseRun(cfg config, ph movePhase, rng *rand.Rand, tr *tracer, rep *simRep, lat *[]int64, acc *coreLayerAcc) error {
	setupStart := time.Now()
	m := machine.New(simPlatform()) // carries real data, so moved bytes can be compared
	as := m.NewAddressSpace(ph.pageBytes)
	opts := core.DefaultOptions()
	opts.NumReqs = 256
	d := core.Open(m, as, opts)
	reqBytes := int64(ph.pages) * ph.pageBytes
	var runErr error
	fail := func(format string, args ...any) {
		rep.failed++
		if len(rep.errs) < 8 {
			rep.errs = append(rep.errs, ph.name+": "+fmt.Sprintf(format, args...))
		}
	}

	m.Eng.Spawn("app", func(p *sim.Proc) {
		defer d.Close()
		regions, err := moveSetup(p, as, ph, reqBytes, rng, tr)
		if err != nil {
			runErr = err
			return
		}
		var stamp uint64
		submit := func(i int) bool {
			rg := &regions[i]
			// Stamp the source so a skipped or stale copy cannot pass.
			stamp++
			binary.LittleEndian.PutUint64(rg.want, stamp)
			if err := as.Write(p, rg.src, rg.want[:8]); err != nil {
				fail("stamp write: %v", err)
				return false
			}
			ts := tr.now()
			r := d.AllocRequest(p)
			t1 := tr.now()
			tr.add(spanAlloc, ts, t1, stamp, 1)
			rep.attempted++
			if r == nil {
				fail("out of mov_req slots")
				return false
			}
			r.Op, r.SrcBase, r.DstBase, r.Length, r.Cookie = ph.op, rg.src, rg.dst, reqBytes, uint64(i)
			if ph.op == uapi.OpMigrate {
				r.DstNode = hw.NodeFast
				if rg.loc == hw.NodeFast {
					r.DstNode = hw.NodeSlow
				}
				rg.loc = r.DstNode
			} else {
				r.DstNode = hw.NodeFast
			}
			err := d.Submit(p, r)
			tr.add(spanSubmit, t1, tr.now(), stamp, 1)
			if err != nil {
				fail("submit: %v", err)
				d.FreeRequest(p, r)
				return false
			}
			return true
		}
		// retrieve polls once and drains every pending completion,
		// calling done for each; it returns how many it drained.
		var word [8]byte
		retrieve := func(measured bool, done func(i int)) int {
			ts := tr.now()
			ok := d.Poll(p, 0)
			t1 := tr.now()
			tr.add(spanPoll, ts, t1, 0, 0)
			if !ok {
				fail("poll gave up")
				return -1
			}
			n := 0
			for {
				ts = tr.now()
				r := d.RetrieveCompleted(p)
				t1 = tr.now()
				if r == nil {
					return n
				}
				tr.add(spanRetrieve, ts, t1, r.Cookie, 1)
				n++
				i := int(r.Cookie)
				rg := &regions[i]
				at := rg.src
				if ph.op == uapi.OpReplicate {
					at = rg.dst
				}
				switch err := as.Read(p, at, word[:]); {
				case r.Status != uapi.StatusDone || r.Err != uapi.ErrNone:
					fail("request failed: %v", r)
				case err != nil || !bytes.Equal(word[:], rg.want[:8]):
					fail("region %d: stamp not moved (%v)", i, err)
				case ph.op == uapi.OpMigrate && as.FrameAt(at).Node != rg.loc:
					fail("region %d: page still on node %d", i, as.FrameAt(at).Node)
				case !stampsClose(r):
					fail("stage stamps do not close: %v", r)
				default:
					if measured {
						rep.ops++
						rep.bytes += r.Length
						*lat = append(*lat, int64(r.Completed-r.Submitted))
						rep.digest = fold(rep.digest, int64(r.Completed-r.Submitted))
						acc.observe(r)
					}
				}
				ts = tr.now()
				d.FreeRequest(p, r)
				tr.add(spanFree, ts, tr.now(), r.Cookie, 1)
				done(i)
			}
		}

		// Warm-up: one request per region, unmeasured.
		for i := range regions {
			if !submit(i) {
				return
			}
		}
		for got := 0; got < len(regions); {
			n := retrieve(false, func(int) {})
			if n < 0 {
				return
			}
			got += n
		}
		rep.attempted -= int64(len(regions)) // warm-up operations are not counted

		// Measured stream.
		acc.start(d, m.DMA)
		rep.setupHost += time.Since(setupStart)
		host0, cpu0, virt0 := time.Now(), cpuTime(), p.Now()
		issued := 0
		for i := 0; i < len(regions) && issued < ph.reqs; i++ {
			if !submit(i) {
				return
			}
			issued++
		}
		for doneN := 0; doneN < ph.reqs; {
			n := retrieve(true, func(i int) {
				if issued < ph.reqs {
					p.SleepNS(rng.Int63n(maxGapNS)) // the caller computes, then reuses the buffer
					if submit(i) {
						issued++
					}
				}
			})
			if n < 0 || rep.failed > 0 {
				return
			}
			doneN += n
		}
		virt := int64(p.Now() - virt0)
		rep.host += time.Since(host0)
		rep.cpu += cpuTime() - cpu0
		rep.virtNS += virt
		rep.digest = fold(rep.digest, virt)
		acc.stop(d, m.DMA)
		if tr != nil {
			// Kept only until runSimMove divides it by the Linux baseline's.
			rep.layer["core.gb_s_virt_"+ph.name] = float64(int64(ph.reqs)*reqBytes) / float64(virt)
		}

		if cfg.check {
			ts := tr.now()
			moveVerify(p, as, d, ph, regions, reqBytes, rep, fail)
			tr.add(spanVerify, ts, tr.now(), 0, len(regions))
		}
	})
	ts := tr.now()
	m.Eng.Run()
	tr.add(spanRun, ts, tr.now(), 0, 0)
	return runErr
}

// stampsClose checks the request's stage stamps: all present, in
// order, so the five uapi spans sum exactly to Retrieved−Submitted.
func stampsClose(r *uapi.MovReq) bool {
	s := [...]sim.Time{r.Submitted, r.Flushed, r.Dispatched, r.CopyStart, r.Completed, r.Retrieved}
	var sum sim.Time
	for i := 1; i < len(s); i++ {
		if s[i] < s[i-1] || s[i] == 0 {
			return false
		}
		sum += s[i] - s[i-1]
	}
	return sum == r.Retrieved-r.Submitted
}

// moveSetup maps the phase's regions at a seeded layout and fills them
// with seeded contents.
func moveSetup(p *sim.Proc, as *vm.AddressSpace, ph movePhase, reqBytes int64, rng *rand.Rand, tr *tracer) ([]moveRegion, error) {
	mmap := func(n int64, node hw.NodeID, name string) (int64, error) {
		ts := tr.now()
		base, err := as.Mmap(p, n, node, name)
		tr.add(spanMmap, ts, tr.now(), 0, 1)
		return base, err
	}
	pattern := make([]byte, reqBytes)
	rng.Read(pattern)
	regions := make([]moveRegion, moveWindow)
	for i := range regions {
		// Seeded layout: a pad of 0-3 pages shifts where the region
		// falls in its page-table leaf.
		if pad := rng.Int63n(4); pad > 0 {
			if _, err := mmap(pad*ph.pageBytes, hw.NodeSlow, "pad"); err != nil {
				return nil, err
			}
		}
		rg := &regions[i]
		rg.loc = hw.NodeSlow
		var err error
		if rg.src, err = mmap(reqBytes, hw.NodeSlow, "src"); err != nil {
			return nil, err
		}
		if ph.op == uapi.OpReplicate {
			if rg.dst, err = mmap(reqBytes, hw.NodeFast, "dst"); err != nil {
				return nil, err
			}
		}
		rg.want = slices.Clone(pattern)
		for off := int64(8); off+8 <= reqBytes; off += stampStride {
			binary.LittleEndian.PutUint64(rg.want[off:], rng.Uint64())
		}
		ts := tr.now()
		err = as.Write(p, rg.src, rg.want)
		tr.add(spanFill, ts, tr.now(), uint64(i), 1)
		if err != nil {
			return nil, err
		}
	}
	return regions, nil
}

// moveVerify compares every region's final bytes with what was
// written, and audits the interface area: every slot back on the free
// list.
func moveVerify(p *sim.Proc, as *vm.AddressSpace, d *core.Device, ph movePhase, regions []moveRegion, reqBytes int64, rep *simRep, fail func(string, ...any)) {
	buf := make([]byte, reqBytes)
	for i, rg := range regions {
		at := rg.src
		if ph.op == uapi.OpReplicate {
			at = rg.dst
		}
		rep.attempted++
		if err := as.Read(p, at, buf); err != nil || !bytes.Equal(buf, rg.want) {
			fail("region %d: final bytes differ from what was written (%v)", i, err)
		}
	}
	rep.attempted++
	if err := d.Area.Audit(nil); err != nil {
		fail("area audit: %v", err)
	}
}

// linuxPhase streams a tenth of the phase's requests through the
// synchronous mbind() baseline and returns bytes moved, virtual ns and
// CPU-busy virtual ns.
func linuxPhase(cfg config, ph movePhase) (moved, virt, cpu int64, err error) {
	m := machine.New(simPlatform())
	m.Mem.DisableData() // reference timing only; the baseline's bytes are covered by its own tests
	as := m.NewAddressSpace(ph.pageBytes)
	mg := linuxmig.New(m, as)
	reqBytes := int64(ph.pages) * ph.pageBytes
	n := max(ph.reqs/10, 8)
	m.Eng.Spawn("app", func(p *sim.Proc) {
		regions := make([]int64, moveWindow)
		loc := make([]hw.NodeID, moveWindow)
		for i := range regions {
			if regions[i], err = as.Mmap(p, reqBytes, hw.NodeSlow, "r"); err != nil {
				return
			}
		}
		flip := func(i int) {
			dst := hw.NodeFast
			if loc[i] == hw.NodeFast {
				dst = hw.NodeSlow
			}
			if e := mg.MBind(p, regions[i], reqBytes, dst); e != nil && err == nil {
				err = e
			}
			loc[i] = dst
		}
		for i := range regions {
			flip(i)
		}
		start, busy0 := p.Now(), mg.Meter.Busy()
		for r := 0; r < n && err == nil; r++ {
			flip(r % moveWindow)
		}
		virt, cpu = int64(p.Now()-start), int64(mg.Meter.Busy()-busy0)
	})
	m.Eng.Run()
	return int64(n) * reqBytes, virt, cpu, err
}

// Indices into coreLayerAcc's counter vector, after the seven Table 1
// phases (stats.AllPhases order).
const (
	mcUser = iota + 7
	mcKern
	mcDMABusy
	mcSyscalls
	mcWakes
	mcTransfers
	mcDMABytes
	mcDescFull
	mcDescReused
	mcIRQs
	mcBypass
	mcCount
)

// coreCounters reads every cumulative counter the per-layer metrics
// are deltas of.
func coreCounters(d *core.Device, e *dma.Engine) [mcCount]int64 {
	var c [mcCount]int64
	for i, name := range stats.AllPhases {
		c[i] = int64(d.Breakdown.Get(name))
	}
	st, ds := d.Stats(), e.Stats()
	c[mcUser], c[mcKern], c[mcDMABusy] = int64(d.UserMeter.Busy()), int64(d.KernMeter.Busy()), int64(e.Meter.Busy())
	c[mcSyscalls], c[mcWakes] = st.Syscalls, st.WorkerWakes
	c[mcTransfers], c[mcDMABytes], c[mcIRQs], c[mcBypass] = ds.Transfers, ds.BytesMoved, ds.IRQs, ds.PriorityBypasses
	c[mcDescFull], c[mcDescReused] = ds.DescWritesFull, ds.DescWritesReused
	return c
}

// coreLayerAcc accumulates the per-layer numbers of one traced
// repetition across its three phases. A nil accumulator (untraced
// repetition) records nothing.
type coreLayerAcc struct {
	at0   [mcCount]int64
	total [mcCount]int64
	spans [5][]int64 // uapi stage spans, virtual ns
}

func (a *coreLayerAcc) start(d *core.Device, e *dma.Engine) {
	if a != nil {
		a.at0 = coreCounters(d, e)
	}
}

func (a *coreLayerAcc) stop(d *core.Device, e *dma.Engine) {
	if a == nil {
		return
	}
	for i, v := range coreCounters(d, e) {
		a.total[i] += v - a.at0[i]
	}
}

// observe records one request's five stage spans.
func (a *coreLayerAcc) observe(r *uapi.MovReq) {
	if a == nil {
		return
	}
	s := [...]sim.Time{r.Submitted, r.Flushed, r.Dispatched, r.CopyStart, r.Completed, r.Retrieved}
	for i := range a.spans {
		a.spans[i] = append(a.spans[i], int64(s[i+1]-s[i]))
	}
}

func (a *coreLayerAcc) report(out map[string]float64, ops, virt int64) {
	n, v := float64(ops), float64(virt)
	t := func(i int) float64 { return float64(a.total[i]) }
	for i, name := range stats.AllPhases {
		out["core.phase_"+name+"_us_virt"] = t(i) / n / 1e3
	}
	out["core.cpu_user_frac_virt"] = t(mcUser) / v
	out["core.cpu_kern_frac_virt"] = t(mcKern) / v
	out["core.syscalls_per_req"] = t(mcSyscalls) / n
	out["core.worker_wakes_per_req"] = t(mcWakes) / n
	for i, name := range [...]string{"staging_wait", "dispatch_wait", "prep", "copy_release", "dwell"} {
		if len(a.spans[i]) > 0 {
			slices.Sort(a.spans[i])
			out["uapi."+name+"_p50_us_virt"] = float64(percentile(a.spans[i], 0.5)) / 1e3
		}
	}
	out["dma.busy_frac_virt"] = t(mcDMABusy) / v
	if w := t(mcDescFull) + t(mcDescReused); w > 0 {
		out["dma.desc_reuse_frac"] = t(mcDescReused) / w
	}
	out["dma.irqs_per_req"] = t(mcIRQs) / n
	if t(mcTransfers) > 0 {
		out["dma.bytes_per_transfer"] = t(mcDMABytes) / t(mcTransfers)
	}
	out["dma.priority_bypasses"] = t(mcBypass)
}
