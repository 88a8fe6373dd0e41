package core

import (
	"fmt"
	"testing"

	"memif/internal/dma"
	"memif/internal/hw"
	"memif/internal/machine"
	"memif/internal/sim"
	"memif/internal/uapi"
)

// The train (startTrain): directed tests for a bulk request moving as
// sub-transfers of one channelQuantum. Everything is counted in virtual
// time; TestPipelineSweep explores the same windows at random.

// onChannel counts the sub-transfers of inf the engine still has to
// finish.
func onChannel(inf *inflight) int {
	n := 0
	for _, tr := range inf.subs {
		if s := tr.State(); s == dma.StateQueued || s == dma.StateActive {
			n++
		}
	}
	return n
}

// channelHog is a sibling device on an address space of 2 MiB pages: once
// start is set it replicates two of them, one Foreground transfer that
// holds the channel for ~760 µs. holding reports the transfer started,
// released that the sibling's frames are unmapped again (auditQuiesced
// counts every frame of the machine).
type channelHog struct{ start, holding, released bool }

func hogChannel(t *testing.T, m *machine.Machine) *channelHog {
	h := &channelHog{}
	d := Open(m, m.NewAddressSpace(hw.Page2M), DefaultOptions())
	m.Eng.Spawn("hog", func(p *sim.Proc) {
		defer d.Close()
		const n = 2 * hw.Page2M
		src, _ := d.AS.Mmap(p, n, hw.NodeSlow, "src")
		dst, _ := d.AS.Mmap(p, n, hw.NodeFast, "dst")
		for !h.start {
			p.SleepNS(1000)
		}
		r := newReplicate(d, p, uapi.ClassForeground, src, dst, n)
		if err := d.Submit(p, r); err != nil { // returns with the transfer started
			t.Error(err)
		}
		h.holding = true
		d.Poll(p, 0)
		for _, base := range []int64{src, dst} {
			if err := d.AS.Munmap(p, base); err != nil {
				t.Error(err)
			}
		}
		h.released = true
	})
	return h
}

// newReplicate and newMigrate allocate a request of class c.
func newReplicate(d *Device, p *sim.Proc, c uapi.Class, src, dst, n int64) *uapi.MovReq {
	r := d.AllocRequest(p)
	r.Op, r.SrcBase, r.DstBase, r.Length, r.Class = uapi.OpReplicate, src, dst, n, c
	return r
}

func newMigrate(d *Device, p *sim.Proc, c uapi.Class, base, n int64, node hw.NodeID) *uapi.MovReq {
	r := d.AllocRequest(p)
	r.Op, r.SrcBase, r.Length, r.DstNode, r.Class = uapi.OpMigrate, base, n, node, c
	return r
}

// A Foreground page submitted on a sibling device while a 512 KiB
// Background fill is mid-train waits for at most the sub-transfer that
// holds the channel: its latency stays within one quantum of its
// uncontended latency. (As one 96 µs transfer the fill held it ~80 µs
// longer.)
func TestBulkTrainYieldsToForeground(t *testing.T) {
	m, bulk := newRig(t, DefaultOptions())
	fg := Open(m, bulk.AS, DefaultOptions())
	fg.idleGrace = 0 // every probe takes the syscall path: one timeline
	const fillBytes = 512 << 10
	var (
		baselineDone     bool
		alone, contended sim.Time
		probe, fillReq   *uapi.MovReq
		trainSubs        int
	)
	bulk.subStarted = func(inf *inflight) { trainSubs = len(inf.subs) }
	m.Eng.Spawn("fg", func(p *sim.Proc) {
		defer fg.Close()
		page, err := fg.AS.Mmap(p, 4096, hw.NodeSlow, "probe")
		if err != nil {
			t.Fatal(err)
		}
		migrate := func(node hw.NodeID) *uapi.MovReq {
			r := submitAndWait(t, fg, p, newMigrate(fg, p, uapi.ClassForeground, page, 4096, node))
			if r.Status != uapi.StatusDone {
				t.Fatalf("probe: %v", r)
			}
			fg.FreeRequest(p, r)
			p.SleepNS(50_000) // the worker is asleep again, the staging queue blue
			return r
		}
		migrate(hw.NodeFast) // writes the descriptor the later probes reuse
		migrate(hw.NodeSlow)
		r := migrate(hw.NodeFast)
		alone = r.Completed - r.Submitted
		migrate(hw.NodeSlow)
		idle := m.DMA.Meter.Busy()
		baselineDone = true
		for m.DMA.Meter.Busy() == idle { // the fill's first transfer took the channel
			p.SleepNS(100)
		}
		probe = migrate(hw.NodeFast)
		contended = probe.Completed - probe.Submitted
	})
	m.Eng.Spawn("bulk", func(p *sim.Proc) {
		defer bulk.Close()
		src, _ := bulk.AS.Mmap(p, fillBytes, hw.NodeSlow, "src")
		dst, _ := bulk.AS.Mmap(p, fillBytes, hw.NodeFast, "dst")
		fill(t, bulk, p, src, fillBytes, 11)
		for !baselineDone {
			p.SleepNS(1000)
		}
		fillReq = submitAndWait(t, bulk, p, newReplicate(bulk, p, uapi.ClassBackground, src, dst, fillBytes))
		if fillReq.Status != uapi.StatusDone {
			t.Fatalf("fill: %v", fillReq)
		}
		check(t, bulk, p, dst, fillBytes, 11)
	})
	m.Eng.Run()
	if probe == nil || fillReq == nil {
		t.Fatal("scenario did not run")
	}
	if want := fillBytes / channelQuantum; trainSubs != want {
		t.Errorf("fill moved as %d sub-transfers, want %d", trainSubs, want)
	}
	if !(fillReq.Submitted < probe.Submitted && probe.Completed < fillReq.Completed) {
		t.Errorf("probe %v..%v did not run inside the fill %v..%v",
			probe.Submitted, probe.Completed, fillReq.Submitted, fillReq.Completed)
	}
	quantum := sim.Time(m.Plat.DMATransferNS(channelQuantum, hw.NodeSlow, hw.NodeFast))
	if contended > alone+quantum {
		t.Errorf("probe under the fill took %v, alone %v: more than one quantum (%v) over", contended, alone, quantum)
	}
	if irqs := m.DMA.Stats().IRQs; irqs != 6 {
		t.Errorf("IRQs = %d, want one per request (5 probes, 1 fill)", irqs)
	}
}

// A write traps into the recover handler while a Background migration is
// mid-train, on either serving context: sub-transfer 1 done, 2 copying,
// 3 (which holds the written page) being configured — or, with the
// channel held by a sibling, 1 and 2 queued and the serving context asleep
// until 1 is done. The handler drops what is started, the serving context
// drops the one it was writing and programs no more; the request completes
// once, as aborted, and nothing is left pinned, claimed or allocated.
func TestTrainAbortMidFlight(t *testing.T) {
	for _, tc := range []struct {
		name                 string
		viaWorker, contended bool
	}{
		{"worker", true, false},
		{"syscall", false, false},
		{"worker-waiting", true, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			opts := DefaultOptions()
			opts.RaceMode = RaceRecover
			m, d := newRig(t, opts)
			hog := &channelHog{released: true}
			if tc.contended {
				hog = hogChannel(t, m)
			}
			const pages, victim = 64, 40
			const n = pages * 4096
			var train *inflight
			var region int64
			wrote := false
			d.subStarted = func(inf *inflight) {
				if inf.req.Length == n {
					train = inf
				}
			}
			// The moment to write: two sub-transfers started, the second
			// copying — or, behind the hog, both still queued.
			first, second := dma.StateDone, dma.StateActive
			if tc.contended {
				first, second = dma.StateQueued, dma.StateQueued
			}
			m.Eng.Spawn("writer", func(p *sim.Proc) {
				for train == nil || len(train.subs) < 2 || train.subs[1].State() != second {
					p.SleepNS(100)
				}
				if s := train.subs[0].State(); s != first {
					t.Errorf("first sub-transfer is %v, want %v", s, first)
				}
				wrote = true
				// The byte fill put there, so the pattern survives the write.
				if err := d.AS.Write(p, region+victim*4096, []byte{17}); err != nil {
					t.Error(err)
				}
			})
			m.Eng.Spawn("app", func(p *sim.Proc) {
				defer d.Close()
				b := newBurst(t, d, p)
				region = b.mmap(n, hw.NodeSlow)
				fill(t, d, p, region, n, 17)
				if tc.viaWorker {
					b.kick()
					b.wait() // the worker lingers, awake
				}
				if tc.contended {
					hog.start = true
					b.waitFor("hog holds the channel", func() bool { return hog.holding })
				}
				mig := b.submit(newMigrate(d, p, uapi.ClassBackground, region, n, hw.NodeFast))
				b.wait()
				if !wrote {
					t.Fatal("request completed before the write landed")
				}
				if mig.Err != uapi.ErrAborted {
					t.Errorf("migration completed %v, want aborted", mig.Err)
				}
				if got := len(train.subs); got != 2 {
					t.Errorf("%d sub-transfers were started, want the two before the write", got)
				}
				for i, tr := range train.subs {
					if s := tr.State(); s != dma.StateDone && s != dma.StateAborted {
						t.Errorf("sub-transfer %d left %v", i, s)
					}
				}
				for _, s := range train.segs {
					if s.Src.Pinned() || s.Dst.Pinned() {
						t.Fatal("frame still pinned after the abort")
					}
				}
				check(t, d, p, region, n, 17)
				if f := d.AS.FrameAt(region); f.Node != hw.NodeSlow {
					t.Errorf("aborted region is on node %d", f.Node)
				}
				b.waitFor("hog unmapped", func() bool { return hog.released })
				b.audit()
				// The claim is gone with the request: the same move succeeds.
				again := b.submit(newMigrate(d, p, uapi.ClassBackground, region, n, hw.NodeFast))
				b.wait()
				if again.Err != uapi.ErrNone {
					t.Errorf("retry after the abort: %v", again.Err)
				}
				b.audit()
			})
			m.Eng.Run()
			if st := d.Stats(); st.Recovered != 1 {
				t.Errorf("recovered = %d, want 1", st.Recovered)
			}
			if m.Eng.Parked() != 0 {
				t.Errorf("%d processes leaked", m.Eng.Parked())
			}
		})
	}
}

// Two 256-page bulk requests and a foreground page at once, each served by
// its own context: on the real 512-slot PaRAM the trains never hold more
// than two chains each and nobody waits; on a 40-slot array they do run
// out, which is backpressure — every request still completes, none as
// ErrBadRequest.
func TestTrainDescriptorBackpressure(t *testing.T) {
	for _, slots := range []int{512, 40} {
		t.Run(fmt.Sprintf("%dslots", slots), func(t *testing.T) {
			plat := hw.KeyStoneII()
			plat.DMA.ParamSlots = slots
			m := machine.New(plat)
			as := m.NewAddressSpace(4096)
			const n = 256 * 4096
			devs := [3]*Device{}
			reqs := [3]*uapi.MovReq{}
			for i := range devs {
				i := i
				d := Open(m, as, DefaultOptions())
				devs[i] = d
				d.subStarted = func(inf *inflight) {
					if got := onChannel(inf); got > pipeDepth {
						t.Errorf("device %d: %d sub-transfers of one request on the channel", i, got)
					}
				}
				m.Eng.Spawn("app", func(p *sim.Proc) {
					defer d.Close()
					var r *uapi.MovReq
					switch i {
					case 0, 1:
						src, _ := as.Mmap(p, n, hw.NodeSlow, "src")
						dst, _ := as.Mmap(p, n, hw.NodeFast, "dst")
						fill(t, d, p, src, n, byte(30+i))
						p.SleepUntil(5_000_000) // all three start together
						r = newReplicate(d, p, uapi.Class(1+i), src, dst, n)
						defer func() { check(t, d, p, dst, n, byte(30+i)) }()
					case 2:
						page, _ := as.Mmap(p, 4096, hw.NodeSlow, "page")
						p.SleepUntil(5_000_000 + 40_000) // both trains are rolling
						r = newMigrate(d, p, uapi.ClassForeground, page, 4096, hw.NodeFast)
					}
					reqs[i] = submitAndWait(t, d, p, r)
				})
			}
			m.Eng.Run()
			for i, r := range reqs {
				if r == nil || r.Status != uapi.StatusDone {
					t.Errorf("request %d: %v", i, r)
				}
			}
			if !(reqs[2].Completed < reqs[0].Completed && reqs[2].Completed < reqs[1].Completed) {
				t.Error("the foreground page did not overtake the trains")
			}
			waits := m.DMA.Stats().SlotWaits
			if slots == 512 && waits != 0 {
				t.Errorf("%d waits for descriptor slots on the full-size array", waits)
			}
			if slots == 40 && waits == 0 {
				t.Error("the small array never ran out: backpressure not exercised")
			}
			if free, chains := m.DMA.FreeSlots(), m.DMA.Chains(); free > slots || chains == 0 {
				t.Errorf("%d free slots, %d chains after the drain", free, chains)
			}
		})
	}
}

// Close while a train is mid-flight, below the poll threshold (the
// worker's pipeline owns the request) and at it (the last sub-transfer's
// interrupt does): the rest of the train is still programmed, the request
// completes exactly once and the worker exits.
func TestCloseWithTrainInFlight(t *testing.T) {
	for _, pages := range []int64{64, 128} {
		t.Run(fmt.Sprintf("%dpages", pages), func(t *testing.T) {
			m, d := newRig(t, DefaultOptions())
			n := pages * 4096
			subs := 0
			d.subStarted = func(inf *inflight) {
				if inf.req.Length == n {
					subs = len(inf.subs)
				}
			}
			m.Eng.Spawn("app", func(p *sim.Proc) {
				b := newBurst(t, d, p)
				src, dst := b.mmap(n, hw.NodeSlow), b.mmap(n, hw.NodeFast)
				fill(t, d, p, src, n, 23)
				b.kick()
				rep := b.submit(newReplicate(d, p, uapi.ClassScavenger, src, dst, n))
				b.waitFor("train two sub-transfers in", func() bool { return subs == 2 })
				if rep.Status != uapi.StatusInFlight {
					t.Fatalf("request is %v mid-train", rep.Status)
				}
				d.Close()
				b.audit()
				if rep.Err != uapi.ErrNone {
					t.Errorf("replicate: %v", rep.Err)
				}
				check(t, d, p, dst, n, 23)
			})
			m.Eng.Run()
			if want := int(n / channelQuantum); subs != want {
				t.Errorf("train stopped at %d sub-transfers of %d", subs, want)
			}
			if m.Eng.Parked() != 0 {
				t.Errorf("%d processes leaked after close", m.Eng.Parked())
			}
			if st := d.Stats(); st.Completed != 2 || st.Failed != 0 {
				t.Errorf("stats = %+v, want the kick and the train completed", st)
			}
		})
	}
}

// BenchmarkBackgroundFill is the simulator's host cost of one 512 KiB
// Background replicate — the streaming runtime's fill — served by the
// worker: a train of eight must not cost eight requests' allocations
// (TestBackgroundFillAllocGate holds it to none).
func BenchmarkBackgroundFill(b *testing.B) {
	m := machine.New(hw.KeyStoneII())
	d := Open(m, m.NewAddressSpace(4096), DefaultOptions())
	m.Eng.Spawn("app", func(p *sim.Proc) {
		defer d.Close()
		src, _ := d.AS.Mmap(p, fillBytes, hw.NodeSlow, "src")
		dst, _ := d.AS.Mmap(p, fillBytes, hw.NodeFast, "dst")
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			backgroundFill(b, d, p, src, dst)
		}
	})
	m.Eng.Run()
}

// BenchmarkForegroundMigrate is the simulator's host cost of a 16-page
// Foreground migration, four in flight, each flipping its region between
// the nodes: the sim_move benchmark's 4k16 phase. With the bytes shared
// rather than copied (package phys), what is left is the driver's own
// per-page work.
func BenchmarkForegroundMigrate(b *testing.B) {
	m, l := newMoveLoop(uapi.OpMigrate, 4, 16, hw.Page4K)
	m.Eng.Spawn("app", func(p *sim.Proc) {
		defer l.d.Close()
		l.mmap(b, p)
		l.run(b, p, 8)
		b.ReportAllocs()
		b.ResetTimer()
		l.run(b, p, b.N)
	})
	m.Eng.Run()
}
