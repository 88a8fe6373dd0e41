package core

import (
	"fmt"
	"testing"

	"memif/internal/dma"
	"memif/internal/hw"
	"memif/internal/sim"
	"memif/internal/uapi"
)

// The worker's polled pipeline (worker.go): directed tests for the
// windows the overlap opens. TestPipelineSweep explores them at random.

// burst builds the tests' standard shape: once the regions are mapped, a
// throw-away one-page migration takes the kick-start syscall path, and
// every request submitted right behind it is served by the kernel worker
// its interrupt wakes.
type burst struct {
	t *testing.T
	d *Device
	p *sim.Proc

	kickPage  int64
	pages     []int64 // every page mapped, for auditQuiesced
	submitted int
	retrieved []*uapi.MovReq
}

func newBurst(t *testing.T, d *Device, p *sim.Proc) *burst {
	b := &burst{t: t, d: d, p: p}
	b.kickPage = b.mmap(4096, hw.NodeSlow)
	return b
}

func (b *burst) mmap(n int64, node hw.NodeID) int64 {
	b.t.Helper()
	base, err := b.d.AS.Mmap(b.p, n, node, "r")
	if err != nil {
		b.t.Fatal(err)
	}
	for off := int64(0); off < n; off += 4096 {
		b.pages = append(b.pages, base+off)
	}
	return base
}

// kick wakes the worker: the requests that follow ride behind it.
func (b *burst) kick() {
	node := hw.NodeFast
	if b.d.AS.FrameAt(b.kickPage).Node == hw.NodeFast {
		node = hw.NodeSlow
	}
	b.migrate(b.kickPage, 4096, node)
}

func (b *burst) submit(r *uapi.MovReq) *uapi.MovReq {
	b.t.Helper()
	if err := b.d.Submit(b.p, r); err != nil {
		b.t.Fatal(err)
	}
	b.submitted++
	return r
}

func (b *burst) migrate(base, n int64, node hw.NodeID) *uapi.MovReq {
	return b.submit(newMigrate(b.d, b.p, uapi.ClassForeground, base, n, node))
}

func (b *burst) replicate(src, dst, n int64) *uapi.MovReq {
	return b.submit(newReplicate(b.d, b.p, uapi.ClassForeground, src, dst, n))
}

// wait retrieves every submitted request, leaving the records intact for
// the test to inspect. It sleeps instead of polling so that it also works
// on a closed device.
func (b *burst) wait() {
	b.t.Helper()
	for waited := 0; len(b.retrieved) < b.submitted; {
		if r := b.d.RetrieveCompleted(b.p); r != nil {
			b.retrieved = append(b.retrieved, r)
			continue
		}
		if waited++; waited > 10_000 {
			b.t.Fatalf("stranded: %d of %d requests completed", len(b.retrieved), b.submitted)
		}
		b.p.SleepNS(10_000)
	}
}

// audit frees the retrieved requests and audits the quiesced device.
func (b *burst) audit() {
	b.t.Helper()
	b.wait()
	for _, r := range b.retrieved {
		b.d.FreeRequest(b.p, r)
	}
	b.retrieved, b.submitted = nil, 0
	auditQuiesced(b.t, b.d, b.p, b.pages, 4096)
}

// waitFor spins the application in 100 ns steps until cond holds.
func (b *burst) waitFor(what string, cond func() bool) {
	b.t.Helper()
	for i := 0; !cond(); i++ {
		if i > 100_000 {
			b.t.Fatalf("never saw: %s", what)
		}
		b.p.SleepNS(100)
	}
}

// belowAndAbove runs fn with requests of 16 pages (64 KiB, the worker's
// polled pipeline) and of 256 pages (1 MiB, the interrupt path).
func belowAndAbove(t *testing.T, fn func(t *testing.T, regionBytes int64)) {
	for _, pages := range []int64{16, 256} {
		pages := pages
		t.Run(fmt.Sprintf("%dpages", pages), func(t *testing.T) { fn(t, pages*4096) })
	}
}

var raceModes = []RaceMode{RaceDetect, RaceRecover, RacePrevent}

// Two transfers of one device in flight together that share frames: a
// migration of A and a replication out of or into A, in either order.
// The frame's pin must outlive the first transfer to finish, and the old
// frames the migration gives up while the replication still targets them
// must be freed by the last unpin, not leaked.
func TestPinCountSharedFrames(t *testing.T) {
	for _, mode := range raceModes {
		for _, fromA := range []bool{true, false} {
			for _, migrateFirst := range []bool{true, false} {
				mode, fromA, migrateFirst := mode, fromA, migrateFirst
				name := fmt.Sprintf("%v/fromA=%v/migrateFirst=%v", mode, fromA, migrateFirst)
				t.Run(name, func(t *testing.T) {
					belowAndAbove(t, func(t *testing.T, n int64) {
						opts := DefaultOptions()
						opts.RaceMode = mode
						m, d := newRig(t, opts)
						m.Eng.Spawn("app", func(p *sim.Proc) {
							defer d.Close()
							b := newBurst(t, d, p)
							regA, regB := b.mmap(n, hw.NodeSlow), b.mmap(n, hw.NodeSlow)
							src, dst := regA, regB
							if !fromA {
								src, dst = regB, regA
							}
							b.kick()
							var mig, rep *uapi.MovReq
							if migrateFirst {
								mig, rep = b.migrate(regA, n, hw.NodeFast), b.replicate(src, dst, n)
							} else {
								rep, mig = b.replicate(src, dst, n), b.migrate(regA, n, hw.NodeFast)
							}
							b.wait()
							if mig.Err != uapi.ErrNone || rep.Err != uapi.ErrNone {
								t.Errorf("migrate %v, replicate %v", mig.Err, rep.Err)
							}
							if mig.Dispatched >= rep.Completed || rep.Dispatched >= mig.Completed {
								t.Errorf("requests did not overlap: %v..%v and %v..%v",
									mig.Dispatched, mig.Completed, rep.Dispatched, rep.Completed)
							}
							b.audit()
						})
						m.Eng.Run()
					})
				})
			}
		}
	}
}

// The ordering contract of Submit: a request is prepared while earlier
// ones are still in flight, so a migration of pages an unfinished
// migration holds bounces with ErrBusy — below PollThresholdBytes exactly
// as above it — and succeeds once the first has completed.
func TestPingPongWithoutWaitingGetsBusy(t *testing.T) {
	belowAndAbove(t, func(t *testing.T, n int64) {
		m, d := newRig(t, DefaultOptions())
		m.Eng.Spawn("app", func(p *sim.Proc) {
			defer d.Close()
			b := newBurst(t, d, p)
			region := b.mmap(n, hw.NodeSlow)
			fill(t, d, p, region, 4096, 9)
			b.kick()
			there := b.migrate(region, n, hw.NodeFast)
			back := b.migrate(region, n, hw.NodeSlow)
			b.wait()
			if there.Err != uapi.ErrNone || back.Err != uapi.ErrBusy {
				t.Fatalf("ping %v, pong %v; want ok, busy", there.Err, back.Err)
			}
			if f := d.AS.FrameAt(region); f.Node != hw.NodeFast {
				t.Errorf("region on node %d after ping", f.Node)
			}
			b.audit()
			b.migrate(region, n, hw.NodeSlow)
			b.audit()
			if f := d.AS.FrameAt(region); f.Node != hw.NodeSlow {
				t.Errorf("region on node %d after the retried pong", f.Node)
			}
			check(t, d, p, region, 4096, 9)
		})
		m.Eng.Run()
		if st := d.Stats(); st.Failed != 1 {
			t.Errorf("failed = %d, want only the overlapped pong", st.Failed)
		}
	})
}

// One request outstanding at a time never overlaps: the worker behaves
// exactly as a serial one (the Fig 6 golden pins the timeline itself).
func TestSingleOutstandingNeverOverlaps(t *testing.T) {
	m, d := newRig(t, DefaultOptions())
	m.Eng.Spawn("app", func(p *sim.Proc) {
		defer d.Close()
		const n = 16 * 4096
		base, _ := d.AS.Mmap(p, n, hw.NodeSlow, "r")
		for i := 0; i < 8; i++ {
			r := d.AllocRequest(p)
			r.Op, r.SrcBase, r.Length, r.DstNode = uapi.OpMigrate, base, n, hw.NodeID(1-i%2)
			if got := submitAndWait(t, d, p, r); got.Status != uapi.StatusDone {
				t.Fatalf("move %d: %v", i, got)
			}
			d.FreeRequest(p, r)
		}
	})
	m.Eng.Run()
	if st := d.Stats(); st.Overlapped != 0 || st.Syscalls >= st.Submitted {
		t.Errorf("stats = %+v, want worker-served requests and no overlap", st)
	}
}

// A write traps into the recover handler while the faulting migration's
// transfer is the queued, second stage of the pipeline: the transfer is
// pulled out of the engine's queue, the head is unaffected.
func TestRecoverAbortsQueuedTransfer(t *testing.T) {
	opts := DefaultOptions()
	opts.RaceMode = RaceRecover
	m, d := newRig(t, opts)
	m.Eng.Spawn("app", func(p *sim.Proc) {
		defer d.Close()
		// 120 pages copy for ~100 µs; a 4-page migration is prepared and
		// started well inside that.
		const big, small = 120 * 4096, 4 * 4096
		b := newBurst(t, d, p)
		src, dst := b.mmap(big, hw.NodeSlow), b.mmap(big, hw.NodeFast)
		region := b.mmap(small, hw.NodeSlow)
		b.kick()
		head := b.replicate(src, dst, big)
		victim := b.migrate(region, small, hw.NodeFast)
		b.waitFor("victim queued behind the head", func() bool {
			return len(d.pipe) == 2 && d.pipe[1].get().last().State() == dma.StateQueued
		})
		if d.pipe[0].get().last().State() != dma.StateActive {
			t.Fatalf("head transfer is %v", d.pipe[0].get().last().State())
		}
		if err := d.AS.Write(p, region, []byte{1}); err != nil {
			t.Fatal(err)
		}
		b.wait()
		if head.Err != uapi.ErrNone || victim.Err != uapi.ErrAborted {
			t.Errorf("head %v, victim %v; want ok, aborted", head.Err, victim.Err)
		}
		if f := d.AS.FrameAt(region); f == nil || f.Node != hw.NodeSlow {
			t.Errorf("aborted region is on %v", f)
		}
		b.audit()
	})
	m.Eng.Run()
	if d.Stats().Recovered != 1 || d.M.DMA.Stats().Aborts != 1 {
		t.Errorf("recovered %d, engine aborts %d", d.Stats().Recovered, d.M.DMA.Stats().Aborts)
	}
}

// A write traps while the head's transfer is active and the worker is
// busy inside prepare of the next request: the head is dropped by the
// handler, the worker finds it aborted when it next reaps, and the
// request it was preparing is unaffected.
func TestRecoverAbortsHeadDuringPrepareOfNext(t *testing.T) {
	opts := DefaultOptions()
	opts.RaceMode = RaceRecover
	m, d := newRig(t, opts)
	m.Eng.Spawn("app", func(p *sim.Proc) {
		defer d.Close()
		const n = 64 * 4096
		b := newBurst(t, d, p)
		regA, regB := b.mmap(n, hw.NodeSlow), b.mmap(n, hw.NodeSlow)
		b.kick()
		head := b.migrate(regA, n, hw.NodeFast)
		next := b.migrate(regB, n, hw.NodeFast)
		b.waitFor("head active, next in prepare", func() bool {
			return len(d.pipe) == 1 && d.pipe[0].get().req == head &&
				d.pipe[0].get().last().State() == dma.StateActive &&
				next.Status == uapi.StatusInFlight
		})
		if err := d.AS.Write(p, regA+4096, []byte{1}); err != nil {
			t.Fatal(err)
		}
		if next.CopyStart != 0 {
			t.Fatalf("next request left prepare before the write landed")
		}
		b.wait()
		if head.Err != uapi.ErrAborted || next.Err != uapi.ErrNone {
			t.Errorf("head %v, next %v; want aborted, ok", head.Err, next.Err)
		}
		b.audit()
	})
	m.Eng.Run()
}

// Close with both pipeline stages occupied and more requests queued: the
// worker drains everything before it exits.
func TestCloseWithPipelineOccupied(t *testing.T) {
	m, d := newRig(t, DefaultOptions())
	m.Eng.Spawn("app", func(p *sim.Proc) {
		const n = 120 * 4096
		b := newBurst(t, d, p)
		var srcs, dsts [3]int64
		for i := range srcs {
			srcs[i], dsts[i] = b.mmap(n, hw.NodeSlow), b.mmap(n, hw.NodeFast)
		}
		b.kick()
		for i := range srcs {
			b.replicate(srcs[i], dsts[i], n)
		}
		b.waitFor("pipeline two deep", func() bool { return len(d.pipe) == pipeDepth })
		if d.Area.Submission.Empty() {
			t.Fatal("nothing left queued behind the pipeline")
		}
		d.Close()
		b.audit()
	})
	m.Eng.Run()
	if m.Eng.Parked() != 0 {
		t.Errorf("%d processes leaked after close", m.Eng.Parked())
	}
	if st := d.Stats(); st.Completed != 4 {
		t.Errorf("completed = %d, want 4", st.Completed)
	}
}

// Pipelined requests complete out of order when the channel is contended:
// while a sibling's transfer holds it (hogChannel), the older request's
// Background train queues and the younger Foreground request, started
// later, bypasses it. The worker reaps whichever entry has finished; it
// does not hold the younger notification back behind the older request.
func TestReapsOutOfOrder(t *testing.T) {
	m, d := newRig(t, DefaultOptions())
	hog := hogChannel(t, m)
	m.Eng.Spawn("app", func(p *sim.Proc) {
		defer d.Close()
		const big, small = 32 * 4096, 4 * 4096
		b := newBurst(t, d, p)
		s1, d1 := b.mmap(big, hw.NodeSlow), b.mmap(big, hw.NodeFast)
		s2, d2 := b.mmap(small, hw.NodeSlow), b.mmap(small, hw.NodeFast)
		fill(t, d, p, s1, big, 3)
		fill(t, d, p, s2, small, 5)
		b.kick()
		b.wait() // the worker lingers, awake, for the next 200 µs
		hog.start = true
		b.waitFor("sibling holds the channel", func() bool { return hog.holding })
		// A train of two, then one Foreground transfer.
		older := b.submit(newReplicate(d, p, uapi.ClassBackground, s1, d1, big))
		younger := b.replicate(s2, d2, small)
		b.wait()
		if older.Err != uapi.ErrNone || younger.Err != uapi.ErrNone {
			t.Fatalf("older %v, younger %v", older.Err, younger.Err)
		}
		if !(older.Dispatched < younger.Dispatched && younger.Completed < older.Completed) {
			t.Errorf("older %v..%v, younger %v..%v: want the younger reaped first",
				older.Dispatched, older.Completed, younger.Dispatched, younger.Completed)
		}
		check(t, d, p, d1, big, 3)
		check(t, d, p, d2, small, 5)
		b.waitFor("sibling unmapped", func() bool { return hog.released })
		b.audit()
	})
	m.Eng.Run()
	if d.Stats().Overlapped == 0 {
		t.Error("requests were not pipelined")
	}
	if m.DMA.Stats().PriorityBypasses == 0 {
		t.Error("the younger transfer never bypassed the older train")
	}
}

// Requests above the chain cap on the polled path (PollThresholdBytes
// raised above them): each moves as a train of three sub-transfers, the
// next request is prepared under the last one, and every byte lands.
func TestMultiBatchPolledPipeline(t *testing.T) {
	opts := DefaultOptions()
	opts.PollThresholdBytes = 4 << 20
	m, d := newRig(t, opts)
	d.maxChain = 32
	const n = 80 * 4096 // 3 sub-transfers: 32+32+16
	m.Eng.Spawn("app", func(p *sim.Proc) {
		defer d.Close()
		b := newBurst(t, d, p)
		var srcs, dsts [4]int64
		for i := range srcs {
			srcs[i], dsts[i] = b.mmap(n, hw.NodeSlow), b.mmap(n, hw.NodeFast)
			fill(t, d, p, srcs[i], n, byte(20+i))
		}
		b.kick()
		for i := range srcs {
			b.replicate(srcs[i], dsts[i], n)
		}
		b.audit()
		for i, dst := range dsts {
			check(t, d, p, dst, n, byte(20+i))
		}
	})
	m.Eng.Run()
	if st := d.Stats(); st.Overlapped == 0 || st.Completed != 5 {
		t.Errorf("stats = %+v", st)
	}
	if irqs := d.M.DMA.Stats().IRQs; irqs != 1 {
		t.Errorf("IRQs = %d, want only the kick-started request's", irqs)
	}
}
