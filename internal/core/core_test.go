package core

import (
	"fmt"
	"strings"
	"testing"

	"memif/internal/hw"
	"memif/internal/machine"
	"memif/internal/pagetable"
	"memif/internal/sim"
	"memif/internal/uapi"
)

func newRig(t *testing.T, opts Options) (*machine.Machine, *Device) {
	t.Helper()
	m := machine.New(hw.KeyStoneII())
	as := m.NewAddressSpace(4096)
	d := Open(m, as, opts)
	return m, d
}

// TestOpenRefusesPlatformWithoutDMA: the Xeon E5 platform exposes no
// DMA descriptor slots, so a memif device on it could never chain a
// page. Open must refuse it by name instead of clamping the chain length
// to zero and dividing by it on the first migration.
func TestOpenRefusesPlatformWithoutDMA(t *testing.T) {
	plat := hw.XeonE5()
	m := machine.New(plat)
	as := m.NewAddressSpace(4096)
	defer func() {
		msg := fmt.Sprint(recover())
		if !strings.Contains(msg, plat.Name) || !strings.Contains(msg, "DMA") {
			t.Errorf("Open on %s panicked with %q, want a message naming the platform and its missing DMA engine", plat.Name, msg)
		}
	}()
	Open(m, as, DefaultOptions())
}

// fill writes a recognizable pattern into [base, base+n).
func fill(t *testing.T, d *Device, p *sim.Proc, base int64, n int64, seed byte) {
	t.Helper()
	buf := make([]byte, n)
	for i := range buf {
		buf[i] = seed + byte(i)
	}
	if err := d.AS.Write(p, base, buf); err != nil {
		t.Fatalf("fill: %v", err)
	}
}

func check(t *testing.T, d *Device, p *sim.Proc, base int64, n int64, seed byte) {
	t.Helper()
	buf := make([]byte, n)
	if err := d.AS.Read(p, base, buf); err != nil {
		t.Fatalf("check read: %v", err)
	}
	for i := range buf {
		if buf[i] != seed+byte(i) {
			t.Fatalf("byte %d = %d, want %d", i, buf[i], seed+byte(i))
		}
	}
}

// submitAndWait submits one request and polls until its notification
// arrives, returning the completed request.
func submitAndWait(t *testing.T, d *Device, p *sim.Proc, r *uapi.MovReq) *uapi.MovReq {
	t.Helper()
	if err := d.Submit(p, r); err != nil {
		t.Fatalf("Submit: %v", err)
	}
	for {
		if !d.Poll(p, 0) {
			t.Fatal("Poll returned without notification")
		}
		got := d.RetrieveCompleted(p)
		if got != nil {
			return got
		}
	}
}

func TestReplicationMovesData(t *testing.T) {
	m, d := newRig(t, DefaultOptions())
	m.Eng.Spawn("app", func(p *sim.Proc) {
		defer d.Close()
		const n = 16 * 4096
		src, _ := d.AS.Mmap(p, n, hw.NodeSlow, "src")
		dst, _ := d.AS.Mmap(p, n, hw.NodeFast, "dst")
		fill(t, d, p, src, n, 7)

		r := d.AllocRequest(p)
		if r == nil {
			t.Fatal("AllocRequest returned nil")
		}
		r.Op = uapi.OpReplicate
		r.SrcBase, r.DstBase, r.Length = src, dst, n
		got := submitAndWait(t, d, p, r)
		if got != r || got.Status != uapi.StatusDone || got.Err != uapi.ErrNone {
			t.Fatalf("completion = %v", got)
		}
		check(t, d, p, dst, n, 7)
		// Replication must not touch the address space.
		if d.AS.TLBFlushes != 0 {
			t.Errorf("replication flushed TLB %d times", d.AS.TLBFlushes)
		}
		d.FreeRequest(p, r)
	})
	m.Eng.Run()
	st := d.Stats()
	if st.Completed != 1 || st.Replications != 1 || st.BytesMoved != 16*4096 {
		t.Errorf("stats = %+v", st)
	}
}

func TestMigrationMovesPagesToFastNode(t *testing.T) {
	m, d := newRig(t, DefaultOptions())
	m.Eng.Spawn("app", func(p *sim.Proc) {
		defer d.Close()
		const n = 32 * 4096
		base, _ := d.AS.Mmap(p, n, hw.NodeSlow, "work")
		fill(t, d, p, base, n, 3)
		slowUsed := d.AS.Mem.Used(hw.NodeSlow)

		r := d.AllocRequest(p)
		r.Op = uapi.OpMigrate
		r.SrcBase, r.Length, r.DstNode = base, n, hw.NodeFast
		got := submitAndWait(t, d, p, r)
		if got.Status != uapi.StatusDone {
			t.Fatalf("completion = %v", got)
		}
		// Data is intact and now served from the fast node.
		check(t, d, p, base, n, 3)
		for i := int64(0); i < 32; i++ {
			f := d.AS.FrameAt(base + i*4096)
			if f == nil || f.Node != hw.NodeFast {
				t.Fatalf("page %d on %v, want fast node", i, f)
			}
		}
		// Old frames freed.
		if used := d.AS.Mem.Used(hw.NodeSlow); used != slowUsed-n {
			t.Errorf("slow node used = %d, want %d", used, slowUsed-n)
		}
		// Final PTEs carry no young/migration bits.
		slot, _ := d.AS.Table.Lookup(d.AS.VPN(base))
		pte := slot.Load()
		if pte.Has(pagetable.FlagYoung) || pte.Has(pagetable.FlagMigration) || pte.Has(pagetable.FlagRecover) {
			t.Errorf("final PTE = %v", pte)
		}
		if !pte.Has(pagetable.FlagWrite) {
			t.Errorf("final PTE not writable: %v", pte)
		}
	})
	m.Eng.Run()
	if st := d.Stats(); st.Migrations != 1 || st.RacesDetected != 0 {
		t.Errorf("stats = %+v", d.Stats())
	}
}

func TestSingleSyscallForRequestBurst(t *testing.T) {
	m, d := newRig(t, DefaultOptions())
	const reqs = 8
	m.Eng.Spawn("app", func(p *sim.Proc) {
		defer d.Close()
		base, _ := d.AS.Mmap(p, reqs*16*4096, hw.NodeSlow, "w")
		// Submit a burst without waiting: only the first submission
		// should issue the kick-start ioctl; the kernel worker serves
		// the rest (Section 6.4: one syscall for the whole course).
		var rs []*uapi.MovReq
		for i := 0; i < reqs; i++ {
			r := d.AllocRequest(p)
			r.Op = uapi.OpMigrate
			r.SrcBase = base + int64(i)*16*4096
			r.Length = 16 * 4096
			r.DstNode = hw.NodeFast
			if err := d.Submit(p, r); err != nil {
				t.Fatalf("submit %d: %v", i, err)
			}
			rs = append(rs, r)
		}
		done := 0
		for done < reqs {
			d.Poll(p, 0)
			for d.RetrieveCompleted(p) != nil {
				done++
			}
		}
		for i, r := range rs {
			if r.Status != uapi.StatusDone {
				t.Errorf("request %d: %v", i, r)
			}
		}
		// Completions arrive in submission order with increasing times.
		for i := 1; i < reqs; i++ {
			if rs[i].Completed < rs[i-1].Completed {
				t.Errorf("request %d completed before %d", i, i-1)
			}
		}
	})
	m.Eng.Run()
	st := d.Stats()
	if st.Syscalls != 1 {
		t.Errorf("Syscalls = %d, want 1", st.Syscalls)
	}
	if st.Completed != reqs {
		t.Errorf("Completed = %d, want %d", st.Completed, reqs)
	}
}

func TestRaceDetectionReportsFailure(t *testing.T) {
	m, d := newRig(t, DefaultOptions())
	m.Eng.Spawn("app", func(p *sim.Proc) {
		defer d.Close()
		const n = 64 * 4096
		base, _ := d.AS.Mmap(p, n, hw.NodeSlow, "w")
		fill(t, d, p, base, n, 1)
		r := d.AllocRequest(p)
		r.Op = uapi.OpMigrate
		r.SrcBase, r.Length, r.DstNode = base, n, hw.NodeFast
		if err := d.Submit(p, r); err != nil {
			t.Fatal(err)
		}
		if err := d.AS.Touch(p, base+10*4096, true); err != nil {
			t.Fatalf("touch: %v", err)
		}
		d.Poll(p, 0)
		got := d.RetrieveCompleted(p)
		if got == nil || got.Status != uapi.StatusFailed || got.Err != uapi.ErrRace {
			t.Fatalf("completion = %v, want race failure", got)
		}
		if got.FailPage != 10 {
			t.Errorf("FailPage = %d, want 10", got.FailPage)
		}
	})
	m.Eng.Run()
	if d.Stats().RacesDetected == 0 {
		t.Error("no race recorded")
	}
}

func TestRecoverModeAbortsAndRestores(t *testing.T) {
	opts := DefaultOptions()
	opts.RaceMode = RaceRecover
	m, d := newRig(t, opts)
	m.Eng.Spawn("app", func(p *sim.Proc) {
		defer d.Close()
		const n = 64 * 4096
		base, _ := d.AS.Mmap(p, n, hw.NodeSlow, "w")
		fill(t, d, p, base, n, 9)
		r := d.AllocRequest(p)
		r.Op = uapi.OpMigrate
		r.SrcBase, r.Length, r.DstNode = base, n, hw.NodeFast
		if err := d.Submit(p, r); err != nil {
			t.Fatal(err)
		}
		// A write mid-migration traps, aborts, and must be preserved.
		if err := d.AS.Write(p, base+5*4096, []byte{0xEE}); err != nil {
			t.Fatalf("write during migration: %v", err)
		}
		d.Poll(p, 0)
		got := d.RetrieveCompleted(p)
		if got == nil || got.Err != uapi.ErrAborted {
			t.Fatalf("completion = %v, want aborted", got)
		}
		// Mapping restored on the slow node, data intact, write kept.
		f := d.AS.FrameAt(base + 5*4096)
		if f == nil || f.Node != hw.NodeSlow {
			t.Errorf("page after abort on %v, want slow node", f)
		}
		var b [1]byte
		if err := d.AS.Read(p, base+5*4096, b[:]); err != nil || b[0] != 0xEE {
			t.Errorf("preserved write = %#x, %v", b[0], err)
		}
		check(t, d, p, base, 4096, 9) // untouched page 0 still readable
		p.SleepNS(10_000_000)         // let the reclaim process run
		if used := d.AS.Mem.Used(hw.NodeFast); used != 0 {
			t.Errorf("fast node leaked %d bytes after abort", used)
		}
	})
	m.Eng.Run()
	if d.Stats().Recovered != 1 {
		t.Errorf("Recovered = %d, want 1", d.Stats().Recovered)
	}
}

func TestRecoverModeReadsDuringMigrationSeeOldData(t *testing.T) {
	opts := DefaultOptions()
	opts.RaceMode = RaceRecover
	m, d := newRig(t, opts)
	m.Eng.Spawn("app", func(p *sim.Proc) {
		defer d.Close()
		const n = 64 * 4096
		base, _ := d.AS.Mmap(p, n, hw.NodeSlow, "w")
		fill(t, d, p, base, n, 5)
		r := d.AllocRequest(p)
		r.Op = uapi.OpMigrate
		r.SrcBase, r.Length, r.DstNode = base, n, hw.NodeFast
		d.Submit(p, r)
		// Read (no write) during migration: sees old data, no abort.
		var b [8]byte
		if err := d.AS.Read(p, base, b[:]); err != nil {
			t.Fatalf("read during migration: %v", err)
		}
		if b[0] != 5 {
			t.Errorf("read stale byte %d, want 5", b[0])
		}
		d.Poll(p, 0)
		got := d.RetrieveCompleted(p)
		if got == nil || got.Status != uapi.StatusDone {
			t.Fatalf("completion = %v, want success (reads are safe)", got)
		}
		check(t, d, p, base, n, 5)
	})
	m.Eng.Run()
}

func TestPreventModeBlocksAccessor(t *testing.T) {
	opts := DefaultOptions()
	opts.RaceMode = RacePrevent
	m, d := newRig(t, opts)
	var touchTime, submitTime sim.Time
	m.Eng.Spawn("app", func(p *sim.Proc) {
		defer d.Close()
		const n = 64 * 4096
		base, _ := d.AS.Mmap(p, n, hw.NodeSlow, "w")
		fill(t, d, p, base, n, 2)
		r := d.AllocRequest(p)
		r.Op = uapi.OpMigrate
		r.SrcBase, r.Length, r.DstNode = base, n, hw.NodeFast
		submitTime = p.Now()
		d.Submit(p, r)
		// Touching a migrating page blocks at least for the whole DMA
		// transfer (release runs only after the copy lands).
		if err := d.AS.Touch(p, base, false); err != nil {
			t.Fatalf("touch: %v", err)
		}
		touchTime = p.Now()
		minBlock := sim.Time(m.Plat.DMATransferNS(n, hw.NodeSlow, hw.NodeFast))
		if touchTime-submitTime < minBlock {
			t.Errorf("accessor unblocked after %v, want at least %v", touchTime-submitTime, minBlock)
		}
		check(t, d, p, base, n, 2)
		d.Poll(p, 0)
		if got := d.RetrieveCompleted(p); got == nil || got.Status != uapi.StatusDone {
			t.Fatalf("completion = %v", got)
		}
	})
	m.Eng.Run()
	if touchTime <= submitTime {
		t.Error("test did not exercise blocking")
	}
}

func TestValidationFailures(t *testing.T) {
	m, d := newRig(t, DefaultOptions())
	m.Eng.Spawn("app", func(p *sim.Proc) {
		defer d.Close()
		base, _ := d.AS.Mmap(p, 8*4096, hw.NodeSlow, "w")
		cases := []struct {
			name string
			mut  func(r *uapi.MovReq)
		}{
			{"unmapped src", func(r *uapi.MovReq) { r.SrcBase = 0x10 << 20 }},
			{"unaligned length", func(r *uapi.MovReq) { r.Length = 100 }},
			{"zero length", func(r *uapi.MovReq) { r.Length = 0 }},
			{"overrun", func(r *uapi.MovReq) { r.Length = 64 * 4096 }},
			{"bad node", func(r *uapi.MovReq) { r.DstNode = hw.NodeID(9) }},
			// The class would otherwise reach the DMA queue as an
			// unnamed tenth priority level.
			{"unknown class", func(r *uapi.MovReq) { r.Class = uapi.Class(9) }},
		}
		for _, tc := range cases {
			r := d.AllocRequest(p)
			r.Op = uapi.OpMigrate
			r.SrcBase, r.Length, r.DstNode = base, 8*4096, hw.NodeFast
			tc.mut(r)
			got := submitAndWait(t, d, p, r)
			if got.Status != uapi.StatusFailed || got.Err != uapi.ErrBadRequest {
				t.Errorf("%s: completion = %v, want badreq", tc.name, got)
			}
			d.FreeRequest(p, got)
		}
		// Replication with an unmapped destination also fails.
		r := d.AllocRequest(p)
		r.Op = uapi.OpReplicate
		r.SrcBase, r.DstBase, r.Length = base, 0x20<<20, 8*4096
		got := submitAndWait(t, d, p, r)
		if got.Err != uapi.ErrBadRequest {
			t.Errorf("bad dst: %v", got)
		}
		d.FreeRequest(p, got)
		// Rejected requests never reach the engine and leak no slot.
		if n := m.DMA.Stats().Transfers; n != 0 {
			t.Errorf("%d DMA transfers started by requests that failed validation", n)
		}
		if err := d.Area.Audit(nil); err != nil {
			t.Error(err)
		}
	})
	m.Eng.Run()
}

func TestMigrationOutOfFastMemoryRollsBack(t *testing.T) {
	m, d := newRig(t, DefaultOptions())
	m.Eng.Spawn("app", func(p *sim.Proc) {
		defer d.Close()
		// 8 MB region cannot fit the 6 MB fast node.
		const n = 8 << 20
		base, _ := d.AS.Mmap(p, n, hw.NodeSlow, "big")
		fill(t, d, p, base, 4096, 4)
		r := d.AllocRequest(p)
		r.Op = uapi.OpMigrate
		r.SrcBase, r.Length, r.DstNode = base, n, hw.NodeFast
		got := submitAndWait(t, d, p, r)
		if got.Status != uapi.StatusFailed || got.Err != uapi.ErrNoMemory {
			t.Fatalf("completion = %v, want nomem", got)
		}
		// Original mapping intact and usable.
		check(t, d, p, base, 4096, 4)
		if f := d.AS.FrameAt(base); f == nil || f.Node != hw.NodeSlow {
			t.Errorf("page after rollback on %v", f)
		}
		if used := d.AS.Mem.Used(hw.NodeFast); used != 0 {
			t.Errorf("fast node leaked %d bytes", used)
		}
	})
	m.Eng.Run()
}

func TestLargeRequestSplitsIntoBatches(t *testing.T) {
	m, d := newRig(t, DefaultOptions())
	d.maxChain = 16
	m.Eng.Spawn("app", func(p *sim.Proc) {
		defer d.Close()
		const pages = 50 // 4 batches: 16+16+16+2
		base, _ := d.AS.Mmap(p, pages*4096, hw.NodeSlow, "w")
		fill(t, d, p, base, pages*4096, 6)
		r := d.AllocRequest(p)
		r.Op = uapi.OpMigrate
		r.SrcBase, r.Length, r.DstNode = base, pages*4096, hw.NodeFast
		got := submitAndWait(t, d, p, r)
		if got.Status != uapi.StatusDone {
			t.Fatalf("completion = %v", got)
		}
		check(t, d, p, base, pages*4096, 6)
	})
	m.Eng.Run()
	if tr := m.DMA.Stats().Transfers; tr != 4 {
		t.Errorf("DMA transfers = %d, want 4", tr)
	}
}

// The completion-mode rule (serveReq, DESIGN.md §5.4). The kernel thread
// polls a request below PollThresholdBytes while nothing else is queued,
// or while the channel is still busy with an earlier transfer; with work
// waiting on an idle channel the worker's CPU is the bottleneck, and it
// arms the request's interrupt so that Release+Notify run in the handler.
// The syscall path always takes the interrupt. Each row counts the
// engine's interrupts, the requests started with the pipeline occupied
// and the kick-start syscalls, exactly.
func TestCompletionModeRule(t *testing.T) {
	for _, tc := range []struct {
		name      string
		pageBytes int64
		op        uapi.Op
		pages     int64
		n         int  // requests submitted back to back
		awake     bool // a warm-up request first: the worker is lingering when the burst arrives
		// want
		irqs, overlapped, syscalls int64
	}{
		// One 16 x 4 KiB migration on an asleep worker: the MOV_ONE
		// kick serves it and its interrupt completes it.
		{"syscall_kick", hw.Page4K, uapi.OpMigrate, 16, 1, false, 1, 0, 1},
		// The same request found alone by the lingering worker: polled.
		// The one interrupt is the warm-up's.
		{"lone_request_polls", hw.Page4K, uapi.OpMigrate, 16, 1, true, 1, 0, 1},
		// Four 16 x 4 KiB migrations: the kick serves the first, the
		// worker the rest. Each copy (12.8 µs) ends long before the next
		// Remap does, so the second and third find the channel idle with
		// work queued and take the interrupt; the fourth is alone and
		// polls.
		{"queued_behind_idle_channel", hw.Page4K, uapi.OpMigrate, 16, 4, false, 3, 0, 1},
		// Four 4 x 64 KiB replications: each copy (48.6 µs) outlasts the
		// next request's prepare. The worker, woken by the kick's
		// interrupt, finds the second on an idle channel (interrupt); the
		// third and fourth queue behind busy transfers and poll, the
		// fourth started with the third still in the pipeline.
		{"queued_behind_busy_channel", hw.Page64K, uapi.OpReplicate, 4, 4, false, 2, 1, 1},
	} {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			m := machine.New(hw.KeyStoneII())
			d := Open(m, m.NewAddressSpace(tc.pageBytes), DefaultOptions())
			m.Eng.Spawn("app", func(p *sim.Proc) {
				defer d.Close()
				n := tc.pages * tc.pageBytes
				warm, _ := d.AS.Mmap(p, tc.pageBytes, hw.NodeSlow, "warm")
				reqs := make([]*uapi.MovReq, tc.n)
				for i := range reqs {
					src, _ := d.AS.Mmap(p, n, hw.NodeSlow, "src")
					if tc.op == uapi.OpMigrate {
						reqs[i] = newMigrate(d, p, uapi.ClassForeground, src, n, hw.NodeFast)
					} else {
						dst, _ := d.AS.Mmap(p, n, hw.NodeFast, "dst")
						reqs[i] = newReplicate(d, p, uapi.ClassForeground, src, dst, n)
					}
				}
				p.SleepNS(d.idleGrace) // the worker's start-up linger ends: it sleeps
				if tc.awake {
					r := submitAndWait(t, d, p, newMigrate(d, p, uapi.ClassForeground, warm, tc.pageBytes, hw.NodeFast))
					d.FreeRequest(p, r)
				}
				for _, r := range reqs {
					if err := d.Submit(p, r); err != nil {
						t.Fatal(err)
					}
				}
				for done := 0; done < tc.n; {
					d.Poll(p, 0)
					for r := d.RetrieveCompleted(p); r != nil; r = d.RetrieveCompleted(p) {
						if r.Status != uapi.StatusDone {
							t.Errorf("completion = %v", r)
						}
						done++
					}
				}
			})
			m.Eng.Run()
			st := d.Stats()
			if irqs := m.DMA.Stats().IRQs; irqs != tc.irqs || st.Overlapped != tc.overlapped || st.Syscalls != tc.syscalls {
				t.Errorf("IRQs %d, overlapped %d, syscalls %d; want %d, %d, %d",
					irqs, st.Overlapped, st.Syscalls, tc.irqs, tc.overlapped, tc.syscalls)
			}
		})
	}
}

func TestPollTimeout(t *testing.T) {
	m, d := newRig(t, DefaultOptions())
	m.Eng.Spawn("app", func(p *sim.Proc) {
		defer d.Close()
		start := p.Now()
		if d.Poll(p, 5000) {
			t.Error("Poll reported a notification on idle device")
		}
		if p.Now()-start != sim.Time(5000) {
			t.Errorf("Poll blocked %v, want 5µs", p.Now()-start)
		}
	})
	m.Eng.Run()
}

func TestAllocRequestExhaustion(t *testing.T) {
	opts := DefaultOptions()
	opts.NumReqs = 4
	m, d := newRig(t, opts)
	m.Eng.Spawn("app", func(p *sim.Proc) {
		defer d.Close()
		var rs []*uapi.MovReq
		for i := 0; i < 4; i++ {
			r := d.AllocRequest(p)
			if r == nil {
				t.Fatalf("alloc %d failed", i)
			}
			rs = append(rs, r)
		}
		if r := d.AllocRequest(p); r != nil {
			t.Error("alloc beyond NumReqs succeeded")
		}
		d.FreeRequest(p, rs[0])
		if r := d.AllocRequest(p); r == nil {
			t.Error("alloc after free failed")
		}
	})
	m.Eng.Run()
}

func TestBreakdownPhasesPopulated(t *testing.T) {
	m, d := newRig(t, DefaultOptions())
	m.Eng.Spawn("app", func(p *sim.Proc) {
		defer d.Close()
		base, _ := d.AS.Mmap(p, 16*4096, hw.NodeSlow, "w")
		r := d.AllocRequest(p)
		r.Op = uapi.OpMigrate
		r.SrcBase, r.Length, r.DstNode = base, 16*4096, hw.NodeFast
		submitAndWait(t, d, p, r)
	})
	m.Eng.Run()
	b := d.Breakdown
	for _, phase := range []string{"prep", "remap", "dmacfg", "copy", "release", "notify", "interface"} {
		if b.Get(phase) <= 0 {
			t.Errorf("phase %s empty: %v", phase, b)
		}
	}
	// The user-side CPU must be far below the kernel-side for the async
	// interface: only alloc/submit/poll/retrieve plus one syscall.
	if d.UserMeter.Busy() >= d.KernMeter.Busy()+d.Breakdown.Get("copy") {
		t.Logf("user=%v kern=%v", d.UserMeter.Busy(), d.KernMeter.Busy())
	}
}

func TestCloseStopsWorker(t *testing.T) {
	m, d := newRig(t, DefaultOptions())
	m.Eng.Spawn("app", func(p *sim.Proc) {
		base, _ := d.AS.Mmap(p, 4096, hw.NodeSlow, "w")
		r := d.AllocRequest(p)
		r.Op = uapi.OpMigrate
		r.SrcBase, r.Length, r.DstNode = base, 4096, hw.NodeFast
		submitAndWait(t, d, p, r)
		d.Close()
	})
	m.Eng.Run()
	if m.Eng.Parked() != 0 {
		t.Errorf("worker still parked after Close: %d procs", m.Eng.Parked())
	}
}

func TestSubmitAfterCloseFails(t *testing.T) {
	m, d := newRig(t, DefaultOptions())
	m.Eng.Spawn("app", func(p *sim.Proc) {
		r := d.AllocRequest(p)
		d.Close()
		if err := d.Submit(p, r); err != ErrClosed {
			t.Errorf("Submit after close = %v, want ErrClosed", err)
		}
	})
	m.Eng.Run()
}

func TestCookieRoundTrip(t *testing.T) {
	m, d := newRig(t, DefaultOptions())
	m.Eng.Spawn("app", func(p *sim.Proc) {
		defer d.Close()
		base, _ := d.AS.Mmap(p, 4096, hw.NodeSlow, "w")
		r := d.AllocRequest(p)
		r.Op = uapi.OpMigrate
		r.SrcBase, r.Length, r.DstNode = base, 4096, hw.NodeFast
		r.Cookie = 0xfeedface
		got := submitAndWait(t, d, p, r)
		if got.Cookie != 0xfeedface {
			t.Errorf("cookie = %#x", got.Cookie)
		}
	})
	m.Eng.Run()
}
