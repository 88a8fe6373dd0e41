package swapd

import (
	"bytes"
	"math/rand"
	"testing"

	"memif/internal/core"
	"memif/internal/hw"
	"memif/internal/machine"
	"memif/internal/sim"
	"memif/internal/uapi"
	"memif/internal/workloads"
)

func setup() (*machine.Machine, *core.Device) {
	m := machine.New(hw.KeyStoneII())
	as := m.NewAddressSpace(4096)
	return m, core.Open(m, as, core.DefaultOptions())
}

// migrateIn moves a region into fast memory through the app device.
func migrateIn(t *testing.T, d *core.Device, p *sim.Proc, base, length int64) {
	t.Helper()
	if _, ok, err := workloads.MoveSync(p, d, uapi.OpMigrate, base, 0, length, hw.NodeFast); !ok {
		t.Fatalf("migrate in of %#x+%d failed (err %v)", base, length, err)
	}
}

func TestDemotesColdestWhenOverWatermark(t *testing.T) {
	m, d := setup()
	sd := New(d, DefaultOptions())
	const regionBytes = 2 << 20 // 2 MB each; three fill the 6 MB node
	var bases [3]int64
	m.Eng.Spawn("app", func(p *sim.Proc) {
		defer d.Close()
		defer sd.Stop()
		for i := range bases {
			b, _ := d.AS.Mmap(p, regionBytes, hw.NodeSlow, "r")
			bases[i] = b
			d.AS.Write(p, b, bytes.Repeat([]byte{byte(i + 1)}, 4096))
			migrateIn(t, d, p, b, regionBytes)
			sd.Register(b, regionBytes)
			sd.Touch(b, p.Now())
		}
		// Fast node now 100% full (> high watermark). Region 0 is the
		// coldest (touched once; the others twice). Let the daemon run.
		sd.Touch(bases[1], p.Now())
		sd.Touch(bases[2], p.Now())
		p.SleepNS(20_000_000) // 20 ms: several daemon periods

		if f := d.AS.FrameAt(bases[0]); f == nil || f.Node != hw.NodeSlow {
			t.Errorf("coldest region not demoted (node %v)", f)
		}
		if f := d.AS.FrameAt(bases[2]); f == nil || f.Node != hw.NodeFast {
			t.Errorf("hottest region demoted (node %v)", f)
		}
		usage := float64(m.Mem.Used(hw.NodeFast)) / float64(m.Mem.Node(hw.NodeFast).Capacity)
		if usage > highWatermark {
			t.Errorf("usage still %.2f after daemon ran", usage)
		}
		// Demoted data survives intact.
		var b [1]byte
		d.AS.Read(p, bases[0], b[:])
		if b[0] != 1 {
			t.Errorf("demoted region corrupted: %d", b[0])
		}
	})
	m.Eng.Run()
	ms := sd.Metrics()
	if ms.Demotions == 0 {
		t.Error("daemon recorded no demotions")
	}
	if ms.Latency.Count != ms.Demotions+ms.Promotions {
		t.Errorf("latency histogram has %d samples for %d migrations",
			ms.Latency.Count, ms.Demotions+ms.Promotions)
	}
	if ms.Latency.Count > 0 && ms.Latency.Mean() <= 0 {
		t.Errorf("migration latency mean = %v", ms.Latency.Mean())
	}
	if ms.Sizes.Sum != ms.BytesDemoted+ms.BytesPromoted {
		t.Errorf("size histogram sum = %d, booked bytes = %d",
			ms.Sizes.Sum, ms.BytesDemoted+ms.BytesPromoted)
	}
	if err := sd.Audit(); err != nil {
		t.Errorf("request accounting: %v", err)
	}
}

func TestIdleBelowWatermark(t *testing.T) {
	m, d := setup()
	sd := New(d, DefaultOptions())
	m.Eng.Spawn("app", func(p *sim.Proc) {
		defer d.Close()
		defer sd.Stop()
		// 2 MB of 6 MB used: well under the watermark.
		b, _ := d.AS.Mmap(p, 2<<20, hw.NodeSlow, "r")
		migrateIn(t, d, p, b, 2<<20)
		sd.Register(b, 2<<20)
		p.SleepNS(10_000_000)
		if f := d.AS.FrameAt(b); f == nil || f.Node != hw.NodeFast {
			t.Error("region demoted below watermark")
		}
	})
	m.Eng.Run()
	if sd.Metrics().Demotions != 0 {
		t.Errorf("demotions = %d below watermark", sd.Metrics().Demotions)
	}
}

// A write racing the demotion copy dirties the page; the transactional
// commit refuses it, the write is preserved, and the daemon books an
// abort and retries later. The writer itself never blocks or faults.
func TestRacingWriteAbortsDemotionAndIsPreserved(t *testing.T) {
	m, d := setup()
	sd := New(d, DefaultOptions())
	m.Eng.Spawn("app", func(p *sim.Proc) {
		defer d.Close()
		defer sd.Stop()
		const regionBytes = 3 << 20
		// Fill the node; register only the region under write, so every
		// demotion attempt targets it.
		b, _ := d.AS.Mmap(p, regionBytes, hw.NodeSlow, "hot")
		migrateIn(t, d, p, b, regionBytes)
		if _, err := d.AS.Mmap(p, regionBytes, hw.NodeFast, "ballast"); err != nil {
			t.Fatal(err)
		}
		sd.Register(b, regionBytes)
		// A 3 MB copy outlasts the 200 µs write cadence by a wide
		// margin, so a write always lands between baseline and commit.
		for i := 0; i < 40; i++ {
			p.SleepNS(200_000)
			if err := d.AS.Write(p, b, []byte{0xEE}); err != nil {
				t.Fatalf("write during demotion: %v", err)
			}
		}
		var buf [1]byte
		d.AS.Read(p, b, buf[:])
		if buf[0] != 0xEE {
			t.Errorf("racing write lost: %d", buf[0])
		}
		if f := d.AS.FrameAt(b); f == nil || f.Node != hw.NodeFast {
			t.Error("region left its original node despite aborts")
		}
	})
	m.Eng.Run()
	st := sd.Metrics()
	t.Logf("demotions=%d aborts=%d", st.Demotions, st.Aborts)
	if st.Aborts == 0 {
		t.Error("no demotion was aborted by the racing writes")
	}
	if err := sd.Audit(); err != nil {
		t.Errorf("request accounting: %v", err)
	}
}

// A promotion that meets the application's own migration of the same
// region fails with ErrBusy: core.prepare finds the address-space-wide
// migration claim taken. Nothing raced the copy, so it is booked as
// Failed — not as an abort, and with no txn_abort event in the flight
// ring.
func TestPromotionMeetingAppMigrationIsFailedNotAborted(t *testing.T) {
	m, d := setup()
	sd := New(d, DefaultOptions())
	var appDone sim.Time
	m.Eng.Spawn("app", func(p *sim.Proc) {
		defer d.Close()
		const regionBytes = 384 << 10
		b, _ := d.AS.Mmap(p, regionBytes, hw.NodeSlow, "hot")
		sd.Register(b, regionBytes)
		sd.Touch(b, p.Now()) // hot at once: the daemon's first pump promotes it
		// Move the region within the slow tier: its 96-page Remap holds
		// the claim across the daemon's first pump at 1 ms.
		r := d.AllocRequest(p)
		r.Op, r.SrcBase, r.Length, r.DstNode = uapi.OpMigrate, b, regionBytes, hw.NodeSlow
		if err := d.Submit(p, r); err != nil {
			t.Fatal(err)
		}
		workloads.Await(p, d, 1, func(got *uapi.MovReq) {
			if got.Status != uapi.StatusDone {
				t.Errorf("application migration failed: %v", got)
			}
			appDone = got.Completed
		})
		// Stop before the second pump, which would promote the region now
		// that the claim is free: one promotion attempt, one failure.
		sd.Stop()
	})
	m.Eng.Run()
	if appDone <= 1_000_000 || appDone >= 2_000_000 {
		t.Fatalf("application migration completed at %v, want between the daemon's first two pumps", appDone)
	}
	ms := sd.Metrics()
	if ms.Aborts != 0 || ms.Failed != 1 || ms.Promotions != 0 {
		t.Errorf("aborts %d, failed %d, promotions %d; want 0, 1, 0", ms.Aborts, ms.Failed, ms.Promotions)
	}
	if ms.Flight.Events != 0 {
		t.Errorf("flight events = %d: a busy claim is no txn abort", ms.Flight.Events)
	}
	if err := sd.Audit(); err != nil {
		t.Errorf("request accounting: %v", err)
	}
}

// The access-bit scan finds a hot slow-tier region with no explicit
// Touch hints and promotes it, booking the promotion lag.
func TestScanDrivenPromotion(t *testing.T) {
	m, d := setup()
	sd := New(d, DefaultOptions())
	m.Eng.Spawn("app", func(p *sim.Proc) {
		defer d.Close()
		defer sd.Stop()
		const regionBytes = 256 << 10
		b, _ := d.AS.Mmap(p, regionBytes, hw.NodeSlow, "hot")
		sd.Register(b, regionBytes)
		buf := make([]byte, regionBytes)
		for i := 0; i < 20; i++ {
			// Touch every page so each rotating sample window sees a
			// fully referenced region.
			if err := d.AS.Read(p, b, buf); err != nil {
				t.Fatal(err)
			}
			p.SleepNS(1_000_000)
		}
		if f := d.AS.FrameAt(b); f == nil || f.Node != hw.NodeFast {
			t.Errorf("hot region not promoted (frame %v)", f)
		}
		// The slow copy is retained as a shadow (non-exclusive tiering).
		if d.AS.Shadows() == 0 {
			t.Error("promotion retained no shadow copies")
		}
	})
	m.Eng.Run()
	st := sd.Metrics()
	if st.Promotions == 0 {
		t.Fatal("daemon recorded no promotions")
	}
	ms := sd.Metrics()
	if ms.PromotionLag.Count == 0 || ms.PromotionLag.Mean() <= 0 {
		t.Errorf("promotion lag histogram: count=%d mean=%v",
			ms.PromotionLag.Count, ms.PromotionLag.Mean())
	}
}

// A promoted region that stays clean demotes by PTE flip alone: zero
// bytes move, and the zero-copy counter says so.
func TestCleanDemotionMovesZeroBytes(t *testing.T) {
	m, d := setup()
	sd := New(d, DefaultOptions())
	m.Eng.Spawn("app", func(p *sim.Proc) {
		defer d.Close()
		defer sd.Stop()
		const regionBytes = 1 << 20
		b, _ := d.AS.Mmap(p, regionBytes, hw.NodeSlow, "r")
		d.AS.Write(p, b, bytes.Repeat([]byte{0x5A}, 4096))
		sd.Register(b, regionBytes)
		sd.Touch(b, p.Now())
		sd.Touch(b, p.Now()) // heat 0.75: promotion candidate
		p.SleepNS(10_000_000)
		if f := d.AS.FrameAt(b); f == nil || f.Node != hw.NodeFast {
			t.Fatalf("region not promoted (frame %v)", f)
		}
		dmaBefore := m.DMA.Stats().BytesMoved
		// Crowd the fast node with unregistered ballast: pressure
		// demotion has exactly one candidate — our clean region.
		if _, err := d.AS.Mmap(p, 5<<20, hw.NodeFast, "ballast"); err != nil {
			t.Fatal(err)
		}
		p.SleepNS(10_000_000)
		if f := d.AS.FrameAt(b); f == nil || f.Node != hw.NodeSlow {
			t.Fatalf("region not demoted under pressure (frame %v)", f)
		}
		if moved := m.DMA.Stats().BytesMoved - dmaBefore; moved != 0 {
			t.Errorf("clean demotion moved %d bytes through DMA", moved)
		}
		// The shadow frames became the live mapping; none remain.
		if d.AS.Shadows() != 0 {
			t.Errorf("%d shadows left after zero-copy demotion", d.AS.Shadows())
		}
		var buf [1]byte
		d.AS.Read(p, b, buf[:])
		if buf[0] != 0x5A {
			t.Errorf("demoted data corrupted: %#x", buf[0])
		}
	})
	m.Eng.Run()
	st := sd.Metrics()
	if st.ZeroCopyDemotions == 0 {
		t.Error("zero-copy demotion not counted")
	}
	if st.Demotions == 0 || st.Promotions == 0 {
		t.Errorf("promotions=%d demotions=%d", st.Promotions, st.Demotions)
	}
}

// Stop racing a migration storm: the daemon must retrieve and free every
// in-flight request before exiting — the seed daemon leaked them.
func TestStopUnderLoadDrainsInflight(t *testing.T) {
	m, d := setup()
	sd := New(d, DefaultOptions())
	m.Eng.Spawn("app", func(p *sim.Proc) {
		defer d.Close()
		const regionBytes = 3 << 20
		for i := 0; i < 2; i++ {
			b, _ := d.AS.Mmap(p, regionBytes, hw.NodeSlow, "r")
			migrateIn(t, d, p, b, regionBytes)
			sd.Register(b, regionBytes)
		}
		// The daemon's first period fires at 1 ms and submits demotions
		// whose 3 MB copies take far longer; stop while they fly.
		p.SleepNS(1_200_000)
		sd.Stop()
	})
	m.Eng.Run()
	if n := sd.Outstanding(); n != 0 {
		t.Errorf("daemon exited with %d migrations outstanding", n)
	}
	if err := sd.Audit(); err != nil {
		t.Errorf("leaked requests after stop under load: %v", err)
	}
	st := sd.Metrics()
	if st.Demotions+st.Aborts+st.Failed == 0 {
		t.Error("no migration was in flight when Stop hit; scenario lost its teeth")
	}
}

// Demotion order is deterministic: lastTouch ties break by base address,
// so identical runs replay identically (the seed's map-iteration bug).
func TestDemotionOrderReplayStable(t *testing.T) {
	run := func() []int64 {
		m, d := setup()
		sd := New(d, DefaultOptions())
		m.Eng.Spawn("app", func(p *sim.Proc) {
			defer d.Close()
			defer sd.Stop()
			const regionBytes = 1 << 20
			for i := 0; i < 6; i++ {
				b, _ := d.AS.Mmap(p, regionBytes, hw.NodeSlow, "r")
				migrateIn(t, d, p, b, regionBytes)
				// Never touched: every region ties at heat 0, lastTouch 0.
				sd.Register(b, regionBytes)
			}
			p.SleepNS(20_000_000)
		})
		m.Eng.Run()
		return sd.DemotionLog()
	}
	a, b := run(), run()
	if len(a) == 0 {
		t.Fatal("no demotions submitted")
	}
	if len(a) != len(b) {
		t.Fatalf("replay diverged: %d vs %d demotions", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("replay diverged at %d: %#x vs %#x", i, a[i], b[i])
		}
	}
	for i := 1; i < len(a); i++ {
		if a[i] <= a[i-1] {
			t.Errorf("tied regions not demoted in base order: %#x after %#x", a[i], a[i-1])
		}
	}
}

// Register/Unregister/Touch from application processes interleaved
// with the daemon's scan/pump/completion path at its yield points: the
// region a completion or a scan holds may be unregistered, re-registered
// or touched while the daemon sleeps.
func TestConcurrentRegistrationChaos(t *testing.T) {
	m, d := setup()
	sd := New(d, DefaultOptions())
	const regionBytes = 1 << 20
	var bases [6]int64
	m.Eng.Spawn("app", func(p *sim.Proc) {
		defer d.Close()
		for i := range bases {
			b, _ := d.AS.Mmap(p, regionBytes, hw.NodeSlow, "r")
			migrateIn(t, d, p, b, regionBytes)
			sd.Register(b, regionBytes)
			// Publish only once in place: the toucher writing mid
			// migrate-in would race the app device's own move.
			bases[i] = b
		}
		p.SleepNS(30_000_000)
		sd.Stop()
	})
	m.Eng.Spawn("toucher", func(p *sim.Proc) {
		rng := rand.New(rand.NewSource(7))
		for i := 0; i < 200; i++ {
			p.SleepNS(100_000)
			b := bases[rng.Intn(len(bases))]
			if b == 0 {
				continue
			}
			sd.Touch(b, p.Now())
			if err := d.AS.Write(p, b, []byte{byte(i)}); err != nil {
				t.Errorf("write: %v", err)
				return
			}
		}
	})
	m.Eng.Spawn("churner", func(p *sim.Proc) {
		rng := rand.New(rand.NewSource(11))
		for i := 0; i < 100; i++ {
			p.SleepNS(250_000)
			b := bases[rng.Intn(len(bases))]
			if b == 0 {
				continue
			}
			if rng.Intn(2) == 0 {
				sd.Unregister(b)
			} else {
				sd.Register(b, regionBytes)
			}
		}
	})
	m.Eng.Run()
	if n := sd.Outstanding(); n != 0 {
		t.Errorf("outstanding = %d after chaos run", n)
	}
	if err := sd.Audit(); err != nil {
		t.Errorf("request accounting after chaos: %v", err)
	}
}
