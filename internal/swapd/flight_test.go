package swapd

import (
	"testing"

	"memif/internal/hw"
	"memif/internal/obs/lifecycle"
	"memif/internal/sim"
)

// aggressiveFlight arms the daemon's recorder so ordinary test
// migrations breach: threshold = max(1, 1×EWMA) after a one-migration
// warmup means any strictly-slower-than-average move captures.
func aggressiveFlight() lifecycle.FlightOptions {
	return lifecycle.FlightOptions{ThresholdFloorNs: 1, ThresholdMult: 1, Warmup: 1}
}

// A small demotion trains the lane EWMA; the strictly larger demotion
// that follows breaches it, and the captured outlier carries the full
// virtual-time stage vector of the slow migration.
func TestFlightCapturesSlowMigrations(t *testing.T) {
	m, d := setup()
	opts := DefaultOptions()
	opts.Flight = aggressiveFlight()
	sd := New(d, opts)
	m.Eng.Spawn("app", func(p *sim.Proc) {
		defer d.Close()
		defer sd.Stop()
		// Fill the 6 MB node: a cold 1 MB region, a warmer 2 MB region,
		// and 3 MB of unregistered ballast. Pressure demotion sheds the
		// small region first (colder), then the large one — whose
		// roughly doubled copy latency breaches the EWMA the small one
		// just seeded.
		small, _ := d.AS.Mmap(p, 1<<20, hw.NodeSlow, "small")
		migrateIn(t, d, p, small, 1<<20)
		large, _ := d.AS.Mmap(p, 2<<20, hw.NodeSlow, "large")
		migrateIn(t, d, p, large, 2<<20)
		if _, err := d.AS.Mmap(p, 3<<20, hw.NodeFast, "ballast"); err != nil {
			t.Fatal(err)
		}
		sd.Register(small, 1<<20)
		sd.Register(large, 2<<20)
		sd.Touch(large, p.Now()) // large is the hotter: small demotes first
		p.SleepNS(30_000_000)
	})
	m.Eng.Run()

	if sd.Metrics().Demotions < 2 {
		t.Fatalf("demotions = %d, want both regions shed", sd.Metrics().Demotions)
	}
	fs := sd.Metrics().Flight
	if !fs.Enabled {
		t.Fatal("flight snapshot not enabled")
	}
	if fs.SLO.Enabled {
		t.Error("SLO tracker must stay off on the virtual clock")
	}
	if fs.Breaches == 0 {
		t.Fatal("the larger demotion did not breach the EWMA threshold")
	}
	if fs.Captured != fs.Breaches {
		t.Fatalf("captured %d != breaches %d (no watchdog, no aborts: every breach must capture)",
			fs.Captured, fs.Breaches)
	}
	for _, o := range fs.Outliers {
		if o.Kind != lifecycle.KindLatency {
			t.Fatalf("unexpected non-latency record: %+v", o)
		}
		for st, ts := range o.TS {
			if ts == 0 {
				t.Errorf("outlier seq %d missing stage %s", o.Seq, lifecycle.Stage(st))
			}
		}
		if o.LatencyNs <= o.ThresholdNs {
			t.Errorf("outlier seq %d latency %d within threshold %d", o.Seq, o.LatencyNs, o.ThresholdNs)
		}
	}
}

// Racing application writes abort transactional demotions; every abort
// lands in the flight ring as a txn_abort domain event.
func TestFlightRecordsTxnAbortEvents(t *testing.T) {
	m, d := setup()
	opts := DefaultOptions()
	opts.Flight = aggressiveFlight()
	sd := New(d, opts)
	m.Eng.Spawn("app", func(p *sim.Proc) {
		defer d.Close()
		defer sd.Stop()
		const regionBytes = 3 << 20
		b, _ := d.AS.Mmap(p, regionBytes, hw.NodeSlow, "hot")
		migrateIn(t, d, p, b, regionBytes)
		if _, err := d.AS.Mmap(p, regionBytes, hw.NodeFast, "ballast"); err != nil {
			t.Fatal(err)
		}
		sd.Register(b, regionBytes)
		for i := 0; i < 40; i++ {
			p.SleepNS(200_000)
			if err := d.AS.Write(p, b, []byte{0xEE}); err != nil {
				t.Fatalf("write during demotion: %v", err)
			}
		}
	})
	m.Eng.Run()

	st := sd.Metrics()
	if st.Aborts == 0 {
		t.Fatal("no demotion was aborted by the racing writes")
	}
	fs := st.Flight
	if fs.Events != st.Aborts {
		t.Fatalf("flight events = %d, aborts = %d: every abort must land as a domain event",
			fs.Events, st.Aborts)
	}
	var events int64
	for _, o := range fs.Outliers {
		if o.Kind != lifecycle.KindEvent {
			continue
		}
		events++
		if o.Reason != lifecycle.ReasonTxnAbort {
			t.Errorf("event record reason = %s, want txn_abort", o.Reason)
		}
		if o.Bytes == 0 {
			t.Errorf("event record carries no byte count: %+v", o)
		}
	}
	if events == 0 {
		t.Error("no txn_abort records retained in the ring")
	}
}

// Flight.Disable opts the daemon out entirely: snapshots come back
// disarmed and the completion path pays nothing.
func TestFlightDisable(t *testing.T) {
	m, d := setup()
	opts := DefaultOptions()
	opts.Flight.Disable = true
	sd := New(d, opts)
	m.Eng.Spawn("app", func(p *sim.Proc) {
		defer d.Close()
		defer sd.Stop()
		b, _ := d.AS.Mmap(p, 2<<20, hw.NodeSlow, "r")
		migrateIn(t, d, p, b, 2<<20)
		sd.Register(b, 2<<20)
		p.SleepNS(5_000_000)
	})
	m.Eng.Run()
	if fs := sd.Metrics().Flight; fs.Enabled {
		t.Error("disabled daemon still reports an armed flight snapshot")
	}
}
