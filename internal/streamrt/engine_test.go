package streamrt

import (
	"errors"
	"math/bits"
	"math/rand"
	"strings"
	"sync"
	"testing"

	"memif/internal/core"
	"memif/internal/hw"
	"memif/internal/obs"
	"memif/internal/obs/lifecycle"
	"memif/internal/sim"
	"memif/internal/uapi"
	"memif/internal/workloads"
)

// TestEngineMultiStreamChecksums is the tentpole's happy path: three
// streams multiplex over one engine concurrently (one proc each), every
// checksum matches the input, and the ring is mmap'd O(ring size) —
// never per chunk. Beside them a foreground prober ping-pongs one page
// through a sibling device on the same DMA engine every 50 µs, 20 ms
// alone and then for as long as the streams ingest: its p99 under ingest
// must stay in the log2 histogram bucket of its uncontended p99 (32767 ns
// both; virtual time, so the reading repeats). A probe queues behind at
// most the one sub-transfer that holds the channel — a fill moves as a
// train of 64 KiB, 12.8 µs each (core's channelQuantum) — where it used
// to wait out a whole 512 KiB fill, one bucket up.
func TestEngineMultiStreamChecksums(t *testing.T) {
	m, d := setup()
	app := core.Open(m, d.AS, core.DefaultOptions())
	var e *Engine
	want := make([]uint64, 3)
	handles := make([]*Stream, 3)
	results := make([]Result, 3)
	var aloneHist, ingestHist obs.Histogram
	ingestStart := sim.Time(0) // 0 until the prober's baseline window closes
	ingestDone := false
	m.Eng.Spawn("prober", func(p *sim.Proc) {
		defer app.Close()
		page, err := d.AS.Mmap(p, 4096, hw.NodeSlow, "probe")
		if err != nil {
			t.Error(err)
			return
		}
		dst := hw.NodeFast
		probe := func(h *obs.Histogram) {
			lat, ok, err := workloads.MoveSync(p, app, uapi.OpMigrate, page, 0, 4096, dst)
			if err != nil {
				t.Errorf("probe submit: %v", err)
			}
			if ok {
				h.Observe(lat)
				dst = 1 - dst // NodeFast <-> NodeSlow
			}
			p.SleepNS(50_000)
		}
		for p.Now() < 20_000_000 {
			probe(&aloneHist)
		}
		ingestStart = p.Now()
		for !ingestDone {
			probe(&ingestHist)
		}
		if err := d.AS.Munmap(p, page); err != nil { // leave the fast node as found
			t.Error(err)
		}
	})
	m.Eng.Spawn("main", func(p *sim.Proc) {
		defer d.Close()
		opts := DefaultEngineOptions()
		opts.NumBufs = 6
		length := int64(24) * opts.BufBytes
		bases := make([]int64, 3)
		for i := range bases {
			var err error
			if bases[i], err = d.AS.Mmap(p, length, hw.NodeSlow, "input"); err != nil {
				t.Fatal(err)
			}
			if want[i], err = workloads.FillInput(p, d.AS, bases[i], length, uint64(i+1)); err != nil {
				t.Fatal(err)
			}
		}
		for ingestStart == 0 {
			p.SleepNS(500_000)
		}
		var err error
		e, err = OpenEngine(p, d, opts)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 3; i++ {
			i := i
			s, err := e.OpenStream(p, StreamSpec{
				Kernel: workloads.Triad, Base: bases[i], Length: length,
				Class: uapi.ClassBackground, Credits: 2,
			})
			if err != nil {
				t.Fatal(err)
			}
			handles[i] = s
			m.Eng.Spawn(s.Name(), func(cp *sim.Proc) {
				results[i], err = s.Run(cp)
				if err != nil {
					t.Errorf("stream %d: %v", i, err)
				}
			})
		}
		settled := func(s *Stream) bool { return s.Done() || s.Err() != nil }
		for !(settled(handles[0]) && settled(handles[1]) && settled(handles[2])) {
			p.SleepNS(100_000)
		}
		e.Close(p)
		ingestDone = true
	})
	m.Eng.Run()
	for i := range results {
		if results[i].Checksum != want[i] {
			t.Errorf("stream %d checksum = %#x, want %#x", i, results[i].Checksum, want[i])
		}
		if results[i].FastChunks == 0 {
			t.Errorf("stream %d never consumed a ring buffer", i)
		}
	}
	es := e.Snapshot()
	if es.BufMmaps != int64(es.RingBufs) {
		t.Errorf("BufMmaps = %d, want ring size %d (buffers must be recycled, not re-carved)", es.BufMmaps, es.RingBufs)
	}
	if es.Fills <= es.FillBatches {
		t.Errorf("fills %d ≤ batches %d: SubmitBatch never coalesced grants", es.Fills, es.FillBatches)
	}
	if es.Stalls != 0 {
		t.Errorf("engine recorded %d stalls", es.Stalls)
	}
	if es.FastChunks+es.SlowChunks != 3*24 {
		t.Errorf("%d fast + %d slow chunks consumed, want %d", es.FastChunks, es.SlowChunks, 3*24)
	}
	if es.StreamsOpened != 3 || es.StreamsClosed != 3 || es.OpenStreams != 0 {
		t.Errorf("stream lifecycle counts: %+v", es)
	}
	if used := d.AS.Mem.Used(hw.NodeFast); used != 0 {
		t.Errorf("fast node still holds %d bytes after engine close", used)
	}
	alone, ingest := aloneHist.Snapshot(), ingestHist.Snapshot()
	if alone.Count == 0 || ingest.Count == 0 {
		t.Fatalf("prober recorded %d moves alone, %d under ingest", alone.Count, ingest.Count)
	}
	ap, ip := alone.Quantile(0.99), ingest.Quantile(0.99)
	t.Logf("prober p99: %d ns alone (%d moves), %d ns under ingest (%d moves)", ap, alone.Count, ip, ingest.Count)
	if b := bits.Len64(uint64(ip)) - bits.Len64(uint64(ap)); b != 0 {
		t.Errorf("foreground p99 under ingest (%d ns) is %d log2 buckets from its baseline (%d ns)", ip, b, ap)
	}
}

// checkLedger asserts the credit invariants for one stream:
// 0 ≤ in-flight ≤ total, available+inFlight conserved, and granted −
// returned == in-flight.
func checkLedger(t *testing.T, s *Stream) {
	t.Helper()
	c := &s.credits
	if c.inFlight < 0 || c.inFlight > c.total {
		t.Fatalf("stream %d: in-flight credits %d outside [0, %d]", s.id, c.inFlight, c.total)
	}
	if c.available()+c.inFlight != c.total {
		t.Fatalf("stream %d: credits not conserved: avail %d + inflight %d != total %d",
			s.id, c.available(), c.inFlight, c.total)
	}
	if c.granted-c.returned != int64(c.inFlight) {
		t.Fatalf("stream %d: granted %d - returned %d != in-flight %d",
			s.id, c.granted, c.returned, c.inFlight)
	}
	// In-flight credits are exactly outstanding fills + ready buffers;
	// ready buffers are a subset, so ready can never exceed in-flight.
	if len(s.ready) > c.inFlight {
		t.Fatalf("stream %d: %d ready buffers > %d in-flight credits", s.id, len(s.ready), c.inFlight)
	}
}

// TestCreditInvariantsProperty drives three streams through a seeded
// random schedule of consume/close steps on one proc, checking the
// ledger invariants after every step — the credit protocol's property
// test across refill, consume, fallback and cancel.
func TestCreditInvariantsProperty(t *testing.T) {
	for _, seed := range []int64{1, 7, 42, 1234} {
		m, d := setup()
		m.Eng.Spawn("prop", func(p *sim.Proc) {
			defer d.Close()
			rng := rand.New(rand.NewSource(seed))
			opts := DefaultEngineOptions()
			opts.BufBytes = 16 << 10
			opts.NumBufs = 5
			e, err := OpenEngine(p, d, opts)
			if err != nil {
				t.Fatal(err)
			}
			var streams []*Stream
			for i := 0; i < 3; i++ {
				length := int64(8+rng.Intn(24)) * opts.BufBytes
				base, err := d.AS.Mmap(p, length, hw.NodeSlow, "input")
				if err != nil {
					t.Fatal(err)
				}
				if _, err := workloads.FillInput(p, d.AS, base, length, uint64(seed)); err != nil {
					t.Fatal(err)
				}
				s, err := e.OpenStream(p, StreamSpec{
					Kernel: workloads.Add, Base: base, Length: length,
					Credits: 1 + rng.Intn(3),
				})
				if err != nil {
					t.Fatal(err)
				}
				streams = append(streams, s)
			}
			live := append([]*Stream(nil), streams...)
			for steps := 0; len(live) > 0 && steps < 500; steps++ {
				i := rng.Intn(len(live))
				s := live[i]
				var done bool
				switch {
				case rng.Intn(10) == 0: // cancel mid-flight
					s.Close(p)
					done = true
				default:
					var err error
					done, err = s.Consume(p)
					if err != nil {
						t.Fatalf("seed %d: consume: %v", seed, err)
					}
				}
				for _, x := range streams {
					checkLedger(t, x)
				}
				if done {
					s.Close(p)
					live = append(live[:i], live[i+1:]...)
				}
			}
			e.Close(p)
			for _, s := range streams {
				checkLedger(t, s)
				if s.credits.inFlight != 0 {
					t.Errorf("seed %d: stream %d closed with %d credits in flight", seed, s.id, s.credits.inFlight)
				}
			}
		})
		m.Eng.Run()
	}
}

// TestCreditFairnessOneToTwo: two streams with a 1:2 credit split share
// the fill pipeline 1:2 — over a fixed contention window, fast-chunk
// counts land within ±10% of the credit ratio. The consumers are
// "patient": they only take the fast path (white-box check on ready),
// so the measurement isolates credit-paced fill bandwidth from the
// fallback path's extra slow-node claims.
func TestCreditFairnessOneToTwo(t *testing.T) {
	m, d := setup()
	m.Mem.DisableData()
	var a, b *Stream
	stopped := false
	m.Eng.Spawn("main", func(p *sim.Proc) {
		defer d.Close()
		opts := DefaultEngineOptions()
		opts.NumBufs = 6 // exactly the credit sum: always contended
		e, err := OpenEngine(p, d, opts)
		if err != nil {
			t.Fatal(err)
		}
		// Far more input than the window can drain: contention never ends.
		length := int64(4096) * opts.BufBytes
		baseA, _ := d.AS.Mmap(p, length, hw.NodeSlow, "a")
		baseB, _ := d.AS.Mmap(p, length, hw.NodeSlow, "b")
		a, err = e.OpenStream(p, StreamSpec{Kernel: workloads.Copy, Base: baseA, Length: length, Credits: 2, Name: "one"})
		if err != nil {
			t.Fatal(err)
		}
		b, err = e.OpenStream(p, StreamSpec{Kernel: workloads.Copy, Base: baseB, Length: length, Credits: 4, Name: "two"})
		if err != nil {
			t.Fatal(err)
		}
		for _, s := range []*Stream{a, b} {
			s := s
			m.Eng.Spawn(s.Name(), func(cp *sim.Proc) {
				for !stopped && !s.closed {
					e.drain(cp)
					if len(s.ready) > 0 {
						if _, err := s.Consume(cp); err != nil {
							t.Errorf("%s: %v", s.Name(), err)
							return
						}
						continue
					}
					e.d.Poll(cp, tailPollQuantumNS)
				}
			})
		}
		p.SleepNS(25_000_000) // 25 ms contention window
		stopped = true
		e.Close(p)
	})
	m.Eng.Run()
	fa, fb := a.Stats().FastChunks, b.Stats().FastChunks
	if fa == 0 || fb == 0 {
		t.Fatalf("degenerate fast-chunk counts: a=%d b=%d", fa, fb)
	}
	ratio := float64(fb) / float64(fa)
	t.Logf("fast chunks in window: credits2=%d credits4=%d (ratio %.2f)", fa, fb, ratio)
	if ratio < 1.8 || ratio > 2.2 {
		t.Errorf("fill share ratio = %.2f, want 2.0 ±10%%", ratio)
	}
	if as, bs := a.Stats(), b.Stats(); as.SlowChunks != 0 || bs.SlowChunks != 0 {
		t.Errorf("patient consumers took the fallback: %d/%d slow chunks", as.SlowChunks, bs.SlowChunks)
	}
}

// TestChaosCloseMidFlight closes one stream mid-flight while two
// siblings keep streaming, with a real-time goroutine hammering
// Snapshot throughout — the -race test for the scrape path.
func TestChaosCloseMidFlight(t *testing.T) {
	m, d := setup()
	var e *Engine
	var victim, s1, s2 *Stream
	want := make([]uint64, 3)
	var res1, res2 Result
	stop := make(chan struct{})
	var scraped sync.WaitGroup

	m.Eng.Spawn("main", func(p *sim.Proc) {
		defer d.Close()
		opts := DefaultEngineOptions()
		opts.NumBufs = 6
		var err error
		e, err = OpenEngine(p, d, opts)
		if err != nil {
			t.Fatal(err)
		}
		// Start the scraper only once the engine exists.
		scraped.Add(1)
		go func() {
			defer scraped.Done()
			for {
				select {
				case <-stop:
					return
				default:
					es := e.Snapshot()
					if es.FreeBufs < 0 || es.FreeBufs > es.RingBufs {
						t.Errorf("scrape saw free bufs %d outside ring %d", es.FreeBufs, es.RingBufs)
						return
					}
				}
			}
		}()
		length := int64(32) * opts.BufBytes
		open := func(i int, name string) *Stream {
			base, err := d.AS.Mmap(p, length, hw.NodeSlow, name)
			if err != nil {
				t.Fatal(err)
			}
			if want[i], err = workloads.FillInput(p, d.AS, base, length, uint64(i+9)); err != nil {
				t.Fatal(err)
			}
			s, err := e.OpenStream(p, StreamSpec{
				Kernel: workloads.Add, Base: base, Length: length, Credits: 2, Name: name,
			})
			if err != nil {
				t.Fatal(err)
			}
			return s
		}
		victim, s1, s2 = open(0, "victim"), open(1, "sib1"), open(2, "sib2")
		m.Eng.Spawn("victim", func(cp *sim.Proc) {
			for i := 0; i < 5; i++ {
				if _, err := victim.Consume(cp); err != nil {
					t.Errorf("victim: %v", err)
				}
			}
			victim.Close(cp) // mid-flight: fills still outstanding
			if _, err := victim.Consume(cp); !errors.Is(err, ErrStreamClosed) {
				t.Errorf("consume after close = %v, want ErrStreamClosed", err)
			}
		})
		m.Eng.Spawn("sib1", func(cp *sim.Proc) {
			var err error
			if res1, err = s1.Run(cp); err != nil {
				t.Errorf("sib1: %v", err)
			}
		})
		m.Eng.Spawn("sib2", func(cp *sim.Proc) {
			var err error
			if res2, err = s2.Run(cp); err != nil {
				t.Errorf("sib2: %v", err)
			}
		})
		for !((s1.Done() || s1.Err() != nil) && (s2.Done() || s2.Err() != nil)) {
			p.SleepNS(100_000)
		}
		e.Close(p)
	})
	m.Eng.Run()
	close(stop)
	scraped.Wait()
	if res1.Checksum != want[1] || res2.Checksum != want[2] {
		t.Errorf("sibling checksums: %#x/%#x want %#x/%#x", res1.Checksum, res2.Checksum, want[1], want[2])
	}
	vs := victim.Stats()
	if !vs.Closed || vs.CreditsInFlight != 0 {
		t.Errorf("victim not fully drained: %+v", vs)
	}
	if es := e.Snapshot(); es.Stalls != 0 || es.OpenStreams != 0 {
		t.Errorf("post-close snapshot: stalls=%d open=%d", es.Stalls, es.OpenStreams)
	}
	if used := d.AS.Mem.Used(hw.NodeFast); used != 0 {
		t.Errorf("fast node still holds %d bytes", used)
	}
}

// TestFillFailureErrNotClobberedBySlotReuse pins a use-after-free fix:
// formatting r.Err after FreeRequest(r) is a bug, because FreeRequest
// yields (it charges CPU), so another proc can reallocate the slot and
// overwrite Err before the error string is built. The engine captures
// Status/Err before freeing; with a recycler proc aggressively reusing
// freed slots, the surfaced error must still name the real failure
// code, not the recycler's overwrite.
func TestFillFailureErrNotClobberedBySlotReuse(t *testing.T) {
	m, d := setup()
	var runErr error
	recycle := true
	m.Eng.Spawn("recycler", func(p *sim.Proc) {
		for recycle {
			if r := d.AllocRequest(p); r != nil {
				r.Err = uapi.ErrNone // clobber: reads-after-free see "ok"
				d.FreeRequest(p, r)
			}
			p.SleepNS(50)
		}
	})
	m.Eng.Spawn("app", func(p *sim.Proc) {
		defer d.Close()
		defer func() { recycle = false }()
		cfg := DefaultConfig()
		length := int64(4) * cfg.BufBytes
		base, _ := d.AS.Mmap(p, length, hw.NodeSlow, "input")
		// Input range extends past the mapping: the fill of the last
		// chunk fails with badreq.
		_, runErr = run(p, d, workloads.Add, base+cfg.BufBytes, length, cfg)
	})
	m.Eng.Run()
	if runErr == nil {
		t.Fatal("fill of an unmapped chunk reported success")
	}
	if !strings.Contains(runErr.Error(), uapi.ErrBadRequest.String()) {
		t.Errorf("error %q lost the failure code %q (read after FreeRequest?)",
			runErr, uapi.ErrBadRequest.String())
	}
	if strings.Contains(runErr.Error(), uapi.ErrNone.String()) {
		t.Errorf("error %q carries the recycler's clobbered code", runErr)
	}
}

// TestOpenStreamValidationAndLifecycle covers the error taxonomy:
// rejected specs, the stream cap, and operations on closed handles/engines.
func TestOpenStreamValidationAndLifecycle(t *testing.T) {
	m, d := setup()
	m.Eng.Spawn("app", func(p *sim.Proc) {
		defer d.Close()
		opts := DefaultEngineOptions()
		if _, err := OpenEngine(p, d, EngineOptions{Config: Config{BufBytes: 100, NumBufs: 1}}); !errors.Is(err, ErrBadStream) {
			t.Errorf("unaligned BufBytes: %v", err)
		}
		e, err := OpenEngine(p, d, opts)
		if err != nil {
			t.Fatal(err)
		}
		base, _ := d.AS.Mmap(p, 4*opts.BufBytes, hw.NodeSlow, "input")
		bad := []StreamSpec{
			{Kernel: workloads.Add, Base: base, Length: opts.BufBytes + 1},
			{Kernel: workloads.Add, Base: base, Length: -opts.BufBytes},
			{Kernel: workloads.Add, Base: -1, Length: opts.BufBytes},
			{Kernel: workloads.Add, Base: base, Length: opts.BufBytes, Class: 9},
			{Kernel: workloads.Add, Base: base, Length: opts.BufBytes, Credits: MaxCredits + 1},
			{Kernel: workloads.Add, Base: base, Length: opts.BufBytes, Name: "no spaces"},
		}
		for i, sp := range bad {
			if _, err := e.OpenStream(p, sp); !errors.Is(err, ErrBadStream) {
				t.Errorf("bad spec %d accepted (err=%v)", i, err)
			}
		}
		var s *Stream
		for i := 0; i < maxStreams; i++ {
			if s, err = e.OpenStream(p, StreamSpec{Kernel: workloads.Add, Base: base, Length: opts.BufBytes}); err != nil {
				t.Fatalf("stream %d of %d: %v", i+1, maxStreams, err)
			}
		}
		if _, err := e.OpenStream(p, StreamSpec{Kernel: workloads.Add, Base: base, Length: opts.BufBytes}); !errors.Is(err, ErrBadStream) {
			t.Errorf("stream cap not enforced: %v", err)
		}
		s.Close(p)
		if _, err := s.Consume(p); !errors.Is(err, ErrStreamClosed) {
			t.Errorf("consume on closed stream: %v", err)
		}
		e.Close(p)
		e.Close(p) // idempotent
		if _, err := e.OpenStream(p, StreamSpec{Kernel: workloads.Add, Base: base, Length: opts.BufBytes}); !errors.Is(err, ErrStreamClosed) {
			t.Errorf("open on closed engine: %v", err)
		}
	})
	m.Eng.Run()
}

// TestFlightCapturesSlowFills: fills that breach the adaptive threshold
// land in the flight ring with the stream's tenant lane and a complete
// stage vector — the /debug/outliers food chain for slow fills.
func TestFlightCapturesSlowFills(t *testing.T) {
	m, d := setup()
	var e *Engine
	var sid int
	m.Eng.Spawn("app", func(p *sim.Proc) {
		defer d.Close()
		opts := DefaultEngineOptions()
		opts.Flight = lifecycle.FlightOptions{
			ThresholdFloorNs: 1,
			ThresholdMult:    1,
			Warmup:           1,
		}
		var err error
		e, err = OpenEngine(p, d, opts)
		if err != nil {
			t.Fatal(err)
		}
		length := int64(32) * opts.BufBytes
		base, _ := d.AS.Mmap(p, length, hw.NodeSlow, "input")
		if _, err := workloads.FillInput(p, d.AS, base, length, 5); err != nil {
			t.Fatal(err)
		}
		s, err := e.OpenStream(p, StreamSpec{
			Kernel: workloads.PGain, Base: base, Length: length,
			Class: uapi.ClassBackground, Credits: 4, Name: "ingest",
		})
		if err != nil {
			t.Fatal(err)
		}
		sid = s.Stats().ID
		if _, err := s.Run(p); err != nil {
			t.Fatal(err)
		}
		e.Close(p)
	})
	m.Eng.Run()
	fs := e.Snapshot().Flight
	if !fs.Enabled || fs.Breaches == 0 || len(fs.Outliers) == 0 {
		t.Fatalf("no breaches captured: breaches=%d outliers=%d", fs.Breaches, len(fs.Outliers))
	}
	for _, o := range fs.Outliers {
		if o.Kind != lifecycle.KindLatency {
			continue
		}
		if int(o.Tenant) != sid {
			t.Errorf("outlier tenant = %d, want stream %d", o.Tenant, sid)
		}
		if o.Class != int(uapi.ClassBackground) {
			t.Errorf("outlier class = %d", o.Class)
		}
		var last int64
		for st := 0; st < lifecycle.NumStages; st++ {
			if o.TS[st] == 0 {
				t.Fatalf("outlier seq %d: stage %d never stamped: %+v", o.Seq, st, o.TS)
			}
			if o.TS[st] < last {
				t.Fatalf("outlier seq %d: stage %d goes backwards: %+v", o.Seq, st, o.TS)
			}
			last = o.TS[st]
		}
	}
	names := e.Snapshot().StreamNames
	if len(names) != 1 || names[0] != "ingest" {
		t.Errorf("StreamNames = %v", names)
	}
}
