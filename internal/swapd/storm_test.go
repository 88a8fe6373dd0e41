package swapd

import (
	"flag"
	"fmt"
	"math/bits"
	"math/rand"
	"os"
	"strings"
	"testing"

	"memif/internal/hw"
	"memif/internal/obs"
	"memif/internal/obs/lifecycle"
	"memif/internal/sim"
	"memif/internal/uapi"
	"memif/internal/workloads"
)

var update = flag.Bool("update", false, "rewrite testdata/storm.golden from this run instead of comparing")

// The whole daemon in one virtual-time run: a 400 MB slow-tier dataset
// (102,400 pages in 64 KB regions) under Zipf-skewed reads whose hot set
// shifts every epoch, a writer trailing one epoch behind so demotions
// race real stores, and a foreground prober ping-ponging one page through
// the application device every 50 µs — 20 ms alone, then under the storm.
// Every migration path must fire, and the prober's p99 under the storm
// must stay within one log2 histogram bucket of its uncontended p99.
// Virtual time and fixed seeds make the run repeat exactly: 103
// promotions, 34 demotions (2 zero-copy), 32 aborts (all txn-dirty, none
// failed), fg p99 32767 ns alone and 65535 ns under the storm; the whole
// snapshot is pinned in testdata/storm.golden.
func TestStormAllPathsFireAndForegroundHolds(t *testing.T) {
	const (
		pageBytes   = 4096
		regionBytes = 16 * pageBytes
		numRegions  = 6400
		baselineNS  = 20_000_000
		epochs      = 3
		epochNS     = 10_000_000
		zipfS       = 1.2
	)
	m, app := setup()
	as := app.AS
	opts := DefaultOptions()
	// The promotion rate is MaxInflight-bound, so a 30 ms storm must hit
	// pressure with ~70 resident regions rather than the default ~90.
	opts.HighWatermark, opts.LowWatermark = 0.72, 0.55
	opts.PeriodNS = 500_000
	opts.ScanPeriodNS = 1_000_000
	opts.MaxInflight = 8
	opts.ScanBudget = 400
	sd := New(app, opts)

	var (
		bases      [numRegions]int64
		stormStart sim.Time // 0 until the baseline window closes
		stormDone  bool
		baseHist   obs.Histogram
		stormHist  obs.Histogram
	)
	m.Eng.Spawn("fg", func(p *sim.Proc) {
		defer app.Close()
		defer sd.Stop()
		for i := range bases {
			b, err := as.Mmap(p, regionBytes, hw.NodeSlow, fmt.Sprintf("t%d", i))
			if err != nil {
				t.Error(err)
				return
			}
			bases[i] = b
			sd.Register(b, regionBytes)
		}
		fgBase, _ := as.Mmap(p, pageBytes, hw.NodeSlow, "fg-probe")
		if err := as.Write(p, fgBase, []byte{1}); err != nil {
			t.Error(err)
			return
		}
		dst := hw.NodeFast
		probe := func(h *obs.Histogram) {
			// A move that fails (fast node transiently full) is retried
			// to the same node next period and not observed.
			if lat, ok, _ := workloads.MoveSync(p, app, uapi.OpMigrate, fgBase, 0, pageBytes, dst); ok {
				h.Observe(lat)
				dst = 1 - dst // NodeFast <-> NodeSlow
			}
			p.SleepNS(50_000)
		}
		for start := p.Now(); p.Now() < start+baselineNS; {
			probe(&baseHist)
		}
		stormStart = p.Now()
		for !stormDone {
			probe(&stormHist)
		}
	})
	// The reader drives the hot set: a Touch hint plus a real read, so
	// the access-bit scanner sees referenced-but-clean pages.
	m.Eng.Spawn("reader", func(p *sim.Proc) {
		zipf := rand.NewZipf(rand.New(rand.NewSource(42)), zipfS, 1, numRegions-1)
		for stormStart == 0 {
			p.SleepNS(500_000)
		}
		for e := 0; e < epochs; e++ {
			for end := stormStart + sim.Time((e+1)*epochNS); p.Now() < end; {
				b := bases[(int(zipf.Uint64())+e*997)%numRegions]
				sd.Touch(b, p.Now())
				if err := as.Touch(p, b, false); err != nil {
					t.Error(err)
					return
				}
				p.SleepNS(3_000)
			}
		}
		stormDone = true
	})
	// The writer keeps storing into the previous epoch's hot set — regions
	// that have gone cold and are being demoted — so commits race real
	// dirty bits.
	m.Eng.Spawn("writer", func(p *sim.Proc) {
		zipf := rand.NewZipf(rand.New(rand.NewSource(1337)), zipfS, 1, numRegions-1)
		for stormStart == 0 {
			p.SleepNS(500_000)
		}
		for e := 0; e < epochs; e++ {
			stride := max(e-1, 0) * 997
			for end := stormStart + sim.Time((e+1)*epochNS); p.Now() < end && !stormDone; {
				if err := as.Write(p, bases[(int(zipf.Uint64())+stride)%numRegions], []byte{0xEE}); err != nil {
					t.Error(err)
					return
				}
				p.SleepNS(4_000)
			}
		}
	})
	m.Eng.Run()

	st := sd.Metrics()
	if st.Promotions == 0 || st.Demotions == 0 || st.ZeroCopyDemotions == 0 || st.Aborts == 0 {
		t.Errorf("a migration path never fired: promotions %d, demotions %d (zero-copy %d), aborts %d",
			st.Promotions, st.Demotions, st.ZeroCopyDemotions, st.Aborts)
	}
	if lag := sd.Metrics().PromotionLag; lag.Count == 0 || lag.Quantile(0.99) <= 0 {
		t.Errorf("promotion-lag histogram: count %d, p99 %d", lag.Count, lag.Quantile(0.99))
	}
	base, storm := baseHist.Snapshot(), stormHist.Snapshot()
	if base.Count == 0 || storm.Count == 0 {
		t.Fatalf("prober recorded %d baseline / %d storm moves", base.Count, storm.Count)
	}
	bp, sp := base.Quantile(0.99), storm.Quantile(0.99)
	t.Logf("promotions %d, demotions %d (zero-copy %d), aborts %d; fg p99 %d ns alone, %d ns under the storm",
		st.Promotions, st.Demotions, st.ZeroCopyDemotions, st.Aborts, bp, sp)
	if d := bits.Len64(uint64(sp)) - bits.Len64(uint64(bp)); d > 1 || d < -1 {
		t.Errorf("foreground p99 under migration (%d ns) is %d log2 buckets from its baseline (%d ns)", sp, d, bp)
	}
	if err := sd.Audit(); err != nil {
		t.Errorf("slot conservation after the storm: %v", err)
	}
	checkStormGolden(t, renderMetrics(sd.Metrics()))
}

// renderMetrics prints everything a run determines in a daemon
// snapshot: the counters, the non-empty buckets of the latency, size,
// promotion-lag and stage-span histograms, the flight counters and lane
// thresholds, and the number of records in the flight ring.
func renderMetrics(ms MetricsSnapshot) string {
	var b strings.Builder
	fmt.Fprintf(&b, "promotions %d\ndemotions %d\nzero_copy_demotions %d\naborts %d\nfailed %d\n",
		ms.Promotions, ms.Demotions, ms.ZeroCopyDemotions, ms.Aborts, ms.Failed)
	fmt.Fprintf(&b, "bytes_promoted %d\nbytes_demoted %d\nbytes_moved %d\n",
		ms.BytesPromoted, ms.BytesDemoted, ms.BytesMoved)
	hist := func(name string, h obs.HistogramSnapshot) {
		fmt.Fprintf(&b, "%s count=%d sum=%d", name, h.Count, h.Sum)
		for i, n := range h.Buckets {
			if n != 0 {
				fmt.Fprintf(&b, " %d:%d", i, n)
			}
		}
		b.WriteByte('\n')
	}
	hist("latency", ms.Latency)
	hist("sizes", ms.Sizes)
	hist("promotion_lag", ms.PromotionLag)
	for s, h := range ms.Stages.Spans {
		hist("span_"+lifecycle.Span(s).String(), h)
	}
	f := ms.Flight
	fmt.Fprintf(&b, "flight enabled=%v ring_depth=%d breaches=%d stalls=%d events=%d captured=%d outliers=%d\n",
		f.Enabled, f.RingDepth, f.Breaches, f.Stalls, f.Events, f.Captured, len(f.Outliers))
	for _, th := range f.Thresholds {
		fmt.Fprintf(&b, "threshold class=%d tenant=%d ewma=%d threshold=%d count=%d\n",
			th.Class, th.Tenant, th.EWMANs, th.ThresholdNs, th.Count)
	}
	return b.String()
}

// checkStormGolden compares the storm's rendered snapshot with
// testdata/storm.golden, rendered at PR 24's commit: no workload of the
// benchmark runs the daemon, so this is the evidence that a refactor of
// it changed nothing (-update rewrites the file instead).
func checkStormGolden(t *testing.T, got string) {
	t.Helper()
	const path = "testdata/storm.golden"
	if *update {
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		t.Errorf("storm snapshot moved from %s:\n--- got\n%s--- want\n%s", path, got, want)
	}
}
