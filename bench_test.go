// Benchmarks regenerating the paper's tables and figures. Each bench
// runs the corresponding experiment on the simulated machine and reports
// the paper's metric via b.ReportMetric (virtual-time throughput/latency
// — wall-clock ns/op only measures the simulator itself).
//
//	go test -bench=. -benchmem
//
// Mapping: BenchmarkSec22* -> Section 2.2 motivation; BenchmarkFig6* ->
// Figure 6; BenchmarkFig7* -> Figure 7; BenchmarkFig8* -> Figure 8;
// BenchmarkTable4* -> Table 4; BenchmarkAblation* -> DESIGN.md section 5.
// The red-blue queue benches run with real goroutine concurrency.
package memif_test

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"memif"
	"memif/internal/bench"
	"memif/internal/hw"
	"memif/internal/rbq"
)

func sizeLabel(b int64) string {
	if b >= 1<<20 {
		return fmt.Sprintf("%dMB", b>>20)
	}
	return fmt.Sprintf("%dKB", b>>10)
}

// BenchmarkSec22LinuxMigration reproduces the Section 2.2 baseline
// throughputs (paper: ARM 0.30 GB/s; Xeon 0.66 GB/s; Xeon@1M 1.41 GB/s).
func BenchmarkSec22LinuxMigration(b *testing.B) {
	for _, row := range bench.Sec22() {
		row := row
		name := fmt.Sprintf("%s/pages=%d", row.Platform, row.Pages)
		b.Run(name, func(b *testing.B) {
			var last bench.Sec22Row
			for i := 0; i < b.N; i++ {
				last = row
			}
			b.ReportMetric(last.GBs, "GB/s")
			b.ReportMetric(last.PaperGBs, "paper-GB/s")
		})
	}
}

// BenchmarkFig6 regenerates the Figure 6 cells: per-request breakdown
// time and CPU usage for each system at each page granularity.
func BenchmarkFig6(b *testing.B) {
	for _, size := range []int64{hw.Page4K, hw.Page64K, hw.Page2M} {
		for _, pages := range []int{1, 16, 64} {
			for _, sys := range bench.Systems {
				name := fmt.Sprintf("%s/size=%s/pages=%d", sys, sizeLabel(size), pages)
				b.Run(name, func(b *testing.B) {
					var r bench.Fig6Result
					for i := 0; i < b.N; i++ {
						r = bench.Fig6(sys, size, pages)
					}
					b.ReportMetric(r.Elapsed.Micros(), "elapsed-µs")
					b.ReportMetric(float64(r.CPUBusy)/1e3, "cpu-µs")
					b.ReportMetric(r.CPUUsage*100, "cpu-%")
				})
			}
		}
	}
}

// BenchmarkFig7 regenerates the Figure 7 latency series (paper: memif
// delivers each notification right after its request completes, with one
// syscall; batching trades latency against syscall count).
func BenchmarkFig7(b *testing.B) {
	run := func(name string, fn func() bench.Fig7Series) {
		b.Run(name, func(b *testing.B) {
			var s bench.Fig7Series
			for i := 0; i < b.N; i++ {
				s = fn()
			}
			b.ReportMetric(s.Latency[0].Micros(), "first-µs")
			b.ReportMetric(s.Latency[len(s.Latency)-1].Micros(), "last-µs")
			b.ReportMetric(float64(s.Syscalls), "syscalls")
		})
	}
	run("memif", bench.Fig7Memif)
	run("linux-batch1", func() bench.Fig7Series { return bench.Fig7Linux(1) })
	run("linux-batch4", func() bench.Fig7Series { return bench.Fig7Linux(4) })
	run("linux-batch8", func() bench.Fig7Series { return bench.Fig7Linux(8) })
}

// BenchmarkFig8 regenerates the Figure 8 throughput bars (paper: memif
// beats migspeed by >=40% on small pages outside the 1-page extreme and
// by up to ~3x on 2MB pages; replication beats migration).
func BenchmarkFig8(b *testing.B) {
	for _, size := range []int64{hw.Page4K, hw.Page64K, hw.Page2M} {
		for _, pages := range []int{1, 16, 64} {
			for _, sys := range bench.Systems {
				name := fmt.Sprintf("%s/size=%s/pages=%d", sys, sizeLabel(size), pages)
				b.Run(name, func(b *testing.B) {
					var r bench.Fig8Result
					for i := 0; i < b.N; i++ {
						r = bench.Fig8(sys, size, pages)
					}
					b.ReportMetric(r.GBs, "GB/s")
				})
			}
		}
	}
}

// BenchmarkTable4 regenerates the streaming case study (paper: pgain
// 1440->1778 MB/s, triad 2384->3184, add 2390->3187).
func BenchmarkTable4(b *testing.B) {
	for _, k := range []memif.StreamKernel{memif.KernelPGain, memif.KernelTriad, memif.KernelAdd} {
		k := k
		b.Run(k.Name, func(b *testing.B) {
			var row bench.Table4Row
			for i := 0; i < b.N; i++ {
				row = bench.Table4Run(k)
			}
			b.ReportMetric(row.LinuxMBs, "linux-MB/s")
			b.ReportMetric(row.MemifMBs, "memif-MB/s")
			b.ReportMetric(row.GainPct, "gain-%")
		})
	}
}

// Ablation benches: the design choices DESIGN.md calls out.

func reportAblation(b *testing.B, fn func() bench.AblationResult) {
	var a bench.AblationResult
	for i := 0; i < b.N; i++ {
		a = fn()
	}
	b.ReportMetric(a.On, "on")
	b.ReportMetric(a.Off, "off")
	b.ReportMetric(a.Factor(), "off/on")
}

// BenchmarkAblationGangLookup: Section 5.1 gang page lookup vs per-page
// vertical walks.
func BenchmarkAblationGangLookup(b *testing.B) { reportAblation(b, bench.AblateGangLookup) }

// BenchmarkAblationDescReuse: Section 5.3 descriptor-chain reuse vs full
// writes.
func BenchmarkAblationDescReuse(b *testing.B) { reportAblation(b, bench.AblateDescReuse) }

// BenchmarkAblationRaceHandling: Section 5.2 race detection vs
// prevention.
func BenchmarkAblationRaceHandling(b *testing.B) { reportAblation(b, bench.AblateRaceHandling) }

// BenchmarkAblationIrqVsPoll: Section 5.4 adaptive completion vs
// all-interrupt.
func BenchmarkAblationIrqVsPoll(b *testing.B) { reportAblation(b, bench.AblateIrqVsPoll) }

// BenchmarkMultiApp measures concurrent applications over one engine
// (beyond the paper; Section 6.7 left it unevaluated).
func BenchmarkMultiApp(b *testing.B) {
	cases := []struct {
		name  string
		size  int64
		pages int
	}{{"cpu-bound-4KBx16", 4 << 10, 16}, {"dma-bound-2MBx4", 2 << 20, 4}}
	for _, c := range cases {
		c := c
		b.Run(c.name, func(b *testing.B) {
			var r bench.MultiAppResult
			for i := 0; i < b.N; i++ {
				r = bench.MultiApp(2, c.size, c.pages)
			}
			b.ReportMetric(r.SoloGBs, "solo-GB/s")
			b.ReportMetric(r.TotalGBs, "total-GB/s")
		})
	}
}

// BenchmarkLimitations measures the Section 6.7 negative result:
// compute-bound workloads gain little.
func BenchmarkLimitations(b *testing.B) {
	var rows []bench.LimitationRow
	for i := 0; i < b.N; i++ {
		rows = bench.Limitations()
	}
	for _, r := range rows {
		b.ReportMetric(r.GainPct, r.Workload+"-gain-%")
	}
}

// BenchmarkProjection measures the projected-platform outlook of
// Section 6.7 (1 GB fast node, 64 KB pages).
func BenchmarkProjection(b *testing.B) {
	var rows []bench.ProjectionRow
	for i := 0; i < b.N; i++ {
		rows = bench.Projection()
	}
	for _, r := range rows {
		b.ReportMetric(r.FutureMBs, r.Workload+"-MB/s")
	}
}

// BenchmarkTLBIndirect measures the indirect TLB cost of migration
// flushes (Section 5.2).
func BenchmarkTLBIndirect(b *testing.B) {
	var r bench.TLBIndirectResult
	for i := 0; i < b.N; i++ {
		r = bench.TLBIndirect()
	}
	b.ReportMetric(r.MissesMigrating, "misses/scan")
	b.ReportMetric(r.OverheadPct, "scan-overhead-%")
}

// BenchmarkRedBlueQueue measures the real (wall-clock, multi-goroutine)
// red-blue queue under the memif submit pattern.
func BenchmarkRedBlueQueue(b *testing.B) {
	for _, procs := range []int{1, 4, 8} {
		b.Run(fmt.Sprintf("goroutines=%d", procs), func(b *testing.B) {
			s := rbq.NewSlab(1 << 16)
			q := s.NewQueue(rbq.Blue)
			b.SetParallelism(procs)
			b.RunParallel(func(pb *testing.PB) {
				for pb.Next() {
					if c, ok := q.Enqueue(7); ok && c == rbq.Blue {
						q.Drain(func(uint32) {})
					}
				}
			})
		})
	}
}

// BenchmarkRealtimeThroughput measures the realtime device (real
// goroutines, real memcpy) streaming copies through the memif protocol.
func BenchmarkRealtimeThroughput(b *testing.B) {
	for _, blockKB := range []int{64, 1024} {
		blockKB := blockKB
		b.Run(fmt.Sprintf("block=%dKB", blockKB), func(b *testing.B) {
			d := memif.OpenRealtime(memif.DefaultRealtimeOptions())
			defer d.Close()
			src := make([]byte, blockKB<<10)
			dst := make([]byte, blockKB<<10)
			b.SetBytes(int64(blockKB) << 10)
			b.ResetTimer()
			outstanding := 0
			for i := 0; i < b.N; i++ {
				var r *memif.RealtimeRequest
				for r == nil {
					if got := d.RetrieveCompleted(); got != nil {
						d.FreeRequest(got)
						outstanding--
						continue
					}
					if r = d.AllocRequest(); r == nil {
						d.Poll(time.Second)
					}
				}
				r.Src, r.Dst = src, dst
				if err := d.Submit(r); err != nil {
					b.Fatal(err)
				}
				outstanding++
			}
			for outstanding > 0 {
				if got := d.RetrieveCompleted(); got != nil {
					d.FreeRequest(got)
					outstanding--
					continue
				}
				d.Poll(time.Second)
			}
			b.StopTimer()
		})
	}
}

// BenchmarkAblationRedBlue compares the red-blue queue (color entangled
// in the CAS'd links) against the alternative the paper rejects: a
// vanilla lock-free queue plus a flag that needs a mutex to stay
// consistent with the queue (Section 4.2 "Why a red-blue queue?").
func BenchmarkAblationRedBlue(b *testing.B) {
	b.Run("redblue", func(b *testing.B) {
		s := rbq.NewSlab(1 << 16)
		q := s.NewQueue(rbq.Blue)
		b.RunParallel(func(pb *testing.PB) {
			for pb.Next() {
				c, _ := q.Enqueue(1)
				if c == rbq.Blue {
					q.Drain(func(uint32) {})
					q.SetColor(rbq.Red)
					q.SetColor(rbq.Blue)
				}
			}
		})
	})
	b.Run("vanilla+mutex-flag", func(b *testing.B) {
		s := rbq.NewSlab(1 << 16)
		q := s.NewQueue(rbq.Blue)
		var mu sync.Mutex
		flag := rbq.Blue
		b.RunParallel(func(pb *testing.PB) {
			for pb.Next() {
				// The flag must be read atomically with the enqueue,
				// which forces the lock around the whole operation.
				mu.Lock()
				q.Enqueue(1)
				c := flag
				if c == rbq.Blue {
					q.Drain(func(uint32) {})
					flag = rbq.Red
					flag = rbq.Blue
				}
				mu.Unlock()
			}
		})
	})
}
