// Streams demonstrates the v2 streaming runtime: one StreamEngine over
// one memif device multiplexes two long-lived ingest streams through a
// shared ring of pinned prefetch buffers, while a latency-sensitive
// foreground task keeps issuing small migrations on the same device.
// The engine's credit-based backpressure and QoS-classed fills keep the
// foreground responsive; checksums against the in-place (direct) path
// prove both streams consumed exactly their input bytes.
package main

import (
	"fmt"
	"log"

	"memif"
)

const perStream = 16 << 20 // 16 MB per stream

func main() {
	fmt.Println("multi-stream ingest on one StreamEngine (streaming runtime v2)")

	m := memif.NewMachine(memif.KeyStoneII())
	as := m.NewAddressSpace(memif.Page4K)
	// Two handles on one machine: the engine owns dev's completion
	// stream, so the foreground prober uses its own device.
	app := memif.Open(m, as, memif.DefaultOptions())
	dev := memif.Open(m, as, memif.DefaultOptions())

	type run struct {
		name    string
		kernel  memif.StreamKernel
		class   memif.Class
		base    int64
		direct  uint64
		streamd uint64
		stats   memif.StreamStats
	}
	runs := []*run{
		{name: "triad-ingest", kernel: memif.KernelTriad, class: memif.Background},
		{name: "pgain-ingest", kernel: memif.KernelPGain, class: memif.Scavenger},
	}

	var fgOps int
	var fgMax memif.Time
	streamsDone := 0
	stormDone := false

	// Foreground prober: a 4 KB page ping-ponged between nodes at
	// ClassForeground, timed per round trip, while the streams saturate
	// the DMA engine with background/scavenger fills.
	m.Eng.Spawn("foreground", func(p *memif.Proc) {
		defer app.Close()
		base, err := as.Mmap(p, memif.Page4K, memif.NodeSlow, "fg-probe")
		if err != nil {
			log.Fatalf("mmap probe: %v", err)
		}
		dst := memif.NodeFast
		for !stormDone {
			start := p.Now()
			r := app.AllocRequest(p)
			if r == nil {
				p.SleepNS(10_000)
				continue
			}
			r.Op = memif.OpMigrate
			r.SrcBase, r.Length, r.DstNode = base, memif.Page4K, dst
			r.Class = memif.Foreground
			if err := app.Submit(p, r); err != nil {
				app.FreeRequest(p, r)
				p.SleepNS(10_000)
				continue
			}
			for {
				got := app.RetrieveCompleted(p)
				if got != nil {
					if got.Status == memif.StatusDone {
						if dst == memif.NodeFast {
							dst = memif.NodeSlow
						} else {
							dst = memif.NodeFast
						}
					}
					app.FreeRequest(p, got)
					break
				}
				app.Poll(p, 0)
			}
			if rt := p.Now() - start; rt > fgMax {
				fgMax = rt
			}
			fgOps++
			p.SleepNS(100_000)
		}
	})

	m.Eng.Spawn("ingest", func(p *memif.Proc) {
		defer dev.Close()

		// Stage the inputs on the slow node and record the direct
		// (in-place) checksums as ground truth.
		cfg := memif.DefaultStreamConfig()
		for i, r := range runs {
			base, err := as.Mmap(p, perStream, memif.NodeSlow, r.name)
			if err != nil {
				log.Fatalf("mmap %s: %v", r.name, err)
			}
			buf := make([]byte, 1<<20)
			for j := range buf {
				buf[j] = byte((j + i*7) * 2654435761)
			}
			for off := int64(0); off < perStream; off += int64(len(buf)) {
				if err := as.Write(p, base+off, buf); err != nil {
					log.Fatalf("fill %s: %v", r.name, err)
				}
			}
			direct, err := memif.StreamDirect(p, as, r.kernel, base, perStream, cfg)
			if err != nil {
				log.Fatalf("direct %s: %v", r.name, err)
			}
			r.direct = direct.Checksum
			r.base = base
		}

		// One engine, one ring, both streams.
		eng, err := memif.OpenStreamEngine(p, dev, memif.DefaultStreamEngineOptions())
		if err != nil {
			log.Fatalf("open engine: %v", err)
		}
		for _, r := range runs {
			r := r
			s, err := eng.OpenStream(p, memif.StreamSpec{
				Kernel:  r.kernel,
				Base:    r.base,
				Length:  perStream,
				Class:   r.class,
				Credits: 2,
				Name:    r.name,
			})
			if err != nil {
				log.Fatalf("open stream %s: %v", r.name, err)
			}
			m.Eng.Spawn(r.name, func(cp *memif.Proc) {
				res, err := s.Run(cp)
				if err != nil {
					log.Fatalf("stream %s: %v", r.name, err)
				}
				r.streamd = res.Checksum
				r.stats = s.Stats()
				streamsDone++
			})
		}
		for streamsDone < len(runs) {
			p.SleepNS(500_000)
		}

		snap := eng.Snapshot()
		eng.Close(p)
		stormDone = true

		fmt.Printf("\nengine: ring %d x %d KB, %d mmaps ever (O(ring), not O(chunks)), %d fills in %d batches, %d stalls\n",
			snap.RingBufs, snap.BufBytes>>10, snap.BufMmaps, snap.Fills, snap.FillBatches, snap.Stalls)
	})

	m.Eng.Run()

	fmt.Printf("\n%-14s %-10s %8s %8s %10s  %s\n", "stream", "class", "fast", "slow", "credits", "checksum")
	for _, r := range runs {
		ok := "MATCH"
		if r.direct != r.streamd {
			ok = "MISMATCH"
		}
		fmt.Printf("%-14s %-10s %8d %8d %6d/%-3d  %s (%#x)\n",
			r.name, r.class, r.stats.FastChunks, r.stats.SlowChunks,
			int(r.stats.CreditsGranted), int(r.stats.CreditsReturned), ok, r.streamd)
		if r.direct != r.streamd {
			log.Fatalf("%s: checksum mismatch: direct %#x, stream %#x", r.name, r.direct, r.streamd)
		}
	}
	fmt.Printf("\nforeground: %d round trips during the storm, worst %v\n", fgOps, fgMax)
}
