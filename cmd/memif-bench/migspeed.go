package main

import (
	"flag"
	"fmt"
	"os"

	"memif/internal/core"
	"memif/internal/hw"
	"memif/internal/linuxmig"
	"memif/internal/machine"
	"memif/internal/sim"
	"memif/internal/stats"
	"memif/internal/uapi"
	"memif/internal/workloads"
)

// migspeed mirrors the utility of the same name shipped with numactl,
// which the paper uses as the Linux baseline in Figure 8: it migrates a
// region between the two memory nodes in a loop and reports the achieved
// throughput. Optionally it runs the same workload through memif for a
// side-by-side comparison.
func migspeed(args []string) {
	fs := flag.NewFlagSet("memif-bench migspeed", flag.ExitOnError)
	pages := fs.Int("pages", 256, "pages per migration request")
	pageSize := fs.String("pagesize", "4K", "page size: 4K, 64K or 2M")
	loops := fs.Int("loops", 16, "migration round trips")
	useMemif := fs.Bool("memif", false, "also measure memif migration")
	xeon := fs.Bool("xeon", false, "use the Xeon E5 platform instead of KeyStone II")
	_ = fs.Parse(args) // ExitOnError: Parse exits instead of returning an error

	var pb int64
	switch *pageSize {
	case "4K", "4k":
		pb = hw.Page4K
	case "64K", "64k":
		pb = hw.Page64K
	case "2M", "2m":
		pb = hw.Page2M
	default:
		fmt.Fprintf(os.Stderr, "migspeed: bad -pagesize %q\n", *pageSize)
		os.Exit(2)
	}
	plat := hw.KeyStoneII()
	if *xeon {
		if *useMemif {
			fmt.Fprintln(os.Stderr, "migspeed: -memif needs a DMA engine, and the Xeon E5 platform has none")
			os.Exit(2)
		}
		plat = hw.XeonE5()
	}
	// Remove the capacity wall so sweeps with large regions make sense
	// (the cost model does not depend on node size).
	for i := range plat.Nodes {
		if plat.Nodes[i].Capacity < 2<<30 {
			plat.Nodes[i].Capacity = 2 << 30
		}
	}
	length := int64(*pages) * pb

	fmt.Printf("migspeed: %d pages x %s per request, %d round trips on %s\n",
		*pages, *pageSize, *loops, plat.Name)

	{ // Linux baseline
		m := machine.New(plat)
		m.Mem.DisableData()
		as := m.NewAddressSpace(pb)
		mg := linuxmig.New(m, as)
		m.Eng.Spawn("migspeed", func(p *sim.Proc) {
			base, err := as.Mmap(p, length, hw.NodeSlow, "region")
			if err != nil {
				fmt.Fprintf(os.Stderr, "migspeed: %v\n", err)
				return
			}
			start := p.Now()
			node := hw.NodeFast
			for i := 0; i < 2**loops; i++ {
				if err := mg.MBind(p, base, length, node); err != nil {
					fmt.Fprintf(os.Stderr, "migspeed: %v\n", err)
					return
				}
				if node == hw.NodeFast {
					node = hw.NodeSlow
				} else {
					node = hw.NodeFast
				}
			}
			moved := int64(2**loops) * length
			fmt.Printf("  linux:  %6.2f GB/s (%d MB moved, CPU usage 100%%)\n",
				stats.ThroughputGBs(moved, p.Now()-start), moved>>20)
		})
		m.Eng.Run()
	}

	if *useMemif {
		m := machine.New(plat)
		m.Mem.DisableData()
		as := m.NewAddressSpace(pb)
		d := core.Open(m, as, core.DefaultOptions())
		m.Eng.Spawn("migspeed", func(p *sim.Proc) {
			defer d.Close()
			base, err := as.Mmap(p, length, hw.NodeSlow, "region")
			if err != nil {
				fmt.Fprintf(os.Stderr, "migspeed: %v\n", err)
				return
			}
			start := p.Now()
			node := hw.NodeFast
			for i := 0; i < 2**loops; i++ {
				// Same region each trip: wait for completion before
				// reversing direction.
				if _, _, err := workloads.MoveSync(p, d, uapi.OpMigrate, base, 0, length, node); err != nil {
					fmt.Fprintf(os.Stderr, "migspeed: %v\n", err)
					return
				}
				if node == hw.NodeFast {
					node = hw.NodeSlow
				} else {
					node = hw.NodeFast
				}
			}
			moved := int64(2**loops) * length
			elapsed := p.Now() - start
			cpu := sim.MeterGroup{d.UserMeter, d.KernMeter}.Usage(elapsed)
			fmt.Printf("  memif:  %6.2f GB/s (%d MB moved, CPU usage %.1f%%, %d syscalls)\n",
				stats.ThroughputGBs(moved, elapsed), moved>>20, cpu*100, d.Stats().Syscalls)
		})
		m.Eng.Run()
	}
}
