package bench

import (
	"memif/internal/core"
	"memif/internal/hw"
	"memif/internal/machine"
	"memif/internal/sim"
	"memif/internal/tlb"
	"memif/internal/uapi"
)

// TLBIndirectResult quantifies the indirect TLB cost of migration
// (Section 5.2 cites it alongside the direct flush cost): an application
// repeatedly scans a working set; between scans the set is migrated
// between nodes, flushing every translation and forcing a refill walk
// per page on the next scan.
type TLBIndirectResult struct {
	// Misses per scan pass, with and without migrations in between.
	MissesIdle, MissesMigrating float64
	// ScanNS per pass, both cases; OverheadPct their ratio - 1.
	ScanIdleNS, ScanMigratingNS float64
	OverheadPct                 float64
}

// TLBIndirect runs the measurement on a KeyStone II machine with the
// Cortex-A15 TLB modelled.
func TLBIndirect() TLBIndirectResult {
	const (
		pages  = 256 // half the 512-entry TLB: no capacity misses
		passes = 16
	)
	var idleNS float64 // virtual time per scan pass, no migrations
	run := func(migrate bool) (missesPerPass float64) {
		m := machine.New(hw.KeyStoneII())
		m.Mem.DisableData()
		as := m.NewAddressSpace(hw.Page4K)
		as.TLB = tlb.NewCortexA15()
		d := core.Open(m, as, core.DefaultOptions())
		runApp(m, func(p *sim.Proc) {
			defer d.Close()
			base := mmapOrDie(p, as, pages*hw.Page4K, hw.NodeSlow, "ws")
			scan := func() {
				for i := int64(0); i < pages; i++ {
					if err := as.Touch(p, base+i*hw.Page4K, false); err != nil {
						panic(err)
					}
				}
			}
			scan() // warm the TLB; cold misses excluded from both cases
			node := hw.NodeFast
			startMiss := as.TLB.Stats().Misses
			start := p.Now()
			for pass := 0; pass < passes; pass++ {
				if migrate {
					window(p, d, 1, 1, func(int) {
						submitMove(p, d, uapi.OpMigrate, base, 0, pages*hw.Page4K, node, 0)
					}, nil)
					if node == hw.NodeFast {
						node = hw.NodeSlow
					} else {
						node = hw.NodeFast
					}
				}
				scan()
			}
			missesPerPass = float64(as.TLB.Stats().Misses-startMiss) / passes
			if !migrate {
				idleNS = float64(p.Now()-start) / passes
			}
		})
		return missesPerPass
	}
	idleMiss := run(false)
	migMiss := run(true)
	// The indirect overhead is the extra refill walks per scan; the
	// migrations' own time is not part of it.
	walk := float64(hw.KeyStoneII().Cost.TLBMissWalk)
	extra := (migMiss - idleMiss) * walk
	return TLBIndirectResult{
		MissesIdle:      idleMiss,
		MissesMigrating: migMiss,
		ScanIdleNS:      idleNS,
		ScanMigratingNS: idleNS + extra,
		OverheadPct:     extra / idleNS * 100,
	}
}
