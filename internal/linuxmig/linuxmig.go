// Package linuxmig implements the baseline memif is evaluated against:
// page migration for NUMA as found in the Linux kernel, driven through a
// synchronous mbind()/migrate_pages()-style batch syscall (Section 2.2
// and the "Baseline Operations" column of Table 1).
//
// For every page the baseline performs, on the CPU and inside the
// syscall: a full vertical page-table walk, destination page allocation,
// installation of a migration PTE (with TLB flush) that blocks any
// concurrent accessor, a CPU byte copy, installation of the final PTE
// (with a second TLB flush), and freeing of the old page. Nothing is
// reused across pages and the caller learns about completion only when
// the syscall returns — which is exactly what memif's interface and
// mechanism overhaul attacks.
package linuxmig

import (
	"errors"
	"fmt"

	"memif/internal/hw"
	"memif/internal/machine"
	"memif/internal/pagetable"
	"memif/internal/phys"
	"memif/internal/sim"
	"memif/internal/stats"
	"memif/internal/vm"
)

// Errors returned by the migration syscalls.
var (
	ErrBadRegion = errors.New("linuxmig: bad region")
	ErrNoMemory  = errors.New("linuxmig: destination node out of memory")
)

// Migrator is the baseline migration service bound to one address space.
type Migrator struct {
	M  *machine.Machine
	AS *vm.AddressSpace

	// Meter accumulates the CPU time burnt inside migration syscalls
	// (all of it in the calling process's context — the baseline is
	// synchronous and CPU-bound).
	Meter *sim.Meter
	// Breakdown charges each per-page operation to its Table 1 phase.
	Breakdown *stats.Breakdown

	// Pages and Bytes count successfully migrated work.
	Pages int64
	Bytes int64
}

// New returns a baseline migrator for as.
func New(m *machine.Machine, as *vm.AddressSpace) *Migrator {
	return &Migrator{
		M:         m,
		AS:        as,
		Meter:     sim.NewMeter("linux-migrate"),
		Breakdown: stats.NewBreakdown(),
	}
}

func (mg *Migrator) busy(p *sim.Proc, phase string, ns int64) {
	if ns <= 0 {
		return
	}
	mg.Breakdown.Add(phase, ns)
	p.Busy(ns, mg.Meter)
}

// MBind migrates the pages of [base, base+length) to dstNode in one
// synchronous syscall, the way mbind(MPOL_MF_MOVE) / migrate_pages()
// does. It returns only when every page has been moved (or an error has
// been hit), so the caller observes the full latency.
func (mg *Migrator) MBind(p *sim.Proc, base, length int64, dstNode hw.NodeID) error {
	as := mg.AS
	cost := &mg.M.Plat.Cost
	if err := as.CheckRegion(base, length); err != nil {
		return fmt.Errorf("%w: %v", ErrBadRegion, err)
	}
	pb := as.PageBytes
	n := length / pb

	// Syscall entry plus the fixed policy/VMA-walk/LRU-isolation work
	// mbind performs before touching any page.
	mg.busy(p, stats.PhaseInterface, cost.SyscallEnter+cost.MigrateSyscallBase)

	for i := int64(0); i < n; i++ {
		addr := base + i*pb
		if err := mg.migrateOne(p, addr, dstNode); err != nil {
			mg.busy(p, stats.PhaseInterface, cost.SyscallExit)
			return err
		}
	}
	mg.busy(p, stats.PhaseInterface, cost.SyscallExit)
	return nil
}

// migrateOne is the per-page baseline workflow of Table 1.
func (mg *Migrator) migrateOne(p *sim.Proc, addr int64, dstNode hw.NodeID) error {
	as := mg.AS
	cost := &mg.M.Plat.Cost
	pb := as.PageBytes

	// 1. Prep: full vertical lookup for this page.
	slot, wst := as.Table.Lookup(as.VPN(addr))
	mg.busy(p, stats.PhasePrep, int64(wst.Verticals)*cost.PageLookupVertical+cost.RmapBook)
	if slot == nil {
		return fmt.Errorf("%w: %#x unmapped", ErrBadRegion, addr)
	}
	old := slot.Load()
	if !old.Has(pagetable.FlagPresent) {
		return fmt.Errorf("%w: %#x not present", ErrBadRegion, addr)
	}
	oldFrame, ok := as.Mem.Lookup(old.Frame())
	if !ok {
		return fmt.Errorf("%w: dead frame at %#x", ErrBadRegion, addr)
	}
	if oldFrame.Node == dstNode {
		return nil // already there; Linux skips it
	}

	// 2. Remap: allocate on the destination, install the migration PTE
	// so concurrent accessors block, flush the TLB.
	newFrame, err := as.Mem.Alloc(dstNode, pb)
	if err != nil {
		return fmt.Errorf("%w: %v", ErrNoMemory, err)
	}
	migPTE := pagetable.Make(oldFrame.ID, pagetable.FlagPresent|pagetable.FlagMigration)
	slot.Store(migPTE)
	as.InvalidatePage(as.VPN(addr))
	mg.busy(p, stats.PhaseRemap, cost.PageAlloc+cost.PTEReplace+cost.TLBFlushPage)

	// 3. Copy: the CPU moves the bytes.
	phys.Copy(newFrame, oldFrame, pb)
	mg.busy(p, stats.PhaseCopy, cost.CopyNS(pb, pb))

	// 4. Release: install the final PTE, flush the TLB again, free the
	// old page, and unblock anyone who hit the migration PTE.
	final := pagetable.Make(newFrame.ID, pagetable.FlagPresent|pagetable.FlagWrite)
	if old.Has(pagetable.FlagDirty) {
		final = final.With(pagetable.FlagDirty)
	}
	slot.Store(final)
	as.InvalidatePage(as.VPN(addr))
	oldFrame.RefCount--
	newFrame.RefCount++
	if oldFrame.RefCount == 0 {
		as.Mem.Release(oldFrame)
	}
	as.ReleaseMigrationGate(slot)
	mg.busy(p, stats.PhaseRelease, cost.PTEReplace+cost.TLBFlushPage+cost.PageFree+cost.RmapBook)

	mg.Pages++
	mg.Bytes += pb
	return nil
}

// MigrateBatched issues nReqs region migrations grouping `batch` regions
// per syscall, the comparison mode of Figure 7 (batching amortizes the
// syscall but delays every notification to the batch's end). The
// completion time of request i is recorded via the done callback.
func (mg *Migrator) MigrateBatched(p *sim.Proc, regions [][2]int64, dstNode hw.NodeID, batch int, done func(i int, at sim.Time)) error {
	if batch < 1 {
		batch = 1
	}
	for start := 0; start < len(regions); start += batch {
		end := start + batch
		if end > len(regions) {
			end = len(regions)
		}
		cost := &mg.M.Plat.Cost
		// One syscall for the whole batch.
		mg.busy(p, stats.PhaseInterface, cost.SyscallEnter+cost.MigrateSyscallBase)
		for i := start; i < end; i++ {
			r := regions[i]
			pb := mg.AS.PageBytes
			for off := int64(0); off < r[1]; off += pb {
				if err := mg.migrateOne(p, r[0]+off, dstNode); err != nil {
					return err
				}
			}
		}
		mg.busy(p, stats.PhaseInterface, cost.SyscallExit)
		// The application learns about completions only now.
		for i := start; i < end; i++ {
			if done != nil {
				done(i, p.Now())
			}
		}
	}
	return nil
}
