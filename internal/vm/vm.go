// Package vm models per-process virtual memory: VMAs, anonymous mmap,
// and the access paths whose interaction with migration defines the
// paper's race semantics.
//
// Accesses honor three PTE disciplines:
//
//   - Baseline race *prevention*: touching a page whose PTE carries
//     FlagMigration blocks the accessor until the migration completes,
//     exactly like Linux's migration PTEs (Section 5.2, Figure 4a).
//   - memif race *detection*: touching a page clears the young bit; the
//     driver's later release CAS observes the clear and reports the race
//     (Figure 4b). The clearing happens here, on the access path.
//   - Proceed-and-recover: a write to a page whose PTE carries
//     FlagRecover traps into a registered fault handler, which aborts the
//     in-flight migration and restores the old mapping (Section 5.2,
//     "Alternative").
package vm

import (
	"errors"
	"fmt"

	"memif/internal/hw"
	"memif/internal/pagetable"
	"memif/internal/phys"
	"memif/internal/sim"
	"memif/internal/tlb"
)

// Errors reported by the access and mapping paths.
var (
	ErrBadAddress = errors.New("vm: access to unmapped address")
	ErrNoVMA      = errors.New("vm: address not covered by a VMA")
)

// VMA is one contiguous virtual memory area.
type VMA struct {
	Start  int64
	Length int64
	Node   hw.NodeID // node backing pages were allocated on at mmap time
	Name   string

	// TouchedBytes accumulates how much of the VMA has been read or
	// written (access-pattern accounting for reactive placement, the
	// transparent approach of Section 2.1).
	TouchedBytes int64
}

// End returns the first address past the VMA.
func (v *VMA) End() int64 { return v.Start + v.Length }

// FaultHandler handles a trap taken on an access. It returns true if the
// fault was resolved and the access should be retried. The memif driver
// registers one to implement proceed-and-recover.
type FaultHandler func(p *sim.Proc, addr int64, slot *pagetable.Slot, write bool) bool

// AddressSpace is one process's virtual memory. PageBytes is fixed per
// address space; the 64 KB and 2 MB page experiments build separate
// spaces (the paper emulates large pages the same way, Section 6.2).
type AddressSpace struct {
	Eng       *sim.Engine
	Plat      *hw.Platform
	Mem       *phys.Memory
	PageBytes int64
	Table     *pagetable.Table

	// Rmap, when non-nil, is the machine-wide reverse map this space
	// participates in; required for shared mappings (see ShareFrom).
	Rmap *Rmap

	// TLB, when non-nil, models this context's translation cache:
	// access paths charge a hardware walk on each miss, and PTE
	// replacements invalidate the cached translation — the indirect
	// flush cost of Section 5.2. Nil (the default) keeps the direct
	// flush-cost-only model the calibration uses.
	TLB *tlb.TLB

	vmas     []*VMA
	nextAddr int64

	// TLBFlushes counts explicit per-page TLB flushes charged against
	// this address space (indirect refill cost is part of the flush
	// price in the cost model).
	TLBFlushes int64

	migWaiters map[*pagetable.Slot]*sim.Event
	migClaims  []pageRange // one per in-flight migration (MigClaim)
	shadows    map[uint64]shadowCopy
	fault      FaultHandler

	// RaceTouches counts accesses that cleared a young bit (useful for
	// asserting race-detection behaviour in tests).
	RaceTouches int64
}

// New returns an empty address space with the given page size.
func New(eng *sim.Engine, plat *hw.Platform, mem *phys.Memory, pageBytes int64) *AddressSpace {
	if pageBytes <= 0 || pageBytes&(pageBytes-1) != 0 {
		panic(fmt.Sprintf("vm: page size %d not a positive power of two", pageBytes))
	}
	return &AddressSpace{
		Eng:        eng,
		Plat:       plat,
		Mem:        mem,
		PageBytes:  pageBytes,
		Table:      pagetable.New(),
		nextAddr:   1 << 32,
		migWaiters: make(map[*pagetable.Slot]*sim.Event),
		shadows:    make(map[uint64]shadowCopy),
	}
}

// SetFaultHandler installs the trap handler used by FlagRecover PTEs.
func (as *AddressSpace) SetFaultHandler(h FaultHandler) { as.fault = h }

// VPN converts a virtual address to this space's page number.
func (as *AddressSpace) VPN(addr int64) uint64 { return uint64(addr) / uint64(as.PageBytes) }

// charge spends CPU time if running inside a simulated process.
func charge(p *sim.Proc, ns int64, meters ...*sim.Meter) {
	if p != nil && ns > 0 {
		p.Busy(ns, meters...)
	}
}

// Mmap maps length bytes of anonymous memory backed by node, eagerly
// populated (the paper's workloads pre-fault their buffers). If p is
// non-nil the population cost (page alloc + PTE install per page) is
// charged to it. Returns the base address.
func (as *AddressSpace) Mmap(p *sim.Proc, length int64, node hw.NodeID, name string) (int64, error) {
	if length <= 0 {
		return 0, fmt.Errorf("vm: mmap length %d", length)
	}
	length = (length + as.PageBytes - 1) &^ (as.PageBytes - 1)
	// Reserve the address range before anything that can yield: frame
	// allocation and cost charging both suspend the proc, and a
	// concurrent Mmap reading the same nextAddr would hand out
	// overlapping VMAs. A failed mmap leaves a hole, which is harmless.
	base := as.nextAddr
	as.nextAddr = base + length + as.PageBytes // guard page
	pages := length / as.PageBytes
	cost := &as.Plat.Cost

	var frames []*phys.Frame
	for i := int64(0); i < pages; i++ {
		f, err := as.Mem.Alloc(node, as.PageBytes)
		if err != nil {
			for _, g := range frames {
				g.RefCount = 0
				as.Mem.Free(g)
			}
			return 0, err
		}
		f.RefCount = 1
		frames = append(frames, f)
	}
	for i, f := range frames {
		addr := base + int64(i)*as.PageBytes
		slot, _ := as.Table.Ensure(as.VPN(addr))
		slot.Store(pagetable.Make(f.ID, pagetable.FlagPresent|pagetable.FlagWrite))
		as.rmapAdd(f.ID, slot, addr)
	}
	charge(p, pages*(cost.PageAlloc+cost.PTEReplace))
	vma := &VMA{Start: base, Length: length, Node: node, Name: name}
	as.vmas = append(as.vmas, vma)
	return base, nil
}

// Munmap unmaps the VMA starting at base, freeing its backing frames.
func (as *AddressSpace) Munmap(p *sim.Proc, base int64) error {
	idx := -1
	for i, v := range as.vmas {
		if v.Start == base {
			idx = i
			break
		}
	}
	if idx < 0 {
		return fmt.Errorf("%w: munmap(%#x)", ErrNoVMA, base)
	}
	v := as.vmas[idx]
	// Drop the VMA before anything that can yield: the charge below
	// suspends the proc, and a concurrent Munmap shifting the slice
	// would leave idx naming a neighbour.
	as.vmas = append(as.vmas[:idx], as.vmas[idx+1:]...)
	cost := &as.Plat.Cost
	pages := v.Length / as.PageBytes
	for i := int64(0); i < pages; i++ {
		vpn := as.VPN(v.Start + i*as.PageBytes)
		slot, _ := as.Table.Lookup(vpn)
		if slot == nil {
			continue
		}
		pte := slot.Load()
		if !pte.Has(pagetable.FlagPresent) {
			continue
		}
		slot.Store(0)
		if f, ok := as.Mem.Lookup(pte.Frame()); ok {
			as.rmapRemove(f.ID, slot)
			f.RefCount--
			// File-backed frames stay in the page cache even with no
			// mappings left (drop the cache to reclaim them).
			if f.RefCount == 0 && !f.FileBacked {
				as.Mem.Release(f)
			}
		}
		as.DropShadow(vpn)
	}
	charge(p, pages*(cost.PageFree+cost.PTEReplace))
	return nil
}

// FindVMA returns the VMA covering addr, if any.
func (as *AddressSpace) FindVMA(addr int64) *VMA {
	for _, v := range as.vmas {
		if addr >= v.Start && addr < v.End() {
			return v
		}
	}
	return nil
}

// CheckRegion validates that [addr, addr+length) is page-aligned and
// fully covered by one VMA — the validation the memif driver performs on
// user-supplied request fields before trusting them (Section 4.2).
func (as *AddressSpace) CheckRegion(addr, length int64) error {
	if addr%as.PageBytes != 0 || length <= 0 || length%as.PageBytes != 0 {
		return fmt.Errorf("vm: region %#x+%d not page aligned", addr, length)
	}
	v := as.FindVMA(addr)
	if v == nil || addr+length > v.End() {
		return fmt.Errorf("%w: region %#x+%d", ErrNoVMA, addr, length)
	}
	return nil
}

// FrameAt resolves the frame currently backing addr (nil if unmapped).
func (as *AddressSpace) FrameAt(addr int64) *phys.Frame {
	slot, _ := as.Table.Lookup(as.VPN(addr))
	if slot == nil {
		return nil
	}
	pte := slot.Load()
	if !pte.Has(pagetable.FlagPresent) {
		return nil
	}
	f, _ := as.Mem.Lookup(pte.Frame())
	return f
}

// MigrationGate returns (creating if needed) the completion event that
// accessors blocked on slot's migration PTE wait for. Used by the
// baseline's race prevention.
func (as *AddressSpace) MigrationGate(slot *pagetable.Slot) *sim.Event {
	ev, ok := as.migWaiters[slot]
	if !ok {
		ev = sim.NewEvent(as.Eng)
		as.migWaiters[slot] = ev
	}
	return ev
}

// ReleaseMigrationGate fires the gate for slot, unblocking accessors.
func (as *AddressSpace) ReleaseMigrationGate(slot *pagetable.Slot) {
	if ev, ok := as.migWaiters[slot]; ok {
		delete(as.migWaiters, slot)
		ev.Fire()
	}
}

// touchSlot applies reference semantics to one resolved slot and returns
// the frame to access. It blocks on migration PTEs, traps to the fault
// handler on recover PTEs, and clears the young bit (the reference that
// memif's release CAS detects).
func (as *AddressSpace) touchSlot(p *sim.Proc, addr int64, write bool) (*phys.Frame, error) {
	for attempt := 0; ; attempt++ {
		if attempt > 64 {
			return nil, fmt.Errorf("vm: livelock touching %#x", addr)
		}
		slot, _ := as.Table.Lookup(as.VPN(addr))
		if slot == nil {
			return nil, fmt.Errorf("%w: %#x", ErrBadAddress, addr)
		}
		pte := slot.Load()
		if !pte.Has(pagetable.FlagPresent) {
			return nil, fmt.Errorf("%w: %#x", ErrBadAddress, addr)
		}
		if pte.Has(pagetable.FlagMigration) {
			// Race prevention: block until the migration releases us.
			if p == nil {
				return nil, fmt.Errorf("vm: blocking access to migrating page %#x outside a process", addr)
			}
			gate := as.MigrationGate(slot)
			p.WaitEvent(gate)
			continue
		}
		if pte.Has(pagetable.FlagRecover) && write {
			if as.fault == nil {
				return nil, fmt.Errorf("vm: write fault on %#x with no handler", addr)
			}
			if !as.fault(p, addr, slot, write) {
				return nil, fmt.Errorf("vm: fault handler refused %#x", addr)
			}
			continue
		}
		// Reference: clear young, set dirty on write. CAS so a racing
		// driver release observes exactly one of the orders.
		newPTE := pte.Without(pagetable.FlagYoung)
		if write {
			newPTE = newPTE.With(pagetable.FlagDirty)
		}
		if newPTE != pte {
			if !slot.CompareAndSwap(pte, newPTE) {
				continue
			}
			if pte.Has(pagetable.FlagYoung) {
				as.RaceTouches++
			}
		}
		f, ok := as.Mem.Lookup(pte.Frame())
		if !ok {
			return nil, fmt.Errorf("vm: PTE at %#x references dead frame %d", addr, pte.Frame())
		}
		return f, nil
	}
}

// Touch references one page (a load if write is false, a store
// otherwise) without transferring data. Charges the node's access latency.
func (as *AddressSpace) Touch(p *sim.Proc, addr int64, write bool) error {
	f, err := as.touchSlot(p, addr, write)
	if err != nil {
		return err
	}
	charge(p, as.tlbTouch(addr)+as.Mem.Node(f.Node).LatencyNS)
	return nil
}

// accessTime prices moving n bytes to/from node id at streaming bandwidth.
func (as *AddressSpace) accessTime(id hw.NodeID, n int64) int64 {
	node := as.Mem.Node(id)
	return node.LatencyNS + int64(float64(n)/node.Bandwidth*1e9)
}

// Read copies len(buf) bytes from virtual memory into buf, charging
// virtual time at the backing node's bandwidth. Meters receive the busy
// time.
func (as *AddressSpace) Read(p *sim.Proc, addr int64, buf []byte, meters ...*sim.Meter) error {
	return as.access(p, addr, int64(len(buf)), false, func(off int64, page []byte) { copy(buf[off:], page) }, meters...)
}

// Write copies data into virtual memory.
func (as *AddressSpace) Write(p *sim.Proc, addr int64, data []byte, meters ...*sim.Meter) error {
	return as.access(p, addr, int64(len(data)), true, func(off int64, page []byte) { copy(page, data[off:]) }, meters...)
}

// View reads n bytes in place: it charges what Read would, and hands fn
// each page's piece of the frame's bytes, in order, where Read would copy
// it. The piece may be shared: fn must neither write nor keep it. In
// dataless mode fn is never called.
func (as *AddressSpace) View(p *sim.Proc, addr, n int64, fn func(page []byte), meters ...*sim.Meter) error {
	return as.access(p, addr, n, false, func(_ int64, page []byte) { fn(page) }, meters...)
}

// WriteInPlace writes n bytes in place: it charges what Write would, and
// hands fn each page's piece of the frame's bytes, in order, where Write
// would copy into it. The piece is already unshared, so fn may write it,
// but must not keep it. In dataless mode fn is never called.
func (as *AddressSpace) WriteInPlace(p *sim.Proc, addr, n int64, fn func(page []byte), meters ...*sim.Meter) error {
	return as.access(p, addr, n, true, func(_ int64, page []byte) { fn(page) }, meters...)
}

// access is the one page walk behind Read, Write, View and WriteInPlace.
// Per page it applies reference semantics and charges the TLB walk, hands
// visit the page's piece of the frame (mutable if write), then charges
// the access.
func (as *AddressSpace) access(p *sim.Proc, addr, n int64, write bool, visit func(off int64, page []byte), meters ...*sim.Meter) error {
	if v := as.FindVMA(addr); v != nil {
		v.TouchedBytes += n
	}
	for off := int64(0); off < n; {
		pageOff := (addr + off) % as.PageBytes
		step := min(as.PageBytes-pageOff, n-off)
		f, err := as.touchSlot(p, addr+off, write)
		if err != nil {
			return err
		}
		if walk := as.tlbTouch(addr + off); walk > 0 && p != nil {
			p.Busy(walk, meters...)
		}
		// Dataless mode carries timing only: both accessors return nil.
		if write {
			if data := f.MutableBytes(); data != nil {
				visit(off, data[pageOff:pageOff+step])
			}
		} else if data := f.Bytes(); data != nil {
			visit(off, data[pageOff:pageOff+step])
		}
		if p != nil {
			p.Busy(as.accessTime(f.Node, step), meters...)
		}
		off += step
	}
	return nil
}

// InvalidatePage accounts one per-page TLB shootdown: the direct flush
// cost is charged by the caller's cost table; here the cached
// translation is dropped so the owner pays the refill walk on its next
// access (the indirect cost).
func (as *AddressSpace) InvalidatePage(vpn uint64) {
	as.TLBFlushes++
	if as.TLB != nil {
		as.TLB.Invalidate(vpn)
	}
}

// tlbTouch consults the modelled TLB (if any) for the page containing
// addr and returns the extra walk time to charge.
func (as *AddressSpace) tlbTouch(addr int64) int64 {
	if as.TLB == nil {
		return 0
	}
	if as.TLB.Lookup(as.VPN(addr)) {
		return 0
	}
	return as.Plat.Cost.TLBMissWalk
}

// pageRange is the pages [start, end).
type pageRange struct{ start, end uint64 }

// MigClaim marks n pages starting at vpn as having an in-flight
// migration, the role the page lock plays for migrate_pages in Linux. It
// fails (claiming nothing) if any page is already claimed, so two movers
// — say, an application promotion and a swap daemon eviction — can never
// migrate the same page concurrently. The claim is one range, however
// many pages it covers.
func (as *AddressSpace) MigClaim(vpn uint64, n int) bool {
	c := pageRange{vpn, vpn + uint64(n)}
	for _, h := range as.migClaims {
		if c.start < h.end && h.start < c.end {
			return false
		}
	}
	as.migClaims = append(as.migClaims, c)
	return true
}

// MigRelease drops the claim MigClaim(vpn, n) took. A range that was not
// claimed as one is a bug in the caller and panics.
func (as *AddressSpace) MigRelease(vpn uint64, n int) {
	c := pageRange{vpn, vpn + uint64(n)}
	for i, h := range as.migClaims {
		if h == c {
			last := len(as.migClaims) - 1
			as.migClaims[i] = as.migClaims[last]
			as.migClaims = as.migClaims[:last]
			return
		}
	}
	panic(fmt.Sprintf("vm: releasing unclaimed pages %#x+%d", vpn, n))
}

// claimed reports whether an in-flight migration holds page vpn.
func (as *AddressSpace) claimed(vpn uint64) bool {
	for _, c := range as.migClaims {
		if c.start <= vpn && vpn < c.end {
			return true
		}
	}
	return false
}

// shadowCopy records a retained frame holding a still-valid copy of a
// page's contents, taken when the page last migrated away from it. The
// copy is valid only while the page's PTE still maps frame `of` and the
// page has stayed clean; the transactional prepare path checks both.
type shadowCopy struct {
	frame *phys.Frame  // the retained (slow-tier) copy
	of    phys.FrameID // the frame the page mapped when the copy was taken
}

// SetShadow retains frame as vpn's shadow copy, valid while the page
// keeps mapping `of` and stays clean. Any previous shadow is dropped.
func (as *AddressSpace) SetShadow(vpn uint64, frame *phys.Frame, of phys.FrameID) {
	as.DropShadow(vpn)
	as.shadows[vpn] = shadowCopy{frame: frame, of: of}
}

// ShadowAt returns vpn's shadow frame and the frame ID the copy was
// taken against, or (nil, 0) if none is registered.
func (as *AddressSpace) ShadowAt(vpn uint64) (*phys.Frame, phys.FrameID) {
	sc, ok := as.shadows[vpn]
	if !ok {
		return nil, 0
	}
	return sc.frame, sc.of
}

// TakeShadow removes and returns vpn's shadow frame without freeing it —
// the zero-copy commit path re-installs the frame into the PTE.
func (as *AddressSpace) TakeShadow(vpn uint64) *phys.Frame {
	sc, ok := as.shadows[vpn]
	if !ok {
		return nil
	}
	delete(as.shadows, vpn)
	return sc.frame
}

// DropShadow discards vpn's shadow copy, freeing the frame if nothing
// else holds it.
func (as *AddressSpace) DropShadow(vpn uint64) {
	sc, ok := as.shadows[vpn]
	if !ok {
		return
	}
	delete(as.shadows, vpn)
	f := sc.frame
	if f.RefCount == 0 && !f.FileBacked {
		as.Mem.Release(f)
	}
}

// Shadows reports how many shadow copies are currently retained.
func (as *AddressSpace) Shadows() int { return len(as.shadows) }

// ScanAccessBits samples reference and dirty state over n pages starting
// at vpn, Nomad-style: a page whose FlagYoung is *absent* was referenced
// since the previous pass (accesses clear young — the race-detection
// discipline of touchSlot), and the scan re-arms young so the next pass
// sees fresh information. Pages with an active migration claim or a
// migration/recover PTE are skipped — rewriting their young bit could
// reconstruct the driver's installed PTE and mask a real race. Returns
// how many pages were referenced, dirty, and actually sampled. Walk and
// PTE-update costs are charged to p.
func (as *AddressSpace) ScanAccessBits(p *sim.Proc, vpn uint64, n int, meters ...*sim.Meter) (referenced, dirty, sampled int) {
	cost := &as.Plat.Cost
	var casCost int64
	for i := 0; i < n; i++ {
		v := vpn + uint64(i)
		if as.claimed(v) {
			continue
		}
		slot, _ := as.Table.Lookup(v)
		if slot == nil {
			continue
		}
		pte := slot.Load()
		if !pte.Has(pagetable.FlagPresent) ||
			pte.Has(pagetable.FlagMigration) || pte.Has(pagetable.FlagRecover) {
			continue
		}
		sampled++
		if !pte.Has(pagetable.FlagYoung) {
			referenced++
		}
		if pte.Has(pagetable.FlagDirty) {
			dirty++
		}
		if armed := pte.With(pagetable.FlagYoung); armed != pte {
			if slot.CompareAndSwap(pte, armed) {
				casCost += cost.PTECas
			}
		}
	}
	walk := cost.PageLookupVertical
	if n > 1 {
		walk += int64(n-1) * cost.PageLookupHorizontal
	}
	charge(p, walk+casCost, meters...)
	return referenced, dirty, sampled
}
