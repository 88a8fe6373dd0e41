package core

import (
	"errors"
	"fmt"

	"memif/internal/dma"
	"memif/internal/hw"
	"memif/internal/pagetable"
	"memif/internal/phys"
	"memif/internal/sim"
	"memif/internal/stats"
	"memif/internal/uapi"
	"memif/internal/vm"
)

// slotKeyImpl is the PTE slot type used as the recover-map key.
type slotKeyImpl = pagetable.Slot

// execCtx identifies which of the three execution paths (Section 5.4) is
// running driver code.
type execCtx int

const (
	ctxSyscall execCtx = iota // application process inside ioctl(MOV_ONE)
	ctxKthread                // the memif kernel worker thread
	ctxIRQ                    // DMA completion interrupt handler
)

// mappedPTE is one PTE referencing a migrating page. With the reverse
// map, a page shared between processes has several; the driver updates
// them all (the shared-page support Section 6.7 leaves as future work).
type mappedPTE struct {
	as        *vm.AddressSpace
	slot      *pagetable.Slot
	vpn       uint64        // page number in its own address space
	old       pagetable.PTE // mapping before the migration began
	installed pagetable.PTE // what Remap installed (semi-final/special/migration)
}

// pageMove tracks one page of an in-flight migration.
type pageMove struct {
	addr     int64
	maps     []mappedPTE  // every PTE mapping the page: one[:1] unless it is shared
	one      [1]mappedPTE // storage for the usual single mapping
	oldFrame *phys.Frame
	newFrame *phys.Frame

	// Transactional-migration page states.
	zeroCopy bool // newFrame is a still-valid shadow copy: commit is a PTE flip
	noop     bool // page already resides on the destination node
}

// inflight is one request being served: its pages, its DMA segments, and
// completion state. Records are recycled per Device (take, recycle) with
// their lists kept at capacity, so a steady stream of requests allocates
// none; gen tells one use of a record from the next (infRef).
type inflight struct {
	d       *Device
	gen     uint64       // bumped by every recycle
	irqGen  uint64       // the generation whose completion interrupt is armed; 0 when none
	onIRQ   func()       // the completion interrupt, bound once: inf.irq
	irqBody sim.ProcFunc // the interrupt handler's body, bound once: inf.handleIRQ

	req      *uapi.MovReq
	pages    []pageMove        // migrations only
	segs     []dma.Segment     // everything the request copies, one per page
	subs     []*dma.Transfer   // the train: sub-transfers started so far, in order
	slots    []*pagetable.Slot // Prep's lookup of the source region
	dstSlots []*pagetable.Slot // and of a replication's destination
	pinned   bool              // the request holds a pin on every frame of segs
	aborted  bool              // recover-mode fault handler took over
	released bool
	txn      bool // transactional migration (ReqTxn)
	keepSrc  bool // retain committed source frames as shadow copies

	// Migration claim to drop once the move ends (success or abort).
	claimVPN uint64
	claimN   int
}

// reservePages returns the record's page list emptied, with room for n
// pages: remap and prepareTxn build each page in place and point its
// mapping list into it, so the array must not move while they append.
func (inf *inflight) reservePages(n int) []pageMove {
	if cap(inf.pages) < n {
		return make([]pageMove, 0, n)
	}
	return inf.pages[:0]
}

// infRef is a deferred use of an inflight record — a worker pipeline
// entry, a recover-map entry, an armed completion interrupt — pinned to
// the generation it was made under. get panics if the record has been
// recycled since: the stale use would act on another request.
type infRef struct {
	inf *inflight
	gen uint64
}

func (inf *inflight) ref() infRef { return infRef{inf, inf.gen} }

func (r infRef) get() *inflight {
	if r.inf.gen != r.gen {
		panic(fmt.Sprintf("memif: stale use of a request record: generation %d, recycled to %d", r.gen, r.inf.gen))
	}
	return r.inf
}

// take returns a record for req with its lists empty: a recycled one, or
// a new one whose interrupt callback and handler body are bound once for
// every later use.
func (d *Device) take(req *uapi.MovReq) *inflight {
	var inf *inflight
	if n := len(d.free); n > 0 {
		inf = d.free[n-1]
		d.free[n-1] = nil
		d.free = d.free[:n-1]
	} else {
		inf = &inflight{d: d, gen: 1}
		inf.onIRQ = inf.irq
		inf.irqBody = inf.handleIRQ
	}
	inf.req = req
	return inf
}

// recycle hands inf, and the transfers of its train, back for reuse under
// a new generation. The caller holds the last reference (DESIGN.md §7):
// prepare when the request failed before anything else saw it, and retire
// after finish.
func (d *Device) recycle(inf *inflight) {
	for _, t := range inf.subs {
		d.M.DMA.Recycle(t)
	}
	inf.gen++ // an interrupt still armed for the old generation now panics
	inf.req = nil
	// The lists keep their arrays, cleared so that they pin nothing of
	// this use: subs would otherwise alias the transfers' next users.
	clear(inf.pages)
	clear(inf.segs)
	clear(inf.subs)
	clear(inf.slots)
	clear(inf.dstSlots)
	inf.pages, inf.segs, inf.subs = inf.pages[:0], inf.segs[:0], inf.subs[:0]
	inf.slots, inf.dstSlots = inf.slots[:0], inf.dstSlots[:0]
	inf.pinned, inf.aborted, inf.released, inf.txn, inf.keepSrc = false, false, false, false, false
	inf.claimVPN, inf.claimN = 0, 0
	d.free = append(d.free, inf)
}

// retire recycles inf once finish has released it. A record the recover
// handler aborted is left to the GC: the transfers it dropped may still be
// on the calendar and its completion interrupt may still be due.
func (d *Device) retire(inf *inflight) {
	if inf.released && !inf.aborted {
		d.recycle(inf)
	}
}

// last returns the newest sub-transfer started for the request. Once
// startTrain has returned true that is the train's final one, whose
// completion — one class is FIFO on the single channel — is the request's.
func (inf *inflight) last() *dma.Transfer { return inf.subs[len(inf.subs)-1] }

// pin takes the request's own hold on every frame it copies, from Prep
// to Release (the driver's get_user_pages). The engine pins a
// sub-transfer only while it is programmed or in flight; without this
// hold an overlapping request — a migration of a region this one
// replicates from — could free the frames of one that has yet to start.
func (inf *inflight) pin() {
	for _, s := range inf.segs {
		s.Src.Pin()
		s.Dst.Pin()
	}
	inf.pinned = true
}

// unpin drops the request's hold exactly once.
func (inf *inflight) unpin() {
	if !inf.pinned {
		return
	}
	inf.pinned = false
	for _, s := range inf.segs {
		s.Src.Unpin()
		s.Dst.Unpin()
	}
}

// dropClaim releases the in-flight migration claim exactly once.
func (inf *inflight) dropClaim(as *vm.AddressSpace) {
	if inf.claimN > 0 {
		as.MigRelease(inf.claimVPN, inf.claimN)
		inf.claimN = 0
	}
}

// busy charges CPU time to a phase, a meter and the clock at once.
func (d *Device) busy(p *sim.Proc, m *sim.Meter, phase string, ns int64) {
	if ns <= 0 {
		return
	}
	d.Breakdown.Add(phase, ns)
	p.Busy(ns, m)
}

// serveNext dequeues and serves one request from the submission queue.
// found reports whether a request was dequeued; started whether it
// resulted in a DMA transfer (and hence a completion that will drive
// further progress). A found-but-not-started request completed inline —
// either it failed validation (failure queue) or it was a zero-copy
// transactional commit with no bytes to move.
func (d *Device) serveNext(p *sim.Proc, m *sim.Meter, ctx execCtx) (found, started bool) {
	d.busy(p, m, stats.PhaseInterface, d.M.Plat.Cost.QueueOp)
	idx, ok := d.Area.Submission.Dequeue()
	if !ok {
		return false, false
	}
	if d.lastArrival != 0 {
		gap := int64(p.Now() - d.lastArrival)
		d.gapEWMA = (3*d.gapEWMA + gap) / 4
	}
	d.lastArrival = p.Now()
	req, valid := d.Area.Req(idx)
	if !valid {
		return true, false // hostile index: drop it, stay safe
	}
	return true, d.serveReq(p, m, ctx, req)
}

// serveReq performs operations 1–3 of Table 1 for one request and starts
// its DMA. Completion (operations 4–5) happens on the interrupt path or,
// for a small request the kernel thread serves while nothing else waits
// or the channel is busy, in polling mode: the request joins the worker's
// pipeline and reap completes it. It reports whether a transfer was
// started (false: the request failed validation and its failure
// notification has already been posted, or it needed no transfer).
func (d *Device) serveReq(p *sim.Proc, m *sim.Meter, ctx execCtx, req *uapi.MovReq) bool {
	req.Status = uapi.StatusInFlight
	req.Dispatched = p.Now()
	inf, errc := d.prepare(p, m, req)
	if errc != uapi.ErrNone {
		d.complete(p, m, req, errc)
		return false
	}
	if inf.aborted {
		// A write trapped into the recover handler while Remap was
		// spending its CPU time: the request is already completed.
		return false
	}
	// Dispatched → CopyStart brackets the page lookup and PTE work of
	// prepare; CopyStart → Completed the DMA configuration and copy.
	req.CopyStart = p.Now()
	if req.Op == uapi.OpMigrate {
		d.stats.Migrations++
		if inf.txn {
			d.stats.TxnMigrations++
		}
	} else {
		d.stats.Replications++
	}

	// A transactional migration satisfied entirely by valid shadow
	// copies (and pages already in place) has no bytes to move: commit
	// it here, with no DMA and hence no completion interrupt. Returning
	// false tells the syscall path to wake the worker itself.
	if inf.txn && len(inf.segs) == 0 {
		d.finish(p, m, inf)
		d.retire(inf)
		return false
	}
	inf.pin()

	// Decide the completion mode (Section 5.4), after prepare's last
	// yield: the kernel thread polls a small transfer with the interrupt
	// off while nothing else waits for it, or while the channel is still
	// busy with an earlier transfer (the shape is DMA-bound and polling
	// costs it nothing). With work waiting and the channel idle the
	// worker's CPU is the bottleneck, so the request takes the interrupt
	// and its Release+Notify run in the handler beside the worker.
	// Everything else, and everything started from the syscall path,
	// completes by interrupt. A stale read here can only pick the slower
	// mode: each request still completes through exactly one of them.
	poll := ctx == ctxKthread && req.Length < d.opts.PollThresholdBytes &&
		(!d.M.DMA.Idle() || d.Area.Staging.Empty() && d.Area.Submission.Empty())
	if !d.startTrain(p, m, inf, !poll) {
		return false
	}
	if poll {
		if len(d.pipe) > 0 {
			d.stats.Overlapped++
		}
		d.pipe = append(d.pipe, inf.ref())
	}
	return true
}

// prepare validates the request and performs Prep (gang page lookup) and,
// for migrations, Remap. It returns the inflight state or a failure code.
func (d *Device) prepare(p *sim.Proc, m *sim.Meter, req *uapi.MovReq) (*inflight, uapi.ErrCode) {
	as := d.AS
	if req.Length <= 0 || req.Length%as.PageBytes != 0 {
		return nil, uapi.ErrBadRequest
	}
	// The class becomes the transfer's DMA queue priority; the request
	// array is user-writable, so an unnamed level stops here.
	if !req.Class.Valid() {
		return nil, uapi.ErrBadRequest
	}
	if as.CheckRegion(req.SrcBase, req.Length) != nil {
		return nil, uapi.ErrBadRequest
	}
	inf := d.take(req)
	errc := uapi.ErrBadRequest
	switch req.Op {
	case uapi.OpReplicate:
		errc = d.prepareReplicate(p, m, inf)
	case uapi.OpMigrate:
		errc = d.prepareMigrate(p, m, inf)
	}
	if errc != uapi.ErrNone {
		// Nothing else saw the record: the rollbacks have taken back the
		// PTEs, recover-map entries and frames, and the claim goes here.
		inf.dropClaim(as)
		d.recycle(inf)
		return nil, errc
	}
	return inf, uapi.ErrNone
}

// prepareReplicate looks up both regions and builds one segment per page.
func (d *Device) prepareReplicate(p *sim.Proc, m *sim.Meter, inf *inflight) uapi.ErrCode {
	as, req := d.AS, inf.req
	if as.CheckRegion(req.DstBase, req.Length) != nil {
		return uapi.ErrBadRequest
	}
	n := int(req.Length / as.PageBytes)
	var ok bool
	if inf.slots, ok = d.lookupRegion(p, m, inf.slots, req.SrcBase, n); !ok {
		return uapi.ErrBadRequest
	}
	if inf.dstSlots, ok = d.lookupRegion(p, m, inf.dstSlots, req.DstBase, n); !ok {
		return uapi.ErrBadRequest
	}
	for i := 0; i < n; i++ {
		sf, okS := as.Mem.Lookup(inf.slots[i].Load().Frame())
		df, okD := as.Mem.Lookup(inf.dstSlots[i].Load().Frame())
		if !okS || !okD {
			return uapi.ErrBadRequest
		}
		inf.segs = append(inf.segs, dma.Segment{Src: sf, Dst: df, Bytes: as.PageBytes})
	}
	return uapi.ErrNone
}

// prepareMigrate takes the migration claim, looks up the region and
// performs Remap, or the transactional prepare.
func (d *Device) prepareMigrate(p *sim.Proc, m *sim.Meter, inf *inflight) uapi.ErrCode {
	as, req := d.AS, inf.req
	if !d.hasNode(req.DstNode) {
		return uapi.ErrBadRequest
	}
	// Take the per-page migration claim (the page-lock role): a
	// concurrent move of any overlapping page — from this device or
	// another on the same address space — bounces with EAGAIN.
	n := int(req.Length / as.PageBytes)
	vpn := as.VPN(req.SrcBase)
	if !as.MigClaim(vpn, n) {
		return uapi.ErrBusy
	}
	inf.claimVPN, inf.claimN = vpn, n
	var ok bool
	if inf.slots, ok = d.lookupRegion(p, m, inf.slots, req.SrcBase, n); !ok {
		return uapi.ErrBadRequest
	}
	if req.Flags&uapi.ReqTxn != 0 {
		inf.txn, inf.keepSrc = true, req.Flags&uapi.ReqKeepSrc != 0
		return d.prepareTxn(p, m, inf, inf.slots, req)
	}
	if errc := d.remap(p, m, inf, inf.slots, req); errc != uapi.ErrNone {
		return errc
	}
	for _, pg := range inf.pages {
		inf.segs = append(inf.segs, dma.Segment{Src: pg.oldFrame, Dst: pg.newFrame, Bytes: as.PageBytes})
	}
	return uapi.ErrNone
}

func (d *Device) hasNode(id hw.NodeID) bool {
	for _, n := range d.M.Plat.Nodes {
		if n.ID == id {
			return true
		}
	}
	return false
}

// lookupRegion performs the Prep operation: locate the PTE slots of all
// pages in the region, with gang lookup (Section 5.1) or, when disabled
// for ablation, a full vertical walk per page. The slots are appended to
// slots, the record's own list, which is returned also on failure.
func (d *Device) lookupRegion(p *sim.Proc, m *sim.Meter, slots []*pagetable.Slot, base int64, n int) ([]*pagetable.Slot, bool) {
	as := d.AS
	cost := &d.M.Plat.Cost
	vpn := as.VPN(base)
	var wst pagetable.WalkStats
	if d.opts.GangLookup {
		slots, wst = as.Table.GangLookup(slots, vpn, n)
	} else {
		for i := 0; i < n; i++ {
			s, st := as.Table.Lookup(vpn + uint64(i))
			slots = append(slots, s)
			wst.Add(st)
		}
	}
	d.busy(p, m, stats.PhasePrep,
		int64(wst.Verticals)*cost.PageLookupVertical+int64(wst.Horizontals)*cost.PageLookupHorizontal)
	for _, s := range slots {
		if s == nil || !s.Load().Has(pagetable.FlagPresent) {
			return slots, false
		}
	}
	return slots, true
}

// mappingsOf appends to out every PTE referencing the frame, found through
// the machine's reverse map; without one, the requester's own slot is the
// only mapping.
func (d *Device) mappingsOf(out []mappedPTE, f *phys.Frame, slot *pagetable.Slot, addr int64) []mappedPTE {
	if d.AS.Rmap != nil {
		if ms := d.AS.Rmap.Lookup(f.ID); len(ms) > 0 {
			for _, mm := range ms {
				out = append(out, mappedPTE{as: mm.AS, slot: mm.Slot, vpn: mm.AS.VPN(mm.Addr), old: mm.Slot.Load()})
			}
			return out
		}
	}
	return append(out, mappedPTE{as: d.AS, slot: slot, vpn: d.AS.VPN(addr), old: slot.Load()})
}

// remap performs operation 2 for a migration: allocate destination pages
// and install the race-policy PTE in every mapping of every page.
func (d *Device) remap(p *sim.Proc, m *sim.Meter, inf *inflight, slots []*pagetable.Slot, req *uapi.MovReq) uapi.ErrCode {
	as := d.AS
	cost := &d.M.Plat.Cost
	pb := as.PageBytes
	perMapping := cost.PTEReplace + cost.TLBFlushPage + cost.RmapBook
	var remapNS int64

	inf.pages = inf.reservePages(len(slots))
	for i, slot := range slots {
		old := slot.Load()
		oldFrame, ok := as.Mem.Lookup(old.Frame())
		if !ok {
			d.rollbackRemap(p, m, inf)
			return uapi.ErrBadRequest
		}
		newFrame, err := as.Mem.Alloc(req.DstNode, pb)
		if err != nil {
			d.rollbackRemap(p, m, inf)
			return uapi.ErrNoMemory
		}
		addr := req.SrcBase + int64(i)*pb
		// Built in place: maps points into the page's own storage.
		inf.pages = inf.pages[:i+1]
		pg := &inf.pages[i]
		*pg = pageMove{addr: addr, oldFrame: oldFrame, newFrame: newFrame}
		pg.maps = d.mappingsOf(pg.one[:0], oldFrame, slot, addr)
		var installed pagetable.PTE
		switch d.opts.RaceMode {
		case RaceDetect:
			// Semi-final PTE: identical to the final one except the
			// young bit is set. The page is remapped to the new frame
			// immediately; a reference before Release clears young
			// and the release CAS reports the race.
			installed = pagetable.Make(newFrame.ID,
				pagetable.FlagPresent|pagetable.FlagWrite|pagetable.FlagYoung)
			oldFrame.RefCount -= len(pg.maps)
			newFrame.RefCount += len(pg.maps)
			if as.Rmap != nil {
				as.Rmap.Move(oldFrame, newFrame)
			}
		case RaceRecover:
			// Keep the old frame mapped read-only; writes trap into
			// the recovery fault handler.
			installed = pagetable.Make(oldFrame.ID,
				pagetable.FlagPresent|pagetable.FlagRecover)
		case RacePrevent:
			// Baseline-style migration PTE: accessors block until
			// Release.
			installed = pagetable.Make(oldFrame.ID,
				pagetable.FlagPresent|pagetable.FlagMigration)
		}
		for j := range pg.maps {
			pg.maps[j].installed = installed
			pg.maps[j].slot.Store(installed)
			pg.maps[j].as.InvalidatePage(pg.maps[j].vpn)
			if d.opts.RaceMode == RaceRecover {
				d.recoverMap[pg.maps[j].slot] = inf.ref()
			}
		}
		remapNS += cost.PageAlloc + int64(len(pg.maps))*perMapping
	}
	d.busy(p, m, stats.PhaseRemap, remapNS)
	return uapi.ErrNone
}

// prepareTxn performs the Nomad-style prepare for a transactional
// migration: no PTE is touched except to clear the dirty bit as the copy
// baseline, so the application keeps reading and writing the page at full
// speed during the copy. Per page it decides one of three outcomes —
// noop (already on the destination node), zero-copy (a still-valid
// shadow copy sits on the destination: commit will be a bare PTE flip),
// or copy (allocate a destination frame and DMA the bytes). Validation,
// not the race policy, rejects shared pages: the single commit CAS can
// only retire one mapping.
func (d *Device) prepareTxn(p *sim.Proc, m *sim.Meter, inf *inflight, slots []*pagetable.Slot, req *uapi.MovReq) uapi.ErrCode {
	as := d.AS
	cost := &d.M.Plat.Cost
	pb := as.PageBytes
	var ns int64

	inf.pages = inf.reservePages(len(slots))
	for i, slot := range slots {
		old := slot.Load()
		oldFrame, ok := as.Mem.Lookup(old.Frame())
		if !ok {
			d.rollbackTxnPrep(p, m, inf)
			return uapi.ErrBadRequest
		}
		if oldFrame.RefCount > 1 {
			d.rollbackTxnPrep(p, m, inf)
			return uapi.ErrBadRequest
		}
		if as.Rmap != nil && len(as.Rmap.Lookup(oldFrame.ID)) > 1 {
			d.rollbackTxnPrep(p, m, inf)
			return uapi.ErrBadRequest
		}
		addr := req.SrcBase + int64(i)*pb
		vpn := as.VPN(addr)
		// Built in place, like remap's pages. Should the allocation below
		// fail, the page has no new frame and the rollback passes it by.
		inf.pages = inf.pages[:i+1]
		pg := &inf.pages[i]
		*pg = pageMove{addr: addr, oldFrame: oldFrame}
		pg.one[0] = mappedPTE{as: as, slot: slot, vpn: vpn, old: old}
		pg.maps = pg.one[:1]
		if oldFrame.Node == req.DstNode {
			pg.noop = true
			continue
		}
		// Shadow validity is judged against the pre-baseline PTE: a
		// dirty bit set now means the page changed since the shadow was
		// taken, regardless of what the scan below clears.
		if sh, of := as.ShadowAt(vpn); sh != nil {
			if of != old.Frame() || old.Has(pagetable.FlagDirty) {
				as.DropShadow(vpn)
				ns += cost.PageFree
			} else if sh.Node == req.DstNode {
				pg.zeroCopy = true
				pg.newFrame = sh
			}
		}
		// Clear dirty as the copy baseline; a write from here on marks
		// the page dirty again and the commit CAS will refuse it.
		if old.Has(pagetable.FlagDirty) {
			for {
				cur := slot.Load()
				clean := cur.Without(pagetable.FlagDirty)
				if slot.CompareAndSwap(cur, clean) {
					break
				}
			}
			ns += cost.PTECas
		}
		if !pg.zeroCopy {
			newFrame, err := as.Mem.Alloc(req.DstNode, pb)
			if err != nil {
				d.rollbackTxnPrep(p, m, inf)
				return uapi.ErrNoMemory
			}
			pg.newFrame = newFrame
			ns += cost.PageAlloc
			inf.segs = append(inf.segs, dma.Segment{Src: oldFrame, Dst: newFrame, Bytes: pb})
		}
	}
	d.busy(p, m, stats.PhaseRemap, ns)
	return uapi.ErrNone
}

// rollbackTxnPrep frees destination frames allocated by a partially
// prepared transactional migration. Nothing else changed: the pages were
// never remapped.
func (d *Device) rollbackTxnPrep(p *sim.Proc, m *sim.Meter, inf *inflight) {
	cost := &d.M.Plat.Cost
	var ns int64
	for _, pg := range inf.pages {
		if pg.newFrame != nil && !pg.zeroCopy && !pg.noop {
			d.AS.Mem.Free(pg.newFrame)
			ns += cost.PageFree
		}
	}
	d.busy(p, m, stats.PhaseRemap, ns)
	inf.pages = inf.pages[:0]
}

// rollbackRemap undoes partially completed remaps after a mid-request
// allocation failure.
func (d *Device) rollbackRemap(p *sim.Proc, m *sim.Meter, inf *inflight) {
	cost := &d.M.Plat.Cost
	var ns int64
	for _, pg := range inf.pages {
		for _, mp := range pg.maps {
			mp.slot.Store(mp.old)
			mp.as.InvalidatePage(mp.vpn)
			ns += cost.PTEReplace + cost.TLBFlushPage
			switch d.opts.RaceMode {
			case RaceRecover:
				delete(d.recoverMap, mp.slot)
			case RacePrevent:
				mp.as.ReleaseMigrationGate(mp.slot)
			}
		}
		if d.opts.RaceMode == RaceDetect {
			pg.oldFrame.RefCount += len(pg.maps)
			pg.newFrame.RefCount -= len(pg.maps)
			if d.AS.Rmap != nil {
				d.AS.Rmap.Move(pg.newFrame, pg.oldFrame)
			}
		}
		ns += cost.PageFree
		if pg.newFrame.RefCount == 0 {
			d.AS.Mem.Free(pg.newFrame)
		}
	}
	d.busy(p, m, stats.PhaseRemap, ns)
	inf.pages = inf.pages[:0]
}

// subPages is how many pages one sub-transfer of a request of class c
// carries. A class that can be bypassed at the channel holds it for at
// most one channelQuantum at a time (never less than a page); Foreground
// has nobody to yield to and is bounded only by the PaRAM array, through
// maxChain.
func (d *Device) subPages(c uapi.Class) int {
	n := d.maxChain
	if c != uapi.ClassForeground {
		if q := int(channelQuantum / d.AS.PageBytes); q < n {
			n = max(q, 1)
		}
	}
	return n
}

// startTrain performs operation 3 (DMA configuration) for the whole
// request and triggers it as a train of sub-transfers of subPages pages.
// The serving context — worker or syscall path, never the interrupt
// handler — configures sub-transfer k+1 while k copies and starts each as
// soon as it is programmed, keeping at most pipeDepth of the request on
// the channel; a request of one sub-transfer (every Foreground request up
// to maxChain pages) is programmed and started exactly as a single
// transfer. Only the last sub-transfer delivers the completion: with irq
// true to the interrupt path, otherwise through its Done event. It
// reports whether the whole train was started; on false the request has
// already been completed as failed — here, or by the recover fault
// handler, which can take the request over at any yield of the serving
// context (the descriptor writes, the waits) and drops every sub-transfer
// started so far.
func (d *Device) startTrain(p *sim.Proc, m *sim.Meter, inf *inflight, irq bool) bool {
	per := d.subPages(inf.req.Class)
	inf.subs = inf.subs[:0]
	for rest := inf.segs; len(rest) > 0; {
		batch := rest[:min(per, len(rest))]
		rest = rest[len(batch):]
		if k := len(inf.subs); k >= pipeDepth {
			p.WaitEvent(inf.subs[k-pipeDepth].Done)
		}
		tr := d.program(p, m, inf, batch)
		if tr == nil {
			return false
		}
		tr.Class = inf.req.Class
		inf.subs = append(inf.subs, tr)
		d.Breakdown.Add(stats.PhaseCopy,
			d.M.Plat.DMATransferNS(tr.Bytes(), batch[0].Src.Node, batch[0].Dst.Node))
		if irq && len(rest) == 0 {
			inf.irqGen = inf.gen
			d.M.DMA.Start(tr, true, inf.onIRQ)
		} else {
			d.M.DMA.Start(tr, false, nil)
		}
		if d.subStarted != nil {
			d.subStarted(inf)
		}
	}
	return true
}

// program configures one sub-transfer of inf, sleeping out descriptor
// backpressure (dma.ErrSlotsBusy: the slots are held by transfers in
// flight, this request's own among them). It returns nil when the request
// is over: the recover handler took it while this context slept or wrote
// descriptors, or the engine refused the batch.
func (d *Device) program(p *sim.Proc, m *sim.Meter, inf *inflight, batch []dma.Segment) *dma.Transfer {
	for !inf.aborted {
		t0 := p.Now()
		tr, err := d.M.DMA.Program(p, d.opts.DescReuse, batch, m)
		d.Breakdown.Add(stats.PhaseDMACfg, int64(p.Now()-t0))
		switch {
		case errors.Is(err, dma.ErrSlotsBusy):
			d.M.DMA.WaitSlots(p)
		case err != nil:
			// Cannot happen with maxChain capped at the PaRAM size
			// and one page size per request; fail the request.
			inf.released = true
			inf.unpin()
			inf.dropClaim(d.AS)
			d.complete(p, m, inf.req, uapi.ErrBadRequest)
			return nil
		case inf.aborted:
			// The handler could not know of this one; drop it unstarted.
			d.M.DMA.Abort(tr)
		default:
			return tr
		}
	}
	return nil
}

// finish performs operations 4 (Release) and 5 (Notify) after all of a
// request's data has been moved.
func (d *Device) finish(p *sim.Proc, m *sim.Meter, inf *inflight) {
	if inf.released || inf.aborted {
		return
	}
	inf.released = true
	inf.unpin()
	if inf.txn {
		d.finishTxn(p, m, inf)
		return
	}
	req := inf.req
	cost := &d.M.Plat.Cost
	as := d.AS

	errc := uapi.ErrNone
	if req.Op == uapi.OpMigrate {
		var releaseNS int64
		for i := range inf.pages {
			pg := &inf.pages[i]
			for _, mp := range pg.maps {
				switch d.opts.RaceMode {
				case RaceDetect:
					// One CAS clears the young bit; failure means a
					// reference (or modification) raced the DMA.
					final := mp.installed.Without(pagetable.FlagYoung)
					releaseNS += cost.PTECas
					if !mp.slot.CompareAndSwap(mp.installed, final) {
						if errc == uapi.ErrNone {
							req.FailPage = int64(i)
						}
						errc = uapi.ErrRace
						d.stats.RacesDetected++
					}
					// No TLB flush: the semi-final PTE never entered
					// the TLB unreferenced, and on a race the
					// application is getting a SEGFAULT anyway.
				case RaceRecover:
					final := pagetable.Make(pg.newFrame.ID,
						pagetable.FlagPresent|pagetable.FlagWrite)
					mp.slot.Store(final)
					mp.as.InvalidatePage(mp.vpn) // the read-only special PTE was usable
					releaseNS += cost.PTEReplace + cost.TLBFlushPage
					pg.oldFrame.RefCount--
					pg.newFrame.RefCount++
					delete(d.recoverMap, mp.slot)
				case RacePrevent:
					final := pagetable.Make(pg.newFrame.ID,
						pagetable.FlagPresent|pagetable.FlagWrite)
					mp.slot.Store(final)
					mp.as.InvalidatePage(mp.vpn)
					releaseNS += cost.PTEReplace + cost.TLBFlushPage
					pg.oldFrame.RefCount--
					pg.newFrame.RefCount++
					mp.as.ReleaseMigrationGate(mp.slot)
				}
			}
			if d.opts.RaceMode != RaceDetect && as.Rmap != nil {
				// Detect mode rebinds the rmap at Remap time; the
				// other policies keep the old frame mapped until now.
				as.Rmap.Move(pg.oldFrame, pg.newFrame)
			}
			releaseNS += cost.PageFree
			if pg.oldFrame.RefCount == 0 && !pg.oldFrame.FileBacked {
				as.Mem.Release(pg.oldFrame)
			}
		}
		d.busy(p, m, stats.PhaseRelease, releaseNS)
		inf.dropClaim(as)
	}
	d.complete(p, m, req, errc)
}

// finishTxn commits a transactional migration: one CAS per page from the
// clean baseline PTE to the final mapping of the destination frame. A
// dirty bit (or a changed frame) at any page aborts the whole request —
// already-committed pages are rolled back, freshly allocated frames are
// freed, and the original mappings remain untouched, so the caller can
// simply retry. No yield occurs between the first CAS and the last
// rollback store, so the commit is atomic in virtual time; the CPU cost
// is charged as one aggregate afterwards.
func (d *Device) finishTxn(p *sim.Proc, m *sim.Meter, inf *inflight) {
	req := inf.req
	cost := &d.M.Plat.Cost
	as := d.AS
	pb := as.PageBytes
	var ns int64

	committed := make([]pagetable.PTE, len(inf.pages))
	abortAt := -1
	for i := range inf.pages {
		pg := &inf.pages[i]
		if pg.noop {
			continue
		}
		mp := &pg.maps[0]
		cur := mp.slot.Load()
		ns += cost.PTECas
		// The young bit is installed set ("armed"): at the commit
		// instant the page is known unreferenced, so an access-bit
		// scanner reading this PTE must not see a phantom reference.
		final := pagetable.Make(pg.newFrame.ID,
			pagetable.FlagPresent|pagetable.FlagWrite|pagetable.FlagYoung)
		if cur.Frame() != pg.oldFrame.ID || cur.Has(pagetable.FlagDirty) ||
			!mp.slot.CompareAndSwap(cur, final) {
			abortAt = i
			req.FailPage = int64(i)
			break
		}
		committed[i] = cur
	}

	if abortAt >= 0 {
		for j := 0; j < abortAt; j++ {
			pg := &inf.pages[j]
			if pg.noop {
				continue
			}
			mp := &pg.maps[0]
			mp.slot.Store(committed[j])
			mp.as.InvalidatePage(mp.vpn)
			ns += cost.PTEReplace + cost.TLBFlushPage
		}
		// Free only the frames this request allocated; zero-copy frames
		// stay owned by the shadow registry (revalidated on retry).
		for i := range inf.pages {
			pg := &inf.pages[i]
			if pg.newFrame != nil && !pg.zeroCopy && !pg.noop {
				as.Mem.Free(pg.newFrame)
				ns += cost.PageFree
			}
		}
		d.stats.TxnAborts++
		d.busy(p, m, stats.PhaseRelease, ns)
		inf.dropClaim(as)
		d.complete(p, m, req, uapi.ErrTxnDirty)
		return
	}

	var moved, zeroPages int64
	for i := range inf.pages {
		pg := &inf.pages[i]
		if pg.noop {
			continue
		}
		mp := &pg.maps[0]
		mp.as.InvalidatePage(mp.vpn)
		ns += cost.TLBFlushPage
		pg.oldFrame.RefCount--
		pg.newFrame.RefCount++
		if as.Rmap != nil {
			as.Rmap.Move(pg.oldFrame, pg.newFrame)
		}
		if pg.zeroCopy {
			// The shadow frame is now the live mapping: release it from
			// the registry without freeing it.
			as.TakeShadow(mp.vpn)
			zeroPages++
			d.stats.ZeroCopyPages++
		} else {
			moved += pb
		}
		if inf.keepSrc && pg.oldFrame.RefCount == 0 &&
			!pg.oldFrame.Pinned() && !pg.oldFrame.FileBacked {
			// Non-exclusive tiering: the source frame stays valid until
			// the page is next dirtied, making the reverse move free.
			as.SetShadow(mp.vpn, pg.oldFrame, pg.newFrame.ID)
			ns += cost.RmapBook
		} else {
			as.DropShadow(mp.vpn)
			ns += cost.PageFree
			if pg.oldFrame.RefCount == 0 && !pg.oldFrame.FileBacked {
				as.Mem.Release(pg.oldFrame)
			}
		}
	}
	req.MovedBytes = moved
	req.ZeroCopyPages = zeroPages
	d.stats.TxnCommits++
	d.busy(p, m, stats.PhaseRelease, ns)
	inf.dropClaim(as)
	d.complete(p, m, req, uapi.ErrNone)
}

// complete posts the notification (operation 5).
func (d *Device) complete(p *sim.Proc, m *sim.Meter, req *uapi.MovReq, errc uapi.ErrCode) {
	// A request must complete exactly once; a second completion means
	// two driver paths raced (the bug class the recover-handler claim
	// protocol exists to prevent). Fail loudly, like a kernel BUG_ON.
	switch req.Status {
	case uapi.StatusDone, uapi.StatusFailed, uapi.StatusFree:
		panic(fmt.Sprintf("memif: double completion of %v (errc %v)", req, errc))
	}
	req.Err = errc
	req.Completed = p.Now()
	d.busy(p, m, stats.PhaseNotify, d.M.Plat.Cost.NotifyEnqueue)
	if errc == uapi.ErrNone {
		req.Status = uapi.StatusDone
		d.stats.Completed++
		if req.Flags&uapi.ReqTxn != 0 {
			d.stats.BytesMoved += req.MovedBytes
		} else {
			d.stats.BytesMoved += req.Length
		}
		d.Area.CompOK.Enqueue(req.Index())
	} else {
		req.Status = uapi.StatusFailed
		d.stats.Failed++
		d.Area.CompFail.Enqueue(req.Index())
	}
	d.notifySig.Broadcast()
}

// handleRecoverFault is the custom page fault handler of the
// proceed-and-recover policy: on a write to a migrating page it aborts
// the DMA, restores the original mappings of the whole request, and posts
// an aborted completion. Runs in the faulting application's context.
func (d *Device) handleRecoverFault(p *sim.Proc, addr int64, slot *pagetable.Slot, write bool) bool {
	ref, ok := d.recoverMap[slot]
	if !ok {
		return false
	}
	inf := ref.get()
	// Claim the in-flight migration *before* spending any time: the
	// release path may be racing us off the transfer's completion. If
	// it already claimed (released), the final PTEs are in place — let
	// the access retry and proceed normally. Claiming first means the
	// release path backs off instead.
	if inf.released || inf.aborted {
		return false
	}
	inf.aborted = true
	cost := &d.M.Plat.Cost
	d.busy(p, d.UserMeter, stats.PhaseInterface, cost.IRQEntry) // trap cost
	for _, t := range inf.subs {
		d.M.DMA.Abort(t)
	}
	inf.unpin()
	var ns int64
	for _, pg := range inf.pages {
		for _, mp := range pg.maps {
			mp.slot.Store(mp.old)
			mp.as.InvalidatePage(mp.vpn)
			ns += cost.PTEReplace + cost.TLBFlushPage
			delete(d.recoverMap, mp.slot)
		}
		// Never mapped; freed once the dropped transfer lets go of it.
		d.AS.Mem.Release(pg.newFrame)
	}
	ns += int64(len(inf.pages)) * cost.PageFree
	d.busy(p, d.UserMeter, stats.PhaseRelease, ns)
	inf.dropClaim(d.AS)
	d.stats.Recovered++
	d.complete(p, d.UserMeter, inf.req, uapi.ErrAborted)
	// An aborted transfer raises no completion interrupt, so the usual
	// IRQ -> worker handoff is broken; wake the worker from the trap
	// before returning to the faulting access.
	d.busy(p, d.UserMeter, stats.PhaseInterface, cost.KthreadWake)
	d.workSignal.Signal()
	return true
}
