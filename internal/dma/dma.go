// Package dma models an EDMA3-class DMA engine (TI's enhanced DMA, the
// engine on KeyStone II): an array of transfer descriptors ("PaRAM"
// entries) living in uncached I/O memory, scatter-gather transfers built
// by chaining descriptors, and completion delivery by interrupt or by
// polling.
//
// The two costs Section 5.3 identifies — computing the 12 descriptor
// parameters and writing them through uncached I/O memory — are modelled
// explicitly, as is the paper's optimization: the enhanced driver keeps
// knowledge of already-configured descriptor chains ("starting from
// descriptor 42 there is a chain of 32 descriptors, each configured for a
// 4 KB transfer") and reuses them, rewriting only the source and
// destination fields for a ~4x reduction in write cost.
package dma

import (
	"errors"
	"fmt"

	"memif/internal/hw"
	"memif/internal/phys"
	"memif/internal/qos"
	"memif/internal/sim"
)

// Desc is one transfer descriptor (PaRAM entry). Only the fields the
// memif driver manipulates are modelled; the remaining parameters are
// folded into the configuration costs.
type Desc struct {
	Src, Dst int64 // physical addresses
	Bytes    int64 // transfer size (ACNT*BCNT*CCNT collapsed)
	Link     int   // next descriptor slot; -1 terminates the chain

	configured bool  // slot holds a valid parameter set
	chainBytes int64 // size the slot was configured for (reuse key)
}

// Segment is one physically contiguous piece of a scatter-gather
// transfer. Without an IOMMU every segment must fit one physical page,
// so the driver dedicates one descriptor per page (Section 5.3).
type Segment struct {
	Src, Dst *phys.Frame
	Bytes    int64
}

// State of a Transfer.
type State int

// Transfer lifecycle states.
const (
	StateQueued State = iota
	StateActive
	StateDone
	StateAborted
)

func (s State) String() string {
	return [...]string{"queued", "active", "done", "aborted"}[s]
}

// Transfer is one scatter-gather transfer submitted to the engine. The
// engine recycles transfers (Program takes one, Recycle gives it back), so
// a *Transfer names one use only between the two; gen tells the uses
// apart.
type Transfer struct {
	eng     *Engine
	gen     uint64 // bumped by every recycle
	due     uint64 // the generation whose completion is on the calendar; 0 when none
	fire    func() // the calendar's completion callback, bound once: t.complete
	segs    []Segment
	first   int // first descriptor slot of the chain
	nDesc   int
	ownsRun bool   // non-reused run: slots are freed at completion
	chain   *chain // remembered chain the transfer holds until it completes
	bytes   int64
	src     hw.NodeID
	dst     hw.NodeID
	state   State
	irq     bool
	onIRQ   func()     // completion-interrupt handler (runs after IRQ latency)
	Done    *sim.Event // fires when the copy physically completes (or aborts)
	done    sim.Event  // Done's storage
	aborted bool

	// Class orders the transfer at the engine's single channel: lower
	// value is served first, FIFO within a class, never preempting the
	// active transfer. Set before Start; zero is the highest priority.
	Class qos.Class
}

// Bytes returns the total payload size.
func (t *Transfer) Bytes() int64 { return t.bytes }

// State returns the transfer's current state.
func (t *Transfer) State() State { return t.state }

// chain records driver knowledge about a configured descriptor run. A
// chain belongs to one transfer from Program until that transfer completes
// or is aborted: the engine reads the descriptors while it copies, so
// rewriting them for the next transfer any earlier would redirect the one
// in flight.
type chain struct {
	start, length int
	bytes         int64
	lastUse       int64
	busy          bool
}

// ErrSlotsBusy is Program's backpressure: no descriptor run is free and
// forgetting idle chains cannot make one, because transfers in flight hold
// the slots. Wait for one to finish (WaitSlots) and program again.
var ErrSlotsBusy = errors.New("dma: descriptor slots held by transfers in flight")

// Stats counts engine activity for the evaluation's cost breakdowns.
type Stats struct {
	Transfers        int64
	BytesMoved       int64
	DescWritesFull   int64
	DescWritesReused int64
	IRQs             int64
	Aborts           int64
	// PriorityBypasses counts queued transfers that a later, higher-class
	// submission jumped ahead of.
	PriorityBypasses int64
	// SlotWaits counts waits for descriptor slots held by transfers in
	// flight (WaitSlots): zero unless the PaRAM array ran full.
	SlotWaits int64
}

// Engine is the DMA engine plus its (enhanced) kernel driver state.
type Engine struct {
	eng  *sim.Engine
	plat *hw.Platform

	params []Desc
	inUse  []bool // slot is part of a remembered chain or in-flight run
	chains []*chain
	useSeq int64
	// slotsFreed is broadcast whenever a transfer lets go of its
	// descriptors; contexts that met ErrSlotsBusy park on it.
	slotsFreed *sim.Cond

	queue  []*Transfer // transfers waiting for the channel
	active *Transfer
	free   []*Transfer // recycled transfers, for Program to take

	// Meter accumulates engine busy time (bus occupancy, not CPU).
	Meter *sim.Meter
	stats Stats
}

// New builds the engine for a platform.
func New(eng *sim.Engine, plat *hw.Platform) *Engine {
	n := plat.DMA.ParamSlots
	return &Engine{
		eng:    eng,
		plat:   plat,
		params: make([]Desc, n),
		inUse:  make([]bool, n),
		Meter:  sim.NewMeter("dma"),

		slotsFreed: sim.NewCond(eng),
	}
}

// Stats returns a snapshot of the engine counters.
func (e *Engine) Stats() Stats { return e.stats }

// findChain locates an idle remembered chain of at least n descriptors of
// the given per-descriptor size, preferring the tightest fit.
func (e *Engine) findChain(n int, bytes int64) *chain {
	var best *chain
	for _, c := range e.chains {
		if !c.busy && c.bytes == bytes && c.length >= n {
			if best == nil || c.length < best.length {
				best = c
			}
		}
	}
	return best
}

// evictChain forgets the least recently used idle chain, releasing its
// slots.
func (e *Engine) evictChain() bool {
	oldest := -1
	for i, c := range e.chains {
		if !c.busy && (oldest < 0 || c.lastUse < e.chains[oldest].lastUse) {
			oldest = i
		}
	}
	if oldest < 0 {
		return false
	}
	c := e.chains[oldest]
	e.chains = append(e.chains[:oldest], e.chains[oldest+1:]...)
	e.markRun(c.start, c.length, false)
	return true
}

func (e *Engine) markRun(start, n int, used bool) {
	for i := 0; i < n; i++ {
		e.inUse[start+i] = used
	}
}

// allocRun finds a contiguous run of n free slots (first fit), evicting
// idle remembered chains as needed. With every idle chain forgotten the
// only slots left claimed are those of transfers in flight, so running out
// then is ErrSlotsBusy, never a permanent failure.
func (e *Engine) allocRun(n int) (int, error) {
	if n > len(e.params) {
		return -1, fmt.Errorf("dma: transfer needs %d descriptors, engine has %d", n, len(e.params))
	}
	for {
		run := 0
		for i := range e.inUse {
			if e.inUse[i] {
				run = 0
				continue
			}
			run++
			if run == n {
				start := i - n + 1
				e.markRun(start, n, true)
				return start, nil
			}
		}
		if !e.evictChain() {
			return -1, fmt.Errorf("%w: no contiguous run of %d", ErrSlotsBusy, n)
		}
	}
}

// Program assembles a scatter-gather transfer for segs. When reuse is
// true the enhanced driver reuses an idle remembered descriptor chain of
// the right shape if one exists (rewriting only src/dst) and remembers
// newly written chains for later; with reuse false (the baseline driver)
// full descriptors are computed and written every time and the slots are
// recycled at completion. The CPU cost of configuration is charged to p
// against meters. When transfers in flight hold too many slots it returns
// ErrSlotsBusy having charged and claimed nothing.
//
// All segments of one transfer must share a size: the driver dedicates
// one descriptor per page and a request's pages have one size.
func (e *Engine) Program(p *sim.Proc, reuse bool, segs []Segment, meters ...*sim.Meter) (*Transfer, error) {
	if len(segs) == 0 {
		return nil, fmt.Errorf("dma: empty transfer")
	}
	bytes := segs[0].Bytes
	var total int64
	for _, s := range segs {
		if s.Bytes != bytes {
			return nil, fmt.Errorf("dma: mixed segment sizes %d and %d", bytes, s.Bytes)
		}
		if s.Bytes <= 0 || s.Bytes > s.Src.Size || s.Bytes > s.Dst.Size {
			return nil, fmt.Errorf("dma: segment size %d exceeds frames", s.Bytes)
		}
		total += s.Bytes
	}
	cost := &e.plat.Cost
	cpu := cost.SGListInit

	n := len(segs)
	var held *chain
	reusedChain := false
	if reuse {
		held = e.findChain(n, bytes)
		reusedChain = held != nil
	}
	var start int
	if held != nil {
		start = held.start
	} else {
		var err error
		if start, err = e.allocRun(n); err != nil {
			return nil, err
		}
		if reuse {
			held = &chain{start: start, length: n, bytes: bytes}
			e.chains = append(e.chains, held)
		}
	}
	if held != nil {
		e.useSeq++
		held.lastUse = e.useSeq
		held.busy = true
	}

	for i, s := range segs {
		d := &e.params[start+i]
		d.Src = s.Src.Addr
		d.Dst = s.Dst.Addr
		d.Bytes = s.Bytes
		if i < n-1 {
			d.Link = start + i + 1
		} else {
			d.Link = -1
		}
		if reusedChain && d.configured && d.chainBytes == bytes {
			cpu += cost.DescWriteReused
			e.stats.DescWritesReused++
		} else {
			cpu += cost.DescParamCalc + cost.DescWriteFull
			e.stats.DescWritesFull++
			d.configured = true
			d.chainBytes = bytes
		}
	}
	// Pin before the descriptor writes take their CPU time: whoever gives
	// the frames up meanwhile (a recover-fault abort) defers the free to
	// the unpin instead of freeing what the transfer is about to target.
	for _, s := range segs {
		s.Src.Pin()
		s.Dst.Pin()
	}
	if p != nil {
		p.Busy(cpu, meters...)
	}

	t := e.take()
	t.segs, t.first, t.nDesc = segs, start, n
	t.ownsRun, t.chain = held == nil, held
	t.bytes, t.src, t.dst = total, segs[0].Src.Node, segs[0].Dst.Node
	return t, nil
}

// take pops a recycled transfer, or makes one with its completion
// callback and its Done event bound once for every later use.
func (e *Engine) take() *Transfer {
	if n := len(e.free); n > 0 {
		t := e.free[n-1]
		e.free[n-1] = nil
		e.free = e.free[:n-1]
		return t
	}
	t := &Transfer{eng: e, gen: 1}
	t.fire = t.complete
	t.done.Init(e.eng)
	t.Done = &t.done
	return t
}

// Recycle hands a finished transfer back for Program to reuse. The caller
// must hold the last reference: the transfer is done or aborted, so no
// completion of it is left on the calendar, and its Done has fired.
func (e *Engine) Recycle(t *Transfer) {
	if t.state != StateDone && t.state != StateAborted {
		panic(fmt.Sprintf("dma: recycling a transfer that is %v", t.state))
	}
	e.recycle(t)
}

// recycle resets t for its next use under a new generation, so that a
// completion still scheduled for the old one panics instead of acting.
func (e *Engine) recycle(t *Transfer) {
	t.gen++
	t.segs, t.chain, t.onIRQ = nil, nil, nil
	t.ownsRun, t.irq, t.aborted = false, false, false
	t.state, t.Class = StateQueued, 0
	t.done.Reset()
	e.free = append(e.free, t)
}

// Start triggers the transfer. If irq is true, onIRQ runs (in engine
// context) one interrupt latency after the copy completes; with irq false
// the caller is expected to poll t.Done (the kernel thread's polling mode
// for small transfers, Section 5.4). The channel serializes transfers;
// queued transfers are ordered by Class (lower first, FIFO within a
// class) and the active transfer is never preempted.
func (e *Engine) Start(t *Transfer, irq bool, onIRQ func()) {
	t.irq = irq
	t.onIRQ = onIRQ
	if e.active != nil {
		pos := len(e.queue)
		for i, q := range e.queue {
			if t.Class < q.Class {
				pos = i
				break
			}
		}
		if pos < len(e.queue) {
			e.stats.PriorityBypasses += int64(len(e.queue) - pos)
			e.queue = append(e.queue, nil)
			copy(e.queue[pos+1:], e.queue[pos:])
			e.queue[pos] = t
		} else {
			e.queue = append(e.queue, t)
		}
		return
	}
	e.begin(t)
}

func (e *Engine) begin(t *Transfer) {
	e.active = t
	t.state = StateActive
	dur := e.plat.DMATransferNS(t.bytes, t.src, t.dst)
	e.Meter.Add(dur)
	t.due = t.gen
	e.eng.AfterNS(dur, t.fire)
}

// complete is the calendar's callback when t's copy ends. It checks that
// the transfer was not recycled while the copy was on the calendar.
func (t *Transfer) complete() {
	if t.due != t.gen {
		panic(fmt.Sprintf("dma: completion of generation %d reached a transfer recycled to generation %d", t.due, t.gen))
	}
	t.due = 0
	e := t.eng
	if t.state == StateActive {
		if !t.aborted {
			for _, s := range t.segs {
				phys.Copy(s.Dst, s.Src, s.Bytes)
			}
			e.stats.Transfers++
			e.stats.BytesMoved += t.bytes
			t.state = StateDone
		} else {
			t.state = StateAborted
		}
	}
	t.releaseResources(e)
	// Advance the channel before delivering the interrupt: the engine
	// moves on to the next queued transfer immediately.
	e.active = nil
	if len(e.queue) > 0 {
		next := e.queue[0]
		e.queue = e.dequeue(0)
		e.begin(next)
	}
	t.Done.Fire()
	if t.irq && !t.aborted && t.onIRQ != nil {
		e.stats.IRQs++
		e.eng.AfterNS(e.plat.DMA.IRQNS, t.onIRQ)
	}
}

// releaseResources unpins the frames, recycles an owned descriptor run
// and hands a remembered chain back for reuse; complete and Abort between
// them call it exactly once per transfer.
func (t *Transfer) releaseResources(e *Engine) {
	for _, s := range t.segs {
		s.Src.Unpin()
		s.Dst.Unpin()
	}
	if t.ownsRun {
		e.markRun(t.first, t.nDesc, false)
		t.ownsRun = false
	}
	if t.chain != nil {
		t.chain.busy = false
		t.chain = nil
	}
	e.slotsFreed.Broadcast()
}

// dequeue removes queue entry i in place. The vacated slot is cleared: a
// recycled transfer left in the backing array would alias its next use.
func (e *Engine) dequeue(i int) []*Transfer {
	q := e.queue
	n := i + copy(q[i:], q[i+1:])
	q[n] = nil
	return q[:n]
}

// WaitSlots parks p until some transfer lets go of its descriptors: the
// wait after ErrSlotsBusy. Every programmed transfer is started or
// aborted by its driver and the channel drains on its own, so the wait
// ends without the caller's help.
func (e *Engine) WaitSlots(p *sim.Proc) {
	e.stats.SlotWaits++
	p.WaitCond(e.slotsFreed)
}

// Abort drops a transfer: a queued transfer is removed, an active one
// completes without copying any bytes. Used by the proceed-and-recover
// fault handler ("drops the outstanding DMA transfer", Section 5.2).
func (e *Engine) Abort(t *Transfer) {
	switch t.state {
	case StateQueued:
		for i, q := range e.queue {
			if q == t {
				e.queue = e.dequeue(i)
				break
			}
		}
		t.state = StateAborted
		t.releaseResources(e)
		t.Done.Fire()
		e.stats.Aborts++
	case StateActive:
		t.aborted = true
		e.stats.Aborts++
	case StateDone, StateAborted:
		// Nothing to do.
	}
}

// Idle reports whether the channel has no active transfer. A transfer
// queued behind the active one starts the instant it ends, so the channel
// is idle only when nothing is on it at all.
func (e *Engine) Idle() bool { return e.active == nil }

// FreeSlots reports how many descriptor slots are currently unclaimed.
func (e *Engine) FreeSlots() int {
	n := 0
	for _, u := range e.inUse {
		if !u {
			n++
		}
	}
	return n
}

// Chains reports how many descriptor chains the enhanced driver currently
// remembers.
func (e *Engine) Chains() int { return len(e.chains) }
