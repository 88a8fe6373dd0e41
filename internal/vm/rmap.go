package vm

import (
	"errors"
	"fmt"

	"memif/internal/pagetable"
	"memif/internal/phys"
	"memif/internal/sim"
)

// Mapping is one (address space, slot) pair referencing a frame — a
// reverse-map entry.
type Mapping struct {
	AS   *AddressSpace
	Slot *pagetable.Slot
	Addr int64
}

// Rmap is the machine-wide reverse map: frame -> every PTE mapping it.
// The paper's prototype calls its support for pages shared among
// processes "primitive" (Section 6.7); with a real reverse map the memif
// driver can migrate shared pages by updating all mappings, the way
// try_to_migrate walks the rmap in Linux.
//
// Nearly every frame is mapped exactly once, by a private page. That one
// mapping is kept inline in a slice indexed by FrameID (IDs are dense,
// and a recycled frame keeps its own), so finding, adding and moving it
// touch no map and allocate nothing. Frames mapped more than once, and
// only those, keep their mappings in a side map.
//
// Address spaces created without an Rmap (nil) skip the bookkeeping and
// behave as single-mapping processes.
type Rmap struct {
	// one[f] is frame f's mapping while f has exactly one; a nil Slot
	// marks a frame with none or several.
	one []Mapping
	// many holds the mappings of every frame that has more than one, in
	// the order they were added.
	many map[phys.FrameID][]Mapping
	// cacheRefs tracks which file page-cache entry (if any) owns a
	// frame, so migration can rebind the cache alongside the PTEs.
	cacheRefs map[phys.FrameID]cacheRef
}

type cacheRef struct {
	file *File
	idx  int64
}

// NewRmap returns an empty reverse map.
func NewRmap() *Rmap {
	return &Rmap{
		many:      make(map[phys.FrameID][]Mapping),
		cacheRefs: make(map[phys.FrameID]cacheRef),
	}
}

// AddCacheRef records that file's page idx caches frame f.
func (r *Rmap) AddCacheRef(f phys.FrameID, file *File, idx int64) {
	r.cacheRefs[f] = cacheRef{file: file, idx: idx}
}

// DropCacheRef forgets a cache reference (page evicted from the cache).
func (r *Rmap) DropCacheRef(f phys.FrameID) {
	delete(r.cacheRefs, f)
}

// single returns frame f's inline mapping, nil unless f has exactly one.
func (r *Rmap) single(f phys.FrameID) *Mapping {
	if int(f) < len(r.one) && r.one[f].Slot != nil {
		return &r.one[f]
	}
	return nil
}

// setSingle makes m frame f's one mapping.
func (r *Rmap) setSingle(f phys.FrameID, m Mapping) {
	if int(f) >= len(r.one) {
		r.one = append(r.one, make([]Mapping, int(f)+1-len(r.one))...)
	}
	r.one[f] = m
}

// Add records a mapping; its Slot must not be nil.
func (r *Rmap) Add(f phys.FrameID, m Mapping) {
	if e := r.single(f); e != nil {
		r.many[f] = []Mapping{*e, m}
		*e = Mapping{}
	} else if ms, ok := r.many[f]; ok {
		r.many[f] = append(ms, m)
	} else {
		r.setSingle(f, m)
	}
}

// Remove drops the mapping with the given slot.
func (r *Rmap) Remove(f phys.FrameID, slot *pagetable.Slot) {
	if e := r.single(f); e != nil {
		if e.Slot == slot {
			*e = Mapping{}
		}
		return
	}
	ms, ok := r.many[f]
	if !ok {
		return
	}
	for i, m := range ms {
		if m.Slot == slot {
			ms[i] = ms[len(ms)-1]
			ms = ms[:len(ms)-1]
			break
		}
	}
	if len(ms) == 1 {
		delete(r.many, f)
		r.setSingle(f, ms[0])
	} else {
		r.many[f] = ms
	}
}

// Lookup returns all mappings of a frame (shared result; do not mutate).
func (r *Rmap) Lookup(f phys.FrameID) []Mapping {
	if r.single(f) != nil {
		return r.one[f : f+1 : f+1]
	}
	return r.many[f]
}

// Move rebinds every reference to old — PTE mappings and, for
// file-backed pages, the page-cache entry — to the new frame (after a
// migration replaced the backing frame), behind any mappings the new
// frame has of its own. A private page's move is two slice stores.
func (r *Rmap) Move(old, new *phys.Frame) {
	if e := r.single(old.ID); e != nil {
		m := *e
		*e = Mapping{}
		r.Add(new.ID, m)
	} else if ms, ok := r.many[old.ID]; ok {
		delete(r.many, old.ID)
		if e := r.single(new.ID); e != nil {
			ms = append([]Mapping{*e}, ms...)
			*e = Mapping{}
		} else if have, ok := r.many[new.ID]; ok {
			ms = append(have, ms...)
		}
		r.many[new.ID] = ms
	}
	if len(r.cacheRefs) == 0 {
		return
	}
	if cr, ok := r.cacheRefs[old.ID]; ok {
		delete(r.cacheRefs, old.ID)
		r.cacheRefs[new.ID] = cr
		cr.file.rebind(cr.idx, old, new)
	}
}

// rmapAdd/rmapRemove are the address-space hooks (no-ops without a map).
func (as *AddressSpace) rmapAdd(f phys.FrameID, slot *pagetable.Slot, addr int64) {
	if as.Rmap != nil {
		as.Rmap.Add(f, Mapping{AS: as, Slot: slot, Addr: addr})
	}
}

func (as *AddressSpace) rmapRemove(f phys.FrameID, slot *pagetable.Slot) {
	if as.Rmap != nil {
		as.Rmap.Remove(f, slot)
	}
}

// ShareFrom maps the frames backing [srcBase, srcBase+length) of src into
// this address space (a shared anonymous mapping between two processes,
// like mmap(MAP_SHARED) + fork). Both spaces must use the same page size
// and share the same Rmap for migration of the shared pages to stay
// coherent. Returns the base address in the new space.
func (as *AddressSpace) ShareFrom(p *sim.Proc, src *AddressSpace, srcBase, length int64) (int64, error) {
	if as.PageBytes != src.PageBytes {
		return 0, fmt.Errorf("vm: page size mismatch %d vs %d", as.PageBytes, src.PageBytes)
	}
	if as.Rmap == nil || as.Rmap != src.Rmap {
		return 0, errors.New("vm: shared mappings require a common Rmap")
	}
	if err := src.CheckRegion(srcBase, length); err != nil {
		return 0, err
	}
	base := as.nextAddr
	pages := length / as.PageBytes
	cost := &as.Plat.Cost
	for i := int64(0); i < pages; i++ {
		f := src.FrameAt(srcBase + i*as.PageBytes)
		if f == nil {
			return 0, fmt.Errorf("%w: %#x", ErrBadAddress, srcBase+i*as.PageBytes)
		}
		addr := base + i*as.PageBytes
		slot, _ := as.Table.Ensure(as.VPN(addr))
		slot.Store(pagetable.Make(f.ID, pagetable.FlagPresent|pagetable.FlagWrite))
		f.RefCount++
		as.rmapAdd(f.ID, slot, addr)
	}
	charge(p, pages*cost.PTEReplace)
	as.vmas = append(as.vmas, &VMA{Start: base, Length: length, Node: src.FindVMA(srcBase).Node, Name: "shared"})
	as.nextAddr = base + length + as.PageBytes
	return base, nil
}
