package vm

import (
	"fmt"

	"memif/internal/hw"
	"memif/internal/pagetable"
	"memif/internal/phys"
	"memif/internal/sim"
)

// File models an in-memory (tmpfs-like) file whose pages live in a
// machine-wide page cache. The paper's prototype "can only move
// anonymous pages but not pages backed by files" (Section 6.7); with the
// page cache participating in the reverse map, migration rebinds the
// cache entry alongside every PTE, so file-backed pages move like any
// other.
//
// Pages are materialized in the cache on first mapping and stay cached
// for the file's life; nothing evicts them. There is no backing store
// to write back to — the cache *is* the file's contents.
type File struct {
	mem       *phys.Memory
	rmap      *Rmap
	name      string
	size      int64
	pageBytes int64
	cache     map[int64]phys.FrameID // page index -> cached frame
}

// NewFile creates an empty file of the given size whose pages will be
// cached on node when first touched.
func NewFile(mem *phys.Memory, rmap *Rmap, name string, size, pageBytes int64) *File {
	if size <= 0 || size%pageBytes != 0 {
		panic(fmt.Sprintf("vm: file size %d not page aligned", size))
	}
	return &File{
		mem:       mem,
		rmap:      rmap,
		name:      name,
		size:      size,
		pageBytes: pageBytes,
		cache:     make(map[int64]phys.FrameID),
	}
}

// CachedPages reports how many pages are currently in the cache.
func (f *File) CachedPages() int { return len(f.cache) }

// frameFor returns (materializing if needed) the cache frame for page
// idx, allocated on node.
func (f *File) frameFor(idx int64, node hw.NodeID) (*phys.Frame, error) {
	if id, ok := f.cache[idx]; ok {
		if fr, live := f.mem.Lookup(id); live {
			return fr, nil
		}
		delete(f.cache, idx) // stale entry (dropped elsewhere)
	}
	fr, err := f.mem.Alloc(node, f.pageBytes)
	if err != nil {
		return nil, err
	}
	fr.FileBacked = true
	f.cache[idx] = fr.ID
	if f.rmap != nil {
		f.rmap.AddCacheRef(fr.ID, f, idx)
	}
	return fr, nil
}

// FrameAt returns the cached frame for the page containing off, if any.
func (f *File) FrameAt(off int64) *phys.Frame {
	id, ok := f.cache[off/f.pageBytes]
	if !ok {
		return nil
	}
	fr, _ := f.mem.Lookup(id)
	return fr
}

// rebind moves the cache entry for page idx to a new frame (called by
// the reverse map when a migration replaces the backing frame).
func (f *File) rebind(idx int64, from, to *phys.Frame) {
	if f.cache[idx] == from.ID {
		f.cache[idx] = to.ID
		from.FileBacked = false
		to.FileBacked = true
	}
}

// MmapFile maps [offset, offset+length) of file into the address space
// (a MAP_SHARED file mapping): the PTEs reference the page-cache frames,
// so every process mapping the file sees the same bytes, and migration
// keeps cache and mappings coherent through the reverse map.
func (as *AddressSpace) MmapFile(p *sim.Proc, file *File, offset, length int64) (int64, error) {
	if as.Rmap == nil || as.Rmap != file.rmap {
		return 0, fmt.Errorf("vm: file mappings require the file and space to share an Rmap")
	}
	if file.pageBytes != as.PageBytes {
		return 0, fmt.Errorf("vm: file page size %d != space page size %d", file.pageBytes, as.PageBytes)
	}
	if offset < 0 || length <= 0 || offset%as.PageBytes != 0 ||
		length%as.PageBytes != 0 || offset+length > file.size {
		return 0, fmt.Errorf("vm: bad file mapping [%d,+%d) of %d", offset, length, file.size)
	}
	base := as.nextAddr
	pages := length / as.PageBytes
	cost := &as.Plat.Cost
	for i := int64(0); i < pages; i++ {
		fr, err := file.frameFor(offset/as.PageBytes+i, hw.NodeSlow)
		if err != nil {
			return 0, err
		}
		addr := base + i*as.PageBytes
		slot, _ := as.Table.Ensure(as.VPN(addr))
		slot.Store(pagetable.Make(fr.ID, pagetable.FlagPresent|pagetable.FlagWrite))
		fr.RefCount++
		as.rmapAdd(fr.ID, slot, addr)
	}
	charge(p, pages*(cost.PageAlloc/2+cost.PTEReplace)) // cache hit or fill
	as.vmas = append(as.vmas, &VMA{Start: base, Length: length, Node: hw.NodeSlow, Name: "file:" + file.name})
	as.nextAddr = base + length + as.PageBytes
	return base, nil
}
