// Package pagetable implements a 4-level radix page table with atomically
// updatable PTEs, plus the gang page lookup of Section 5.1: one vertical
// descent from the root for the first page of a region, then horizontal
// walks across adjacent PTEs for the rest.
//
// PTEs are real 64-bit words updated with compare-and-swap, so the
// paper's lightweight race detection (Section 5.2) — install a semi-final
// PTE with the young bit set, later CAS in the final PTE and fail if any
// reference cleared the bit — runs on the actual mechanism rather than a
// stand-in.
package pagetable

import (
	"fmt"
	"sync/atomic"

	"memif/internal/phys"
)

// PTE is a packed page table entry: flag bits in the low byte, the frame
// ID above them.
type PTE uint64

// PTE flag bits.
const (
	FlagPresent   PTE = 1 << 0 // entry maps a frame
	FlagWrite     PTE = 1 << 1 // writable
	FlagYoung     PTE = 1 << 2 // semi-final marker (Section 5.2)
	FlagDirty     PTE = 1 << 3 // written since mapping
	FlagMigration PTE = 1 << 4 // baseline migration PTE: accessors block
	FlagRecover   PTE = 1 << 5 // proceed-and-recover trap PTE (Section 5.2 alt.)

	flagMask   PTE = (1 << 8) - 1
	frameShift     = 8
)

// Make packs a frame ID and flags into a PTE.
func Make(f phys.FrameID, flags PTE) PTE {
	return PTE(f)<<frameShift | (flags & flagMask)
}

// Frame extracts the frame ID.
func (p PTE) Frame() phys.FrameID { return phys.FrameID(p >> frameShift) }

// Has reports whether all given flag bits are set.
func (p PTE) Has(f PTE) bool { return p&f == f }

// With returns p with the given flags set.
func (p PTE) With(f PTE) PTE { return p | (f & flagMask) }

// Without returns p with the given flags cleared.
func (p PTE) Without(f PTE) PTE { return p &^ (f & flagMask) }

func (p PTE) String() string {
	s := fmt.Sprintf("pte(frame%d", p.Frame())
	for _, fl := range []struct {
		bit  PTE
		name string
	}{
		{FlagPresent, "P"}, {FlagWrite, "W"}, {FlagYoung, "Y"},
		{FlagDirty, "D"}, {FlagMigration, "M"}, {FlagRecover, "R"},
	} {
		if p.Has(fl.bit) {
			s += "," + fl.name
		}
	}
	return s + ")"
}

// Slot is one PTE slot in a leaf table. All updates go through atomic
// operations, mirroring how the kernel and hardware race on real PTEs.
type Slot struct {
	v atomic.Uint64
}

// Load returns the current PTE.
func (s *Slot) Load() PTE { return PTE(s.v.Load()) }

// Store writes the PTE unconditionally.
func (s *Slot) Store(p PTE) { s.v.Store(uint64(p)) }

// CompareAndSwap installs want if the slot still holds old. This is the
// single instruction the memif Release step rides on.
func (s *Slot) CompareAndSwap(old, want PTE) bool {
	return s.v.CompareAndSwap(uint64(old), uint64(want))
}

// Radix geometry: 9 bits per level, 4 levels, covering 36 bits of virtual
// page numbers (48-bit addresses at 4 KB pages).
const (
	levelBits  = 9
	levelSize  = 1 << levelBits
	levelMask  = levelSize - 1
	numLevels  = 4
	maxVPNBits = levelBits * numLevels
)

// MaxVPN is the highest representable virtual page number.
const MaxVPN = (uint64(1) << maxVPNBits) - 1

type inner struct {
	children [levelSize]*node
}

type node struct {
	inner *inner // non-nil on levels 0..2
	leaf  []Slot // non-nil on level 3
}

// WalkStats counts the page-table work done by a lookup, so callers can
// charge the corresponding virtual-time costs (vertical descents are ~10x
// the price of a horizontal step on the A15).
type WalkStats struct {
	Verticals   int // full root-to-leaf descents
	Horizontals int // adjacent-PTE steps within a leaf
}

// Add accumulates other into s.
func (s *WalkStats) Add(other WalkStats) {
	s.Verticals += other.Verticals
	s.Horizontals += other.Horizontals
}

// Table is a 4-level page table indexed by virtual page number.
type Table struct {
	root   *inner
	leaves int // allocated leaf tables
}

// New returns an empty table.
func New() *Table { return &Table{root: &inner{}} }

func index(vpn uint64, level int) int {
	shift := uint(levelBits * (numLevels - 1 - level))
	return int(vpn>>shift) & levelMask
}

// leafFor descends to the leaf table covering vpn, optionally creating
// intermediate levels.
func (t *Table) leafFor(vpn uint64, create bool) []Slot {
	if vpn > MaxVPN {
		panic(fmt.Sprintf("pagetable: vpn %#x out of range", vpn))
	}
	cur := t.root
	for level := 0; level < numLevels-1; level++ {
		idx := index(vpn, level)
		child := cur.children[idx]
		if child == nil {
			if !create {
				return nil
			}
			child = &node{}
			if level == numLevels-2 {
				child.leaf = make([]Slot, levelSize)
				t.leaves++
			} else {
				child.inner = &inner{}
			}
			cur.children[idx] = child
		}
		if child.leaf != nil {
			return child.leaf
		}
		cur = child.inner
	}
	return nil
}

// Ensure returns the slot for vpn, creating table levels as needed, and
// counts one vertical descent.
func (t *Table) Ensure(vpn uint64) (*Slot, WalkStats) {
	leaf := t.leafFor(vpn, true)
	return &leaf[vpn&levelMask], WalkStats{Verticals: 1}
}

// Lookup returns the slot for vpn if the covering leaf exists, counting
// one vertical descent. The slot may still hold a non-present PTE.
func (t *Table) Lookup(vpn uint64) (*Slot, WalkStats) {
	leaf := t.leafFor(vpn, false)
	if leaf == nil {
		return nil, WalkStats{Verticals: 1}
	}
	return &leaf[vpn&levelMask], WalkStats{Verticals: 1}
}

// GangLookup resolves n consecutive VPNs starting at vpn with the
// Section 5.1 optimization: descend vertically once, then walk adjacent
// PTEs horizontally, re-descending only when the walk crosses a leaf-table
// boundary. Missing leaves yield nil slots (holes) and still cost the
// descent that discovered them. The n slots are appended to dst, which
// the caller owns and may reuse from one lookup to the next.
func (t *Table) GangLookup(dst []*Slot, vpn uint64, n int) ([]*Slot, WalkStats) {
	var st WalkStats
	var leaf []Slot
	for i := 0; i < n; i++ {
		v := vpn + uint64(i)
		if leaf == nil || v&levelMask == 0 && i > 0 || i == 0 {
			// First page, or crossed into a new leaf table.
			leaf = t.leafFor(v, false)
			st.Verticals++
		} else {
			st.Horizontals++
		}
		var s *Slot
		if leaf != nil {
			s = &leaf[v&levelMask]
		}
		dst = append(dst, s)
	}
	return dst, st
}
