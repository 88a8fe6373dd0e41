package pagetable

import (
	"testing"
	"testing/quick"

	"memif/internal/phys"
)

func TestPTEPacking(t *testing.T) {
	p := Make(phys.FrameID(12345), FlagPresent|FlagWrite|FlagYoung)
	if p.Frame() != 12345 {
		t.Errorf("Frame = %d, want 12345", p.Frame())
	}
	if !p.Has(FlagPresent) || !p.Has(FlagWrite) || !p.Has(FlagYoung) {
		t.Errorf("flags lost: %v", p)
	}
	if p.Has(FlagDirty) || p.Has(FlagMigration) {
		t.Errorf("phantom flags: %v", p)
	}
	q := p.Without(FlagYoung)
	if q.Has(FlagYoung) || q.Frame() != 12345 {
		t.Errorf("Without broke PTE: %v", q)
	}
	r := q.With(FlagDirty)
	if !r.Has(FlagDirty) || r.Frame() != 12345 {
		t.Errorf("With broke PTE: %v", r)
	}
}

func TestPTEPackingRoundTrip(t *testing.T) {
	prop := func(frame uint32, flags uint8) bool {
		f := phys.FrameID(frame)
		fl := PTE(flags) & flagMask
		p := Make(f, fl)
		return p.Frame() == f && p.Flags() == fl
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Error(err)
	}
}

func TestSlotCAS(t *testing.T) {
	var s Slot
	old := Make(1, FlagPresent|FlagYoung)
	s.Store(old)
	final := old.Without(FlagYoung)
	if !s.CompareAndSwap(old, final) {
		t.Fatal("CAS on unchanged slot failed")
	}
	if s.Load() != final {
		t.Errorf("slot = %v, want %v", s.Load(), final)
	}
	// A second CAS with the stale value must fail: this is exactly how
	// memif detects a racing access (Section 5.2).
	if s.CompareAndSwap(old, final) {
		t.Error("CAS with stale old value succeeded")
	}
}

func TestEnsureAndLookup(t *testing.T) {
	tbl := New()
	if slot, _ := tbl.Lookup(42); slot != nil {
		t.Error("Lookup on empty table returned a slot")
	}
	slot, st := tbl.Ensure(42)
	if slot == nil || st.Verticals != 1 {
		t.Fatalf("Ensure: slot=%v stats=%+v", slot, st)
	}
	slot.Store(Make(7, FlagPresent))
	got, _ := tbl.Lookup(42)
	if got != slot {
		t.Error("Lookup returned a different slot than Ensure")
	}
	if got.Load().Frame() != 7 {
		t.Errorf("frame = %d, want 7", got.Load().Frame())
	}
}

func TestDistinctVPNsDistinctSlots(t *testing.T) {
	tbl := New()
	a, _ := tbl.Ensure(100)
	b, _ := tbl.Ensure(101)
	c, _ := tbl.Ensure(100 + levelSize) // next leaf
	if a == b || a == c || b == c {
		t.Error("distinct VPNs share slots")
	}
	if tbl.Leaves() != 2 {
		t.Errorf("Leaves = %d, want 2", tbl.Leaves())
	}
}

func TestMaxVPNBoundary(t *testing.T) {
	tbl := New()
	slot, _ := tbl.Ensure(MaxVPN)
	if slot == nil {
		t.Fatal("Ensure(MaxVPN) failed")
	}
	slot.Store(Make(3, FlagPresent))
	got, _ := tbl.Lookup(MaxVPN)
	if got.Load().Frame() != 3 {
		t.Error("MaxVPN slot lost its PTE")
	}
	defer func() {
		if recover() == nil {
			t.Error("Ensure(MaxVPN+1) did not panic")
		}
	}()
	tbl.Ensure(MaxVPN + 1)
}

func TestGangLookupWithinOneLeaf(t *testing.T) {
	tbl := New()
	const base, n = 1024, 16
	for i := uint64(0); i < n; i++ {
		s, _ := tbl.Ensure(base + i)
		s.Store(Make(phys.FrameID(i+1), FlagPresent))
	}
	slots, st := tbl.GangLookup(nil, base, n)
	if len(slots) != n {
		t.Fatalf("len = %d, want %d", len(slots), n)
	}
	for i, s := range slots {
		if s == nil || s.Load().Frame() != phys.FrameID(i+1) {
			t.Fatalf("slot %d wrong: %v", i, s)
		}
	}
	if st.Verticals != 1 || st.Horizontals != n-1 {
		t.Errorf("stats = %+v, want 1 vertical, %d horizontal", st, n-1)
	}
}

func TestGangLookupCrossesLeafBoundary(t *testing.T) {
	tbl := New()
	// Start 4 pages before a 512-entry leaf boundary, span 8 pages.
	base := uint64(levelSize - 4)
	for i := uint64(0); i < 8; i++ {
		s, _ := tbl.Ensure(base + i)
		s.Store(Make(phys.FrameID(i+1), FlagPresent))
	}
	slots, st := tbl.GangLookup(nil, base, 8)
	for i, s := range slots {
		if s == nil || s.Load().Frame() != phys.FrameID(i+1) {
			t.Fatalf("slot %d wrong", i)
		}
	}
	if st.Verticals != 2 || st.Horizontals != 6 {
		t.Errorf("stats = %+v, want 2 verticals, 6 horizontals", st)
	}
}

func TestGangLookupHole(t *testing.T) {
	tbl := New()
	s, _ := tbl.Ensure(10)
	s.Store(Make(1, FlagPresent))
	// VPN range 10..12 where only 10 exists at leaf level: same leaf, so
	// 11 and 12 get live slots holding zero PTEs (non-present).
	slots, _ := tbl.GangLookup(nil, 10, 3)
	if slots[0] == nil || slots[1] == nil {
		t.Fatal("slots in an existing leaf must be non-nil")
	}
	if slots[1].Load().Has(FlagPresent) {
		t.Error("unmapped slot reads as present")
	}
	// A range in a fully absent leaf yields nil slots.
	slots, _ = tbl.GangLookup(slots[:0], 1<<20, 2)
	if slots[0] != nil || slots[1] != nil {
		t.Error("absent leaf produced slots")
	}
}

// GangLookup appends to the caller's slice: what dst already holds stays
// in front, and a dst with room is filled in place, with no allocation.
func TestGangLookupAppendsToDst(t *testing.T) {
	tbl := New()
	const base, n = 100, 8
	for i := uint64(0); i < n; i++ {
		tbl.Ensure(base + i)
	}
	head, _ := tbl.Lookup(7)
	buf := make([]*Slot, 1, 1+n)
	buf[0] = head
	out, st := tbl.GangLookup(buf, base, n)
	if len(out) != 1+n || out[0] != head || &out[0] != &buf[0] {
		t.Fatalf("len %d, head kept %v, same array %v", len(out), out[0] == head, &out[0] == &buf[0])
	}
	for i := 0; i < n; i++ {
		if single, _ := tbl.Lookup(base + uint64(i)); out[1+i] != single {
			t.Fatalf("slot %d differs from Lookup", i)
		}
	}
	if st.Verticals != 1 || st.Horizontals != n-1 {
		t.Errorf("stats = %+v", st)
	}
	if a := testing.AllocsPerRun(100, func() { out, _ = tbl.GangLookup(out[:0], base, n) }); a != 0 {
		t.Errorf("a reused slice: %v allocations per lookup, want 0", a)
	}
}

// Property: gang lookup returns exactly the same slots as per-page
// Lookup, for arbitrary small ranges.
func TestGangLookupMatchesPerPage(t *testing.T) {
	prop := func(start uint16, n uint8) bool {
		tbl := New()
		base := uint64(start)
		count := int(n%64) + 1
		for i := 0; i < count; i++ {
			s, _ := tbl.Ensure(base + uint64(i))
			s.Store(Make(phys.FrameID(i+1), FlagPresent))
		}
		gang, _ := tbl.GangLookup(nil, base, count)
		for i := 0; i < count; i++ {
			single, _ := tbl.Lookup(base + uint64(i))
			if gang[i] != single {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// Property: gang lookup over an existing region always does fewer
// page-table steps than per-page vertical walks would (the Section 5.1
// claim), and the vertical count equals the number of leaf tables touched.
func TestGangLookupCheaperThanVertical(t *testing.T) {
	prop := func(start uint16, n uint8) bool {
		tbl := New()
		base := uint64(start)
		count := int(n%200) + 2
		for i := 0; i < count; i++ {
			tbl.Ensure(base + uint64(i))
		}
		_, st := tbl.GangLookup(nil, base, count)
		leaves := int((base+uint64(count-1))>>levelBits-base>>levelBits) + 1
		return st.Verticals == leaves && st.Verticals+st.Horizontals == count
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}
