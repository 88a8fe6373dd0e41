// Package tlb models a set-associative translation lookaside buffer with
// LRU replacement.
//
// The cost model charges the *direct* price of a TLB flush on the
// migration paths; Section 5.2 of the paper points out flushes also have
// an indirect cost — the application's subsequent misses and refill
// walks. Attaching a TLB to an address space (vm.AddressSpace.TLB) makes
// the access paths model exactly that: a hit costs nothing extra, a miss
// charges a hardware table walk, and every PTE replacement invalidates
// the entry. The race-detection release (a bare CAS on a PTE that never
// entered the TLB) then shows its quiet advantage over race prevention's
// second flush.
//
// The default geometry mirrors the Cortex-A15's 512-entry 4-way unified
// L2 TLB.
package tlb

// entry is one TLB slot.
type entry struct {
	vpn   uint64
	valid bool
	use   uint64 // LRU stamp
}

// Stats counts TLB activity.
type Stats struct {
	Hits, Misses  int64
	Invalidations int64
}

// TLB is a set-associative translation cache. Not safe for concurrent
// use; each simulated hardware context owns one.
type TLB struct {
	sets  [][]entry
	ways  int
	clock uint64
	stats Stats
}

// New builds a TLB with the given total entries and associativity.
func New(entries, ways int) *TLB {
	if entries <= 0 || ways <= 0 || entries%ways != 0 {
		panic("tlb: entries must be a positive multiple of ways")
	}
	nsets := entries / ways
	t := &TLB{sets: make([][]entry, nsets), ways: ways}
	for i := range t.sets {
		t.sets[i] = make([]entry, ways)
	}
	return t
}

// NewCortexA15 returns the KeyStone II CPU's L2 TLB geometry.
func NewCortexA15() *TLB { return New(512, 4) }

// set returns the set index for a VPN.
func (t *TLB) set(vpn uint64) int { return int(vpn % uint64(len(t.sets))) }

// Lookup consults the TLB for vpn and inserts it on a miss (the hardware
// walker refills). It reports whether the translation hit.
func (t *TLB) Lookup(vpn uint64) bool {
	t.clock++
	set := t.sets[t.set(vpn)]
	victim := 0
	for i := range set {
		if set[i].valid && set[i].vpn == vpn {
			set[i].use = t.clock
			t.stats.Hits++
			return true
		}
		if !set[i].valid {
			victim = i
		} else if set[victim].valid && set[i].use < set[victim].use {
			victim = i
		}
	}
	t.stats.Misses++
	set[victim] = entry{vpn: vpn, valid: true, use: t.clock}
	return false
}

// Invalidate drops the translation for vpn, if cached (a per-page TLB
// flush).
func (t *TLB) Invalidate(vpn uint64) {
	t.stats.Invalidations++
	set := t.sets[t.set(vpn)]
	for i := range set {
		if set[i].valid && set[i].vpn == vpn {
			set[i].valid = false
			return
		}
	}
}

// Stats returns a snapshot of the counters.
func (t *TLB) Stats() Stats { return t.stats }
