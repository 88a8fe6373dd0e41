package tlb

import (
	"testing"
	"testing/quick"
)

func TestMissThenHit(t *testing.T) {
	tl := New(16, 4)
	if tl.Lookup(42) {
		t.Error("cold lookup hit")
	}
	if !tl.Lookup(42) {
		t.Error("warm lookup missed")
	}
	st := tl.Stats()
	if st.Hits != 1 || st.Misses != 1 {
		t.Errorf("stats = %+v", st)
	}
}

func TestInvalidateSingle(t *testing.T) {
	tl := New(16, 4)
	tl.Lookup(7)
	tl.Lookup(8)
	tl.Invalidate(7)
	if tl.Lookup(7) {
		t.Error("invalidated entry hit")
	}
	if !tl.Lookup(8) {
		t.Error("unrelated entry lost")
	}
}

func TestLRUWithinSet(t *testing.T) {
	// 4 sets x 2 ways; VPNs congruent mod 4 share a set.
	tl := New(8, 2)
	tl.Lookup(0) // set 0
	tl.Lookup(4) // set 0: full
	tl.Lookup(0) // refresh 0; LRU is now 4
	tl.Lookup(8) // set 0: evicts 4
	if !tl.Lookup(0) {
		t.Error("recently used entry evicted")
	}
	if tl.Lookup(4) {
		t.Error("LRU entry survived eviction")
	}
}

func TestWorkingSetFitsNoEvictions(t *testing.T) {
	tl := NewCortexA15()
	// 256 pages fit easily in 512 entries: after warm-up, all hits.
	for round := 0; round < 3; round++ {
		for v := uint64(0); v < 256; v++ {
			tl.Lookup(v)
		}
	}
	st := tl.Stats()
	if st.Misses != 256 {
		t.Errorf("misses = %d, want 256 (cold only)", st.Misses)
	}
	if st.Hits != 512 {
		t.Errorf("hits = %d, want 512", st.Hits)
	}
}

func TestBadGeometryPanics(t *testing.T) {
	for _, g := range [][2]int{{0, 4}, {16, 0}, {10, 4}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("New(%d,%d) did not panic", g[0], g[1])
				}
			}()
			New(g[0], g[1])
		}()
	}
}

// Property: a lookup immediately after a lookup of the same VPN always
// hits, regardless of history (no spurious invalidation).
func TestLookupIdempotent(t *testing.T) {
	prop := func(vpns []uint16) bool {
		tl := New(64, 4)
		for _, v := range vpns {
			tl.Lookup(uint64(v))
			if !tl.Lookup(uint64(v)) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}
