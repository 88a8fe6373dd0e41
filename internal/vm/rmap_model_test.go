package vm

import (
	"maps"
	"math/rand"
	"slices"
	"testing"

	"memif/internal/hw"
	"memif/internal/pagetable"
	"memif/internal/phys"
	"memif/internal/sim"
)

// TestRmapMatchesModel drives the reverse map through seeded random Add,
// Remove and Move steps over a few frames — private and shared ones, moves
// onto frames that already have mappings, page-cache references — and
// after every step compares it with a plain map from frame to mappings
// that does what the map-only reverse map did, order included. Where a
// frame's mappings are kept is invisible from outside, and a frame sits in
// the side map exactly while it has more than one.
func TestRmapMatchesModel(t *testing.T) {
	const nFrames, nSlots, steps = 10, 24, 300
	for seed := int64(1); seed <= 200; seed++ {
		rng := rand.New(rand.NewSource(seed))
		r := NewRmap()
		file := NewFile(nil, r, "f", nFrames*4096, 4096)
		frames := make([]*phys.Frame, nFrames)
		for i := range frames {
			// Sparse IDs: the inline slice grows past holes.
			frames[i] = &phys.Frame{ID: phys.FrameID(3*i + 1)}
		}
		slots := make([]pagetable.Slot, nSlots)
		model := map[phys.FrameID][]Mapping{}
		mapsFrame := map[*pagetable.Slot]phys.FrameID{} // live slot -> its frame
		cacheRefs := map[phys.FrameID]int64{}           // frame -> file page
		cache := map[int64]phys.FrameID{}               // file page -> frame

		for step := 0; step < steps; step++ {
			f := frames[rng.Intn(nFrames)]
			switch op := rng.Intn(10); {
			case op < 4: // map a free slot
				s := &slots[rng.Intn(nSlots)]
				if _, live := mapsFrame[s]; live {
					continue
				}
				m := Mapping{Slot: s, Addr: int64(step)}
				r.Add(f.ID, m)
				model[f.ID] = append(model[f.ID], m)
				mapsFrame[s] = f.ID
			case op < 6: // unmap: a live mapping, or a slot the frame lacks
				s := &slots[rng.Intn(nSlots)]
				if id, live := mapsFrame[s]; live && rng.Intn(4) > 0 {
					f = frameByID(frames, id)
				}
				r.Remove(f.ID, s)
				ms := model[f.ID]
				for i, m := range ms {
					if m.Slot == s {
						ms[i] = ms[len(ms)-1]
						ms = ms[:len(ms)-1]
						delete(mapsFrame, s)
						break
					}
				}
				if len(ms) == 0 {
					delete(model, f.ID)
				} else {
					model[f.ID] = ms
				}
			case op < 9: // migrate f onto another frame, mapped or not
				to := frames[rng.Intn(nFrames)]
				if to == f {
					continue
				}
				r.Move(f, to)
				if ms := model[f.ID]; len(ms) > 0 {
					delete(model, f.ID)
					model[to.ID] = append(slices.Clone(model[to.ID]), ms...)
					for _, m := range ms {
						mapsFrame[m.Slot] = to.ID
					}
				}
				if idx, ok := cacheRefs[f.ID]; ok {
					delete(cacheRefs, f.ID)
					cacheRefs[to.ID] = idx
					if cache[idx] == f.ID {
						cache[idx] = to.ID
					}
				}
			default: // cache f as a file page
				if _, ok := cacheRefs[f.ID]; ok {
					continue
				}
				idx := int64(rng.Intn(nFrames))
				file.cache[idx], cache[idx] = f.ID, f.ID
				r.AddCacheRef(f.ID, file, idx)
				cacheRefs[f.ID] = idx
			}

			for _, fr := range frames {
				got, want := r.Lookup(fr.ID), model[fr.ID]
				if !slices.Equal(got, want) {
					t.Fatalf("seed %d step %d: Lookup(%d) = %v, model %v", seed, step, fr.ID, got, want)
				}
				if _, side := r.many[fr.ID]; side != (len(want) > 1) {
					t.Fatalf("seed %d step %d: frame %d with %d mappings in the side map: %v", seed, step, fr.ID, len(want), side)
				}
			}
			if len(r.Lookup(phys.FrameID(3*nFrames+7))) != 0 {
				t.Fatalf("seed %d step %d: a frame past every mapped one has mappings", seed, step)
			}
			gotRefs := map[phys.FrameID]int64{}
			for id, cr := range r.cacheRefs {
				gotRefs[id] = cr.idx
			}
			if !maps.Equal(gotRefs, cacheRefs) || !maps.Equal(file.cache, cache) {
				t.Fatalf("seed %d step %d: cache refs %v file %v, model %v file %v", seed, step, gotRefs, file.cache, cacheRefs, cache)
			}
		}
	}
}

func frameByID(frames []*phys.Frame, id phys.FrameID) *phys.Frame {
	for _, f := range frames {
		if f.ID == id {
			return f
		}
	}
	panic("no frame with that ID")
}

// Migration claims are [start, end) page ranges, one per request: an
// overlapping claim is refused and claims nothing, an adjacent one is
// accepted, the access-bit scanner skips every claimed page, and a release
// frees exactly the range it names.
func TestMigClaimRanges(t *testing.T) {
	eng, as := setup(4096)
	eng.Spawn("p", func(p *sim.Proc) {
		const pages = 16
		base, err := as.Mmap(p, pages*4096, hw.NodeSlow, "buf")
		if err != nil {
			t.Fatal(err)
		}
		v := as.VPN(base)
		if !as.MigClaim(v+4, 4) {
			t.Fatal("claim [4,8) refused on an unclaimed region")
		}
		for _, c := range []struct {
			at uint64
			n  int
			ok bool
		}{
			{0, 5, false},  // overlaps the claim's first page
			{7, 3, false},  // overlaps its last page
			{5, 1, false},  // inside it
			{0, 16, false}, // covers it
			{0, 4, true},   // adjacent below
			{8, 2, true},   // adjacent above
			{9, 1, false},  // inside the claim just taken
		} {
			if got := as.MigClaim(v+c.at, c.n); got != c.ok {
				t.Errorf("MigClaim(+%d, %d) = %v, want %v", c.at, c.n, got, c.ok)
			}
		}
		// [0,4), [4,8) and [8,10) are claimed: the refused claims took
		// nothing, so the scanner samples exactly the other six pages.
		if _, _, sampled := as.ScanAccessBits(p, v, pages); sampled != 6 {
			t.Errorf("sampled %d pages with 10 claimed, want 6", sampled)
		}
		as.MigRelease(v+4, 4)
		if _, _, sampled := as.ScanAccessBits(p, v, pages); sampled != 10 {
			t.Errorf("sampled %d pages after releasing [4,8), want 10", sampled)
		}
		if as.MigClaim(v+3, 2) {
			t.Error("[3,5) accepted with [0,4) still claimed")
		}
		if !as.MigClaim(v+4, 4) {
			t.Error("[4,8) refused after its release")
		}
		as.MigRelease(v, 4)
		as.MigRelease(v+4, 4)
		as.MigRelease(v+8, 2)
		if !as.MigClaim(v, pages) {
			t.Error("the whole region refused after every claim was released")
		}
		// Only the exact range claimed can be released: part of it, or
		// pages inside it, were never claimed as one.
		for _, c := range []struct {
			at uint64
			n  int
		}{{0, 4}, {1, 2}} {
			func() {
				defer func() {
					if recover() == nil {
						t.Errorf("MigRelease(+%d, %d) of a range never claimed did not panic", c.at, c.n)
					}
				}()
				as.MigRelease(v+c.at, c.n)
			}()
		}
		as.MigRelease(v, pages)
	})
	eng.Run()
}
