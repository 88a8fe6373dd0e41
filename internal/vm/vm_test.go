package vm

import (
	"bytes"
	"errors"
	"testing"

	"memif/internal/hw"
	"memif/internal/pagetable"
	"memif/internal/phys"
	"memif/internal/sim"
)

func setup(pageBytes int64) (*sim.Engine, *AddressSpace) {
	eng := sim.NewEngine()
	plat := hw.KeyStoneII()
	mem := phys.New(plat)
	return eng, New(eng, plat, mem, pageBytes)
}

func TestMmapPopulatesAndMunmapFrees(t *testing.T) {
	eng, as := setup(4096)
	eng.Spawn("p", func(p *sim.Proc) {
		base, err := as.Mmap(p, 16*4096, hw.NodeSlow, "buf")
		if err != nil {
			t.Fatalf("Mmap: %v", err)
		}
		if as.Mem.Used(hw.NodeSlow) != 16*4096 {
			t.Errorf("used = %d", as.Mem.Used(hw.NodeSlow))
		}
		for i := int64(0); i < 16; i++ {
			if as.FrameAt(base+i*4096) == nil {
				t.Fatalf("page %d not populated", i)
			}
		}
		if err := as.Munmap(p, base); err != nil {
			t.Fatalf("Munmap: %v", err)
		}
		if as.Mem.Used(hw.NodeSlow) != 0 {
			t.Errorf("used after munmap = %d", as.Mem.Used(hw.NodeSlow))
		}
		if as.FrameAt(base) != nil {
			t.Error("FrameAt alive after munmap")
		}
	})
	eng.Run()
}

func TestMmapChargesPopulationCost(t *testing.T) {
	eng, as := setup(4096)
	cost := &as.Plat.Cost
	eng.Spawn("p", func(p *sim.Proc) {
		start := p.Now()
		if _, err := as.Mmap(p, 8*4096, hw.NodeSlow, "b"); err != nil {
			t.Fatal(err)
		}
		want := sim.Time(8 * (cost.PageAlloc + cost.PTEReplace))
		if got := p.Now() - start; got != want {
			t.Errorf("mmap cost = %v, want %v", got, want)
		}
	})
	eng.Run()
}

func TestMmapRoundsUpAndRejectsBadLength(t *testing.T) {
	_, as := setup(4096)
	base, err := as.Mmap(nil, 5000, hw.NodeSlow, "b")
	if err != nil {
		t.Fatal(err)
	}
	if v := as.FindVMA(base); v.Length != 8192 {
		t.Errorf("length = %d, want 8192", v.Length)
	}
	if _, err := as.Mmap(nil, 0, hw.NodeSlow, "z"); err == nil {
		t.Error("zero-length mmap succeeded")
	}
	if _, err := as.Mmap(nil, -4096, hw.NodeSlow, "n"); err == nil {
		t.Error("negative mmap succeeded")
	}
}

func TestMmapFailureRollsBack(t *testing.T) {
	_, as := setup(4096)
	// Fast node: 6 MB. Ask for 8 MB — must fail and free everything.
	if _, err := as.Mmap(nil, 8<<20, hw.NodeFast, "big"); !errors.Is(err, phys.ErrNoMemory) {
		t.Fatalf("err = %v, want ErrNoMemory", err)
	}
	if as.Mem.Used(hw.NodeFast) != 0 {
		t.Errorf("leaked %d bytes on rollback", as.Mem.Used(hw.NodeFast))
	}
}

func TestReadWriteRoundTripAcrossPages(t *testing.T) {
	eng, as := setup(4096)
	eng.Spawn("p", func(p *sim.Proc) {
		base, _ := as.Mmap(p, 4*4096, hw.NodeSlow, "b")
		data := make([]byte, 3*4096+100) // unaligned, spans pages
		for i := range data {
			data[i] = byte(i * 13)
		}
		if err := as.Write(p, base+50, data); err != nil {
			t.Fatalf("Write: %v", err)
		}
		got := make([]byte, len(data))
		if err := as.Read(p, base+50, got); err != nil {
			t.Fatalf("Read: %v", err)
		}
		if !bytes.Equal(got, data) {
			t.Error("round trip corrupted data")
		}
	})
	eng.Run()
}

func TestAccessUnmappedFails(t *testing.T) {
	eng, as := setup(4096)
	eng.Spawn("p", func(p *sim.Proc) {
		if err := as.Touch(p, 0xdead000, false); !errors.Is(err, ErrBadAddress) {
			t.Errorf("Touch unmapped: %v", err)
		}
		buf := make([]byte, 10)
		if err := as.Read(p, 0xdead000, buf); !errors.Is(err, ErrBadAddress) {
			t.Errorf("Read unmapped: %v", err)
		}
	})
	eng.Run()
}

// Two procs mmap'ing concurrently must get disjoint ranges: Mmap
// charges allocation cost (which yields) between reading nextAddr and
// registering the VMA, so the reservation has to happen before the
// first yield or both callers read the same base and the address space
// hands out overlapping VMAs (seen as phantom badreq fills when a
// request's range resolved to the wrong, smaller VMA).
func TestConcurrentMmapNoOverlap(t *testing.T) {
	eng, as := setup(4096)
	type region struct{ base, length int64 }
	var got []region
	for i := 0; i < 4; i++ {
		i := i
		eng.Spawn("mapper", func(p *sim.Proc) {
			length := int64(4+i) * 4096
			var mine []int64
			for j := 0; j < 8; j++ {
				base, err := as.Mmap(p, length, hw.NodeSlow, "r")
				if err != nil {
					t.Errorf("Mmap: %v", err)
					return
				}
				got = append(got, region{base, length})
				mine = append(mine, base)
				p.SleepNS(10)
			}
			// Munmap yields too (it charges the teardown): four procs
			// unmapping at once must each remove their own VMA.
			for _, base := range mine {
				if err := as.Munmap(p, base); err != nil {
					t.Errorf("Munmap(%#x): %v", base, err)
				}
			}
		})
	}
	eng.Run()
	if used := as.Mem.Used(hw.NodeSlow); used != 0 {
		t.Errorf("%d bytes still allocated after every region was unmapped", used)
	}
	for i, a := range got {
		for _, b := range got[i+1:] {
			if a.base < b.base+b.length && b.base < a.base+a.length {
				t.Fatalf("overlapping mmaps: [%#x,+%#x) and [%#x,+%#x)", a.base, a.length, b.base, b.length)
			}
		}
	}
}

func TestCheckRegion(t *testing.T) {
	_, as := setup(4096)
	base, _ := as.Mmap(nil, 8*4096, hw.NodeSlow, "b")
	if err := as.CheckRegion(base, 8*4096); err != nil {
		t.Errorf("full region: %v", err)
	}
	if err := as.CheckRegion(base+4096, 4096); err != nil {
		t.Errorf("inner page: %v", err)
	}
	if err := as.CheckRegion(base+100, 4096); err == nil {
		t.Error("unaligned start accepted")
	}
	if err := as.CheckRegion(base, 100); err == nil {
		t.Error("unaligned length accepted")
	}
	if err := as.CheckRegion(base, 9*4096); err == nil {
		t.Error("overrun accepted")
	}
	if err := as.CheckRegion(0x1000, 4096); err == nil {
		t.Error("unmapped region accepted")
	}
}

func TestTouchClearsYoungAndSetsDirty(t *testing.T) {
	eng, as := setup(4096)
	eng.Spawn("p", func(p *sim.Proc) {
		base, _ := as.Mmap(p, 4096, hw.NodeSlow, "b")
		slot, _ := as.Table.Lookup(as.VPN(base))
		// Install a semi-final PTE the way memif's Remap does.
		semi := slot.Load().With(pagetable.FlagYoung)
		slot.Store(semi)

		if err := as.Touch(p, base, true); err != nil {
			t.Fatal(err)
		}
		pte := slot.Load()
		if pte.Has(pagetable.FlagYoung) {
			t.Error("reference did not clear young bit")
		}
		if !pte.Has(pagetable.FlagDirty) {
			t.Error("write did not set dirty bit")
		}
		if as.RaceTouches != 1 {
			t.Errorf("RaceTouches = %d, want 1", as.RaceTouches)
		}
		// The driver's release CAS must now fail — the race is detected.
		if slot.CompareAndSwap(semi.Without(pagetable.FlagYoung), semi) {
			// (constructing the final from semi) — i.e. CAS(semi, final)
			t.Error("unexpected CAS success")
		}
	})
	eng.Run()
}

func TestMigrationPTEBlocksAccessor(t *testing.T) {
	eng, as := setup(4096)
	var touchedAt sim.Time
	eng.Spawn("app", func(p *sim.Proc) {
		base, _ := as.Mmap(p, 4096, hw.NodeSlow, "b")
		slot, _ := as.Table.Lookup(as.VPN(base))
		orig := slot.Load()
		slot.Store(orig.With(pagetable.FlagMigration))
		start := p.Now()

		eng.Spawn("migrator", func(m *sim.Proc) {
			m.SleepUntil(start + 5000)
			slot.Store(orig) // migration done
			as.ReleaseMigrationGate(slot)
		})
		if err := as.Touch(p, base, false); err != nil {
			t.Fatal(err)
		}
		touchedAt = p.Now()
		if touchedAt < start+5000 {
			t.Errorf("accessor not blocked: touched at %v", touchedAt)
		}
	})
	eng.Run()
	if eng.Parked() != 0 {
		t.Errorf("leaked parked procs: %d", eng.Parked())
	}
}

func TestRecoverPTETrapsToHandler(t *testing.T) {
	eng, as := setup(4096)
	handled := 0
	eng.Spawn("p", func(p *sim.Proc) {
		base, _ := as.Mmap(p, 4096, hw.NodeSlow, "b")
		slot, _ := as.Table.Lookup(as.VPN(base))
		orig := slot.Load()
		slot.Store(orig.With(pagetable.FlagRecover))
		as.SetFaultHandler(func(fp *sim.Proc, addr int64, s *pagetable.Slot, write bool) bool {
			handled++
			s.Store(orig) // restore the old mapping
			return true
		})
		// Reads do not trap.
		if err := as.Touch(p, base, false); err != nil {
			t.Fatalf("read touch: %v", err)
		}
		if handled != 0 {
			t.Error("read access trapped")
		}
		slot.Store(orig.With(pagetable.FlagRecover))
		if err := as.Write(p, base, []byte{1, 2, 3}); err != nil {
			t.Fatalf("write: %v", err)
		}
		if handled != 1 {
			t.Errorf("handled = %d, want 1", handled)
		}
	})
	eng.Run()
}

func TestRecoverWithoutHandlerFails(t *testing.T) {
	eng, as := setup(4096)
	eng.Spawn("p", func(p *sim.Proc) {
		base, _ := as.Mmap(p, 4096, hw.NodeSlow, "b")
		slot, _ := as.Table.Lookup(as.VPN(base))
		slot.Store(slot.Load().With(pagetable.FlagRecover))
		if err := as.Touch(p, base, true); err == nil {
			t.Error("write on recover PTE without handler succeeded")
		}
	})
	eng.Run()
}

func TestLargePageAddressSpace(t *testing.T) {
	eng, as := setup(hw.Page2M)
	eng.Spawn("p", func(p *sim.Proc) {
		base, err := as.Mmap(p, 2*hw.Page2M, hw.NodeSlow, "huge")
		if err != nil {
			t.Fatal(err)
		}
		f := as.FrameAt(base)
		if f == nil || f.Size != hw.Page2M {
			t.Errorf("frame = %v, want 2MB frame", f)
		}
		if as.VPN(base+hw.Page2M) != as.VPN(base)+1 {
			t.Error("VPN arithmetic wrong for 2MB pages")
		}
	})
	eng.Run()
}

func TestBadPageSizePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("non-power-of-two page size did not panic")
		}
	}()
	setup(3000)
}

func TestMunmapUnknownBase(t *testing.T) {
	_, as := setup(4096)
	if err := as.Munmap(nil, 0x1234000); !errors.Is(err, ErrNoVMA) {
		t.Errorf("err = %v, want ErrNoVMA", err)
	}
}
