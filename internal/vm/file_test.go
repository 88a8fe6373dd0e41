package vm

import (
	"bytes"
	"testing"

	"memif/internal/sim"
)

func TestFileMappingSharesCache(t *testing.T) {
	eng, a, b := setupShared()
	f := NewFile(a.Mem, a.Rmap, "data.bin", 8*4096, 4096)
	eng.Spawn("p", func(p *sim.Proc) {
		ma, err := a.MmapFile(p, f, 0, 8*4096)
		if err != nil {
			t.Fatal(err)
		}
		a.Write(p, ma, bytes.Repeat([]byte{0x5C}, 4096))

		mb, err := b.MmapFile(p, f, 0, 4*4096)
		if err != nil {
			t.Fatal(err)
		}
		// Same cache frames: b reads a's write.
		var buf [1]byte
		b.Read(p, mb, buf[:])
		if buf[0] != 0x5C {
			t.Errorf("file mapping read %#x, want 0x5C", buf[0])
		}
		if a.FrameAt(ma) != b.FrameAt(mb) {
			t.Error("mappings of the same file page use different frames")
		}
		if a.FrameAt(ma) != f.FrameAt(0) {
			t.Error("mapping bypasses the page cache")
		}
		if f.CachedPages() != 8 {
			t.Errorf("cached pages = %d, want 8", f.CachedPages())
		}
		if got := a.FrameAt(ma).RefCount; got != 2 {
			t.Errorf("shared page refcount = %d, want 2", got)
		}
	})
	eng.Run()
}

func TestFileCacheSurvivesUnmap(t *testing.T) {
	eng, a, _ := setupShared()
	f := NewFile(a.Mem, a.Rmap, "d", 2*4096, 4096)
	eng.Spawn("p", func(p *sim.Proc) {
		ma, _ := a.MmapFile(p, f, 0, 2*4096)
		a.Write(p, ma, []byte{9})
		if err := a.Munmap(p, ma); err != nil {
			t.Fatal(err)
		}
		// Pages are unmapped but stay cached with their data.
		if f.CachedPages() != 2 {
			t.Errorf("cache dropped on unmap: %d pages", f.CachedPages())
		}
		mb, _ := a.MmapFile(p, f, 0, 2*4096)
		var buf [1]byte
		a.Read(p, mb, buf[:])
		if buf[0] != 9 {
			t.Error("cached data lost across unmap/remap")
		}
		a.Munmap(p, mb)
	})
	eng.Run()
}

func TestMmapFileValidation(t *testing.T) {
	eng, a, _ := setupShared()
	f := NewFile(a.Mem, a.Rmap, "d", 4*4096, 4096)
	eng.Spawn("p", func(p *sim.Proc) {
		if _, err := a.MmapFile(p, f, 0, 5*4096); err == nil {
			t.Error("overrun mapping accepted")
		}
		if _, err := a.MmapFile(p, f, 100, 4096); err == nil {
			t.Error("unaligned offset accepted")
		}
		noRmap := New(eng, a.Plat, a.Mem, 4096)
		if _, err := noRmap.MmapFile(p, f, 0, 4096); err == nil {
			t.Error("mapping without shared rmap accepted")
		}
	})
	eng.Run()
}
