package memif_test

import (
	"bytes"
	"testing"

	"memif"
)

// TestFigure2Flow exercises the public facade end to end, following the
// structure of the paper's Figure 2 example.
func TestFigure2Flow(t *testing.T) {
	m := memif.NewMachine(memif.KeyStoneII())
	ran := false
	m.Eng.Spawn("app", func(p *memif.Proc) {
		as := m.NewAddressSpace(memif.Page4K)
		dev := memif.Open(m, as, memif.DefaultOptions())
		defer dev.Close()

		const n = 64 << 10
		src, err := as.Mmap(p, n, memif.NodeSlow, "src")
		if err != nil {
			t.Fatal(err)
		}
		dst, err := as.Mmap(p, n, memif.NodeFast, "dst")
		if err != nil {
			t.Fatal(err)
		}
		payload := bytes.Repeat([]byte{0xA5, 0x5A}, n/2)
		if err := as.Write(p, src, payload); err != nil {
			t.Fatal(err)
		}

		for i := 0; i < 10; i++ {
			req := dev.AllocRequest(p)
			if req == nil {
				t.Fatal("AllocRequest failed")
			}
			req.Op = memif.OpReplicate
			req.SrcBase, req.DstBase, req.Length = src, dst, n
			if err := dev.Submit(p, req); err != nil {
				t.Fatalf("submit %d: %v", i, err)
			}
		}
		done := 0
		for done < 10 {
			if req := dev.RetrieveCompleted(p); req != nil {
				if req.Status != memif.StatusDone {
					t.Fatalf("completion: %v", req)
				}
				dev.FreeRequest(p, req)
				done++
				continue
			}
			dev.Poll(p, 0)
		}
		got := make([]byte, n)
		if err := as.Read(p, dst, got); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, payload) {
			t.Error("replica differs from source")
		}
		if s := dev.Stats().Syscalls; s < 1 || s > 3 {
			t.Errorf("syscalls = %d for a 10-request burst", s)
		}
		ran = true
	})
	m.Eng.Run()
	if !ran {
		t.Fatal("app never ran")
	}
}

// TestMigrationViaFacade checks the migration path and race constants
// through the facade.
func TestMigrationViaFacade(t *testing.T) {
	m := memif.NewMachine(memif.KeyStoneII())
	m.Eng.Spawn("app", func(p *memif.Proc) {
		as := m.NewAddressSpace(memif.Page4K)
		opts := memif.DefaultOptions()
		opts.RaceMode = memif.RaceDetect
		dev := memif.Open(m, as, opts)
		defer dev.Close()

		base, _ := as.Mmap(p, 128<<10, memif.NodeSlow, "w")
		req := dev.AllocRequest(p)
		req.Op = memif.OpMigrate
		req.SrcBase, req.Length, req.DstNode = base, 128<<10, memif.NodeFast
		if err := dev.Submit(p, req); err != nil {
			t.Fatal(err)
		}
		dev.Poll(p, 0)
		got := dev.RetrieveCompleted(p)
		if got == nil || got.Status != memif.StatusDone || got.Err != memif.ErrNone {
			t.Fatalf("completion = %v", got)
		}
		if f := as.FrameAt(base); f == nil || f.Node != memif.NodeFast {
			t.Errorf("page not on fast node: %v", f)
		}
	})
	m.Eng.Run()
}

// TestRedBlueFacade exercises the standalone queue export.
func TestRedBlueFacade(t *testing.T) {
	s := memif.NewQueueSlab(16)
	q := s.NewQueue(memif.Blue)
	if c, ok := q.Enqueue(42); !ok || c != memif.Blue {
		t.Fatalf("enqueue = %v,%v", c, ok)
	}
	if v, ok := q.Dequeue(); !ok || v != 42 {
		t.Fatalf("dequeue = %d,%v", v, ok)
	}
	if old, ok := q.SetColor(memif.Red); !ok || old != memif.Blue {
		t.Fatalf("SetColor on empty queue = %v,%v", old, ok)
	}
}
