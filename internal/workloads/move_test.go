package workloads

import (
	"errors"
	"slices"
	"testing"

	"memif/internal/core"
	"memif/internal/hw"
	"memif/internal/machine"
	"memif/internal/sim"
	"memif/internal/uapi"
)

// moveSetup opens a device on a dataless KeyStone II and runs body as
// its application, with one slow-node page mapped for it to move. An
// application left waiting when the simulation runs out fails the test.
func moveSetup(t *testing.T, body func(p *sim.Proc, d *core.Device, page int64)) {
	t.Helper()
	m := machine.New(hw.KeyStoneII())
	m.Mem.DisableData()
	d := core.Open(m, m.NewAddressSpace(hw.Page4K), core.DefaultOptions())
	finished := false
	m.Eng.Spawn("app", func(p *sim.Proc) {
		defer d.Close()
		page, err := d.AS.Mmap(p, hw.Page4K, hw.NodeSlow, "page")
		if err != nil {
			t.Fatal(err)
		}
		body(p, d, page)
		finished = true
	})
	m.Eng.Run()
	if !finished {
		t.Fatal("the application never finished: it waits for a completion that cannot come")
	}
}

// holdAll allocates every free request slot.
func holdAll(p *sim.Proc, d *core.Device) (held []*uapi.MovReq) {
	for r := d.AllocRequest(p); r != nil; r = d.AllocRequest(p) {
		held = append(held, r)
	}
	return held
}

// freeSlots allocates every free request slot, frees them all again and
// returns how many there were.
func freeSlots(p *sim.Proc, d *core.Device) int {
	held := holdAll(p, d)
	for _, r := range held {
		d.FreeRequest(p, r)
	}
	return len(held)
}

func TestMoveSyncNoSlotsReturnsWithoutWaiting(t *testing.T) {
	moveSetup(t, func(p *sim.Proc, d *core.Device, page int64) {
		held := holdAll(p, d)
		start := p.Now()
		lat, ok, err := MoveSync(p, d, uapi.OpMigrate, page, 0, hw.Page4K, hw.NodeFast)
		if !errors.Is(err, core.ErrNoSlots) || ok || lat != 0 {
			t.Errorf("MoveSync with every slot held = (%d, %v, %v), want (0, false, ErrNoSlots)", lat, ok, err)
		}
		// One failed AllocRequest is all it may cost: no submit, no poll.
		if got, want := int64(p.Now()-start), d.M.Plat.Cost.QueueOp; got != want {
			t.Errorf("MoveSync with every slot held took %d ns, want one queue op (%d ns)", got, want)
		}
		if st := d.Stats(); st.Submitted != 0 {
			t.Errorf("submitted %d requests, want 0", st.Submitted)
		}
		for _, r := range held {
			d.FreeRequest(p, r)
		}
	})
}

func TestMoveSyncClosedDeviceFreesTheSlot(t *testing.T) {
	moveSetup(t, func(p *sim.Proc, d *core.Device, page int64) {
		slots := freeSlots(p, d)
		d.Close()
		_, ok, err := MoveSync(p, d, uapi.OpMigrate, page, 0, hw.Page4K, hw.NodeFast)
		if !errors.Is(err, core.ErrClosed) || ok {
			t.Errorf("MoveSync on a closed device = (%v, %v), want (false, ErrClosed)", ok, err)
		}
		if got := freeSlots(p, d); got != slots {
			t.Errorf("%d free slots after the refused submit, want %d", got, slots)
		}
	})
}

func TestMoveSyncCompletedFailureIsNotAnError(t *testing.T) {
	moveSetup(t, func(p *sim.Proc, d *core.Device, page int64) {
		slots := freeSlots(p, d)
		// Nothing is mapped 1 MiB past the only mapping: the move is
		// submitted and completes with ErrBadRequest.
		unmapped := page + 1<<20
		_, ok, err := MoveSync(p, d, uapi.OpMigrate, unmapped, 0, hw.Page4K, hw.NodeFast)
		if err != nil || ok {
			t.Errorf("MoveSync of an unmapped source = (%v, %v), want (false, nil)", ok, err)
		}
		if st := d.Stats(); st.Submitted != 1 || st.Failed != 1 {
			t.Errorf("submitted %d, failed %d; want 1, 1", st.Submitted, st.Failed)
		}
		if got := freeSlots(p, d); got != slots {
			t.Errorf("%d free slots after the failed move, want %d", got, slots)
		}
		// The same page, mapped, moves.
		lat, ok, err := MoveSync(p, d, uapi.OpMigrate, page, 0, hw.Page4K, hw.NodeFast)
		if err != nil || !ok || lat <= 0 {
			t.Errorf("MoveSync of a mapped page = (%d, %v, %v), want (>0, true, nil)", lat, ok, err)
		}
		if f := d.AS.FrameAt(page); f == nil || f.Node != hw.NodeFast {
			t.Errorf("page on %v after MoveSync, want the fast node", f)
		}
	})
}

func TestAwaitHandsOverAndFreesEach(t *testing.T) {
	const n = 6
	moveSetup(t, func(p *sim.Proc, d *core.Device, _ int64) {
		slots := freeSlots(p, d)
		src, err := d.AS.Mmap(p, n*hw.Page4K, hw.NodeSlow, "src")
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < n; i++ {
			r := d.AllocRequest(p)
			r.Op, r.SrcBase, r.Length, r.DstNode = uapi.OpMigrate, src+int64(i)*hw.Page4K, hw.Page4K, hw.NodeFast
			r.Cookie = uint64(i)
			if err := d.Submit(p, r); err != nil {
				t.Fatal(err)
			}
		}
		var cookies []uint64
		Await(p, d, n, func(r *uapi.MovReq) {
			if r.Status != uapi.StatusDone {
				t.Errorf("request %d handed over as %v", r.Cookie, r.Status)
			}
			cookies = append(cookies, r.Cookie)
		})
		slices.Sort(cookies)
		if want := []uint64{0, 1, 2, 3, 4, 5}; !slices.Equal(cookies, want) {
			t.Errorf("Await handed over cookies %v, want %v", cookies, want)
		}
		if got := freeSlots(p, d); got != slots {
			t.Errorf("%d free slots after Await, want %d", got, slots)
		}
	})
}
