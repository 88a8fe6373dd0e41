package core

import (
	"testing"

	"memif/internal/hw"
	"memif/internal/sim"
	"memif/internal/uapi"
)

// txnMigrate builds a transactional migration request for [base, base+n).
func txnMigrate(t *testing.T, d *Device, p *sim.Proc, base, n int64, node hw.NodeID, flags uapi.ReqFlags) *uapi.MovReq {
	t.Helper()
	r := d.AllocRequest(p)
	if r == nil {
		t.Fatal("AllocRequest returned nil")
	}
	r.Op = uapi.OpMigrate
	r.SrcBase, r.Length, r.DstNode = base, n, node
	r.Flags = uapi.ReqTxn | flags
	return r
}

func TestTxnMigrationCommitsCleanPages(t *testing.T) {
	m, d := newRig(t, DefaultOptions())
	m.Eng.Spawn("app", func(p *sim.Proc) {
		defer d.Close()
		const n = 8 * 4096
		base, _ := d.AS.Mmap(p, n, hw.NodeSlow, "buf")
		fill(t, d, p, base, n, 3)

		r := txnMigrate(t, d, p, base, n, hw.NodeFast, 0)
		got := submitAndWait(t, d, p, r)
		if got.Status != uapi.StatusDone || got.Err != uapi.ErrNone {
			t.Fatalf("completion = %v", got)
		}
		if got.MovedBytes != n || got.ZeroCopyPages != 0 {
			t.Errorf("MovedBytes = %d, ZeroCopyPages = %d", got.MovedBytes, got.ZeroCopyPages)
		}
		for i := int64(0); i < n/4096; i++ {
			f := d.AS.FrameAt(base + i*4096)
			if f == nil || f.Node != hw.NodeFast {
				t.Fatalf("page %d not on fast node after commit", i)
			}
		}
		check(t, d, p, base, n, 3)
		st := d.Stats()
		if st.TxnMigrations != 1 || st.TxnCommits != 1 || st.TxnAborts != 0 {
			t.Errorf("txn stats = %+v", st)
		}
		// Without ReqKeepSrc the source frames are freed, not retained.
		if d.AS.Shadows() != 0 {
			t.Errorf("Shadows = %d without keep-src", d.AS.Shadows())
		}
		if d.AS.Mem.Used(hw.NodeSlow) != 0 {
			t.Errorf("slow node still holds %d bytes", d.AS.Mem.Used(hw.NodeSlow))
		}
		d.FreeRequest(p, got)
	})
	m.Eng.Run()
}

// A keep-src promotion retains the slow copy; while the page stays clean
// the reverse (demotion) commit is a PTE flip that moves zero bytes.
func TestTxnKeepSrcEnablesZeroCopyDemotion(t *testing.T) {
	m, d := newRig(t, DefaultOptions())
	m.Eng.Spawn("app", func(p *sim.Proc) {
		defer d.Close()
		const n = 4 * 4096
		base, _ := d.AS.Mmap(p, n, hw.NodeSlow, "buf")
		fill(t, d, p, base, n, 9)

		up := txnMigrate(t, d, p, base, n, hw.NodeFast, uapi.ReqKeepSrc)
		got := submitAndWait(t, d, p, up)
		if got.Err != uapi.ErrNone || got.MovedBytes != n {
			t.Fatalf("promotion = %v (moved %d)", got, got.MovedBytes)
		}
		if d.AS.Shadows() != n/4096 {
			t.Fatalf("Shadows = %d, want %d", d.AS.Shadows(), n/4096)
		}
		// The slow copies are retained: slow usage unchanged.
		if d.AS.Mem.Used(hw.NodeSlow) != n {
			t.Errorf("slow usage = %d, want %d", d.AS.Mem.Used(hw.NodeSlow), n)
		}
		d.FreeRequest(p, got)

		// Read-only access keeps the pages clean.
		check(t, d, p, base, n, 9)

		down := txnMigrate(t, d, p, base, n, hw.NodeSlow, 0)
		before := d.M.DMA.Stats().BytesMoved
		got = submitAndWait(t, d, p, down)
		if got.Err != uapi.ErrNone {
			t.Fatalf("demotion = %v", got)
		}
		if got.MovedBytes != 0 || got.ZeroCopyPages != n/4096 {
			t.Errorf("demotion moved %d bytes, %d zero-copy pages", got.MovedBytes, got.ZeroCopyPages)
		}
		if d.M.DMA.Stats().BytesMoved != before {
			t.Error("zero-copy demotion went through the DMA engine")
		}
		for i := int64(0); i < n/4096; i++ {
			f := d.AS.FrameAt(base + i*4096)
			if f == nil || f.Node != hw.NodeSlow {
				t.Fatalf("page %d not back on slow node", i)
			}
		}
		check(t, d, p, base, n, 9)
		if st := d.Stats(); st.ZeroCopyPages != int64(n/4096) {
			t.Errorf("stats.ZeroCopyPages = %d", st.ZeroCopyPages)
		}
		if d.AS.Mem.Used(hw.NodeFast) != 0 {
			t.Errorf("fast node still holds %d bytes", d.AS.Mem.Used(hw.NodeFast))
		}
		d.FreeRequest(p, got)
	})
	m.Eng.Run()
}

// A write to a page after the shadow was taken invalidates it: the next
// demotion must copy the bytes instead of flipping the PTE.
func TestDirtyPageInvalidatesShadow(t *testing.T) {
	m, d := newRig(t, DefaultOptions())
	m.Eng.Spawn("app", func(p *sim.Proc) {
		defer d.Close()
		const n = 4096
		base, _ := d.AS.Mmap(p, n, hw.NodeSlow, "buf")
		fill(t, d, p, base, n, 1)

		got := submitAndWait(t, d, p, txnMigrate(t, d, p, base, n, hw.NodeFast, uapi.ReqKeepSrc))
		if got.Err != uapi.ErrNone {
			t.Fatalf("promotion = %v", got)
		}
		d.FreeRequest(p, got)

		fill(t, d, p, base, n, 2) // dirty the fast copy

		got = submitAndWait(t, d, p, txnMigrate(t, d, p, base, n, hw.NodeSlow, 0))
		if got.Err != uapi.ErrNone {
			t.Fatalf("demotion = %v", got)
		}
		if got.MovedBytes != n || got.ZeroCopyPages != 0 {
			t.Errorf("stale shadow was used: moved %d, zero-copy %d", got.MovedBytes, got.ZeroCopyPages)
		}
		check(t, d, p, base, n, 2)
		d.FreeRequest(p, got)
	})
	m.Eng.Run()
}

// The heart of the transaction: a write racing the copy leaves the dirty
// bit set, the commit CAS refuses it, and the original mapping — with the
// new data — is untouched. The writer never blocks and never faults.
func TestTxnAbortOnDirtyDuringCopy(t *testing.T) {
	m, d := newRig(t, DefaultOptions())
	done := false
	m.Eng.Spawn("app", func(p *sim.Proc) {
		defer d.Close()
		const n = 64 * 4096 // big enough that the copy takes a while
		base, _ := d.AS.Mmap(p, n, hw.NodeFast, "buf")
		fill(t, d, p, base, n, 5)

		r := txnMigrate(t, d, p, base, n, hw.NodeSlow, 0)
		if err := d.Submit(p, r); err != nil {
			t.Fatalf("Submit: %v", err)
		}
		// Keep writing the first page while the migration is in flight;
		// with the page never unmapped this must not block or fault.
		var got *uapi.MovReq
		for got == nil {
			if err := d.AS.Write(p, base, []byte{0xAA}); err != nil {
				t.Fatalf("write during txn copy: %v", err)
			}
			p.SleepNS(20_000)
			got = d.RetrieveCompleted(p)
		}
		if got.Status != uapi.StatusFailed || got.Err != uapi.ErrTxnDirty {
			t.Fatalf("completion = %v, want txn-dirty abort", got)
		}
		f := d.AS.FrameAt(base)
		if f == nil || f.Node != hw.NodeFast {
			t.Error("aborted page not on its original node")
		}
		var b [1]byte
		if err := d.AS.Read(p, base, b[:]); err != nil || b[0] != 0xAA {
			t.Errorf("racing write lost: %v %#x", err, b[0])
		}
		if st := d.Stats(); st.TxnAborts == 0 {
			t.Error("TxnAborts not counted")
		}
		// Abort must leak nothing on the destination node.
		if used := d.AS.Mem.Used(hw.NodeSlow); used != 0 {
			t.Errorf("slow node holds %d bytes after abort", used)
		}
		d.FreeRequest(p, got)

		// A retry with the writer quiet commits.
		got = submitAndWait(t, d, p, txnMigrate(t, d, p, base, n, hw.NodeSlow, 0))
		if got.Err != uapi.ErrNone {
			t.Fatalf("retry = %v", got)
		}
		d.FreeRequest(p, got)
		done = true
	})
	m.Eng.Run()
	if !done {
		t.Fatal("scenario did not finish")
	}
}

func TestTxnRejectsSharedPages(t *testing.T) {
	m, d := newRig(t, DefaultOptions())
	m.Eng.Spawn("app", func(p *sim.Proc) {
		defer d.Close()
		const n = 4096
		base, _ := d.AS.Mmap(p, n, hw.NodeSlow, "shared")
		other := m.NewAddressSpace(4096)
		if _, err := other.ShareFrom(p, d.AS, base, n); err != nil {
			t.Fatalf("ShareFrom: %v", err)
		}
		got := submitAndWait(t, d, p, txnMigrate(t, d, p, base, n, hw.NodeFast, 0))
		if got.Err != uapi.ErrBadRequest {
			t.Fatalf("shared-page txn = %v, want badreq", got)
		}
		d.FreeRequest(p, got)
	})
	m.Eng.Run()
}
