package core

import (
	"testing"

	"memif/internal/hw"
	"memif/internal/pagetable"
	"memif/internal/sim"
	"memif/internal/uapi"
)

// The caller blocked in an untimed Poll serves the next queued request
// while the worker prepares another (Device.Poll). These tests open the
// windows that second serving context adds: a recover fault and a Close
// while the caller, not the worker, prepares a request.

// pollerServing submits two 64-page migrations behind a kick and returns
// once the caller, blocked in Poll from a process of its own, has begun
// serving the second while the worker prepares the first. inRemap
// additionally waits until the second's Remap has installed its PTEs.
func pollerServing(b *burst, regA, regB, n int64, inRemap bool) (head, served *uapi.MovReq) {
	d := b.d
	b.kick()
	head = b.migrate(regA, n, hw.NodeFast)
	served = b.migrate(regB, n, hw.NodeFast)
	b.waitFor("the worker preparing the first request", func() bool {
		return d.preparing && head.Status == uapi.StatusInFlight
	})
	for r := d.RetrieveCompleted(b.p); r != nil; r = d.RetrieveCompleted(b.p) {
		b.retrieved = append(b.retrieved, r) // the kick: Poll must find nothing to return
	}
	d.M.Eng.Spawn("poller", func(p *sim.Proc) { d.Poll(p, 0) })
	slot, _ := d.AS.Table.Lookup(d.AS.VPN(regB))
	// The worker is still preparing head, so whoever dispatched served is
	// the poller.
	b.waitFor("the poller serving the second request", func() bool {
		return d.preparing && head.CopyStart == 0 && served.Status == uapi.StatusInFlight && served.CopyStart == 0 &&
			(!inRemap || slot.Load().Has(pagetable.FlagRecover))
	})
	return head, served
}

// auditPinsAndClaims checks that no frame of the burst is still pinned and
// that no migration claim outlived its request.
func auditPinsAndClaims(b *burst, regions []int64, n int64) {
	b.t.Helper()
	for _, page := range b.pages {
		if b.d.AS.FrameAt(page).Pinned() {
			b.t.Errorf("page %#x still pinned", page)
		}
	}
	for _, base := range regions {
		vpn, pages := b.d.AS.VPN(base), int(n/b.d.AS.PageBytes)
		if !b.d.AS.MigClaim(vpn, pages) {
			b.t.Errorf("region %#x still claimed", base)
			continue
		}
		b.d.AS.MigRelease(vpn, pages)
	}
}

// A write lands on a page of the request the caller serves while the
// caller's Remap spends its CPU time: the recover handler aborts it. It
// completes once, aborted, and starts no transfer; the worker's request
// is unaffected.
func TestRecoverAbortsPollerServedDuringRemap(t *testing.T) {
	opts := DefaultOptions()
	opts.RaceMode = RaceRecover
	m, d := newRig(t, opts)
	m.Eng.Spawn("app", func(p *sim.Proc) {
		defer d.Close()
		const n = 64 * 4096
		b := newBurst(t, d, p)
		regA, regB := b.mmap(n, hw.NodeSlow), b.mmap(n, hw.NodeSlow)
		head, served := pollerServing(b, regA, regB, n, true)
		if err := d.AS.Write(p, regB+4096, []byte{1}); err != nil {
			t.Fatal(err)
		}
		b.wait()
		if head.Err != uapi.ErrNone || served.Err != uapi.ErrAborted {
			t.Errorf("head %v, served %v; want ok, aborted", head.Err, served.Err)
		}
		if f := d.AS.FrameAt(regB); f.Node != hw.NodeSlow {
			t.Errorf("aborted region is on node %d", f.Node)
		}
		b.audit()
		auditPinsAndClaims(b, []int64{regA, regB}, n)
	})
	m.Eng.Run()
	if st := d.Stats(); st.Recovered != 1 || st.PollServes != 1 || st.Syscalls != 1 {
		t.Errorf("recovered %d, poll serves %d, syscalls %d; want 1, 1, 1", st.Recovered, st.PollServes, st.Syscalls)
	}
	if aborts := m.DMA.Stats().Aborts; aborts != 0 {
		t.Errorf("engine aborts %d: the aborted request never reached the channel", aborts)
	}
}

// Close while the caller serves: the caller finishes the request it has
// begun, which completes by interrupt; the worker drains what else is
// queued and exits. Every request completes once, and nothing leaks.
func TestCloseWhilePollerServes(t *testing.T) {
	m, d := newRig(t, DefaultOptions())
	m.Eng.Spawn("app", func(p *sim.Proc) {
		const n = 64 * 4096
		b := newBurst(t, d, p)
		regA, regB, regC := b.mmap(n, hw.NodeSlow), b.mmap(n, hw.NodeSlow), b.mmap(n, hw.NodeSlow)
		head, served := pollerServing(b, regA, regB, n, false)
		last := b.migrate(regC, n, hw.NodeFast)
		d.Close()
		b.wait()
		for _, r := range []*uapi.MovReq{head, served, last} {
			if r.Status != uapi.StatusDone {
				t.Errorf("completion = %v", r)
			}
		}
		b.audit()
		auditPinsAndClaims(b, []int64{regA, regB, regC}, n)
	})
	m.Eng.Run()
	if m.Eng.Parked() != 0 {
		t.Errorf("%d processes leaked after close", m.Eng.Parked())
	}
	if st := d.Stats(); st.Completed != 4 || st.PollServes != 1 {
		t.Errorf("completed %d, poll serves %d; want 4, 1", st.Completed, st.PollServes)
	}
}
