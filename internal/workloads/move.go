package workloads

import (
	"memif/internal/core"
	"memif/internal/hw"
	"memif/internal/sim"
	"memif/internal/uapi"
)

// Await retrieves n completions from d, retrieving before it polls,
// and hands each to done (if non-nil) before freeing it. Awaiting a
// closed device is a caller bug and panics.
func Await(p *sim.Proc, d *core.Device, n int, done func(r *uapi.MovReq)) {
	for got := 0; got < n; {
		r := d.RetrieveCompleted(p)
		if r == nil {
			if !d.Poll(p, 0) {
				panic("workloads: awaiting completions on a closed device")
			}
			continue
		}
		if done != nil {
			done(r)
		}
		d.FreeRequest(p, r)
		got++
	}
}

// MoveSync submits one move of length bytes from src (to dst, for a
// replication) onto node, in the foreground class (the zero Class), and
// awaits it. err reports a move that was
// never submitted: core.ErrNoSlots when every request slot is held,
// returned without waiting, or Submit's error, with the slot freed
// again. Otherwise ok reports whether the move completed with
// StatusDone, and latNS is its submit-to-completion latency.
func MoveSync(p *sim.Proc, d *core.Device, op uapi.Op, src, dst, length int64, node hw.NodeID) (latNS int64, ok bool, err error) {
	r := d.AllocRequest(p)
	if r == nil {
		return 0, false, core.ErrNoSlots
	}
	r.Op = op
	r.SrcBase, r.DstBase, r.Length, r.DstNode = src, dst, length, node
	if err = d.Submit(p, r); err != nil {
		d.FreeRequest(p, r)
		return 0, false, err
	}
	Await(p, d, 1, func(got *uapi.MovReq) {
		latNS, ok = int64(got.Completed-got.Submitted), got.Status == uapi.StatusDone
	})
	return latNS, ok, nil
}
