// Package bench contains the experiment drivers that regenerate every
// table and figure of the paper's evaluation (Section 6), plus ablations
// for the design choices called out in DESIGN.md.
//
// Each experiment boots a fresh simulated machine, runs the workload in
// virtual time, and returns the same metrics the paper plots. The cmd/
// memif-bench binary and the top-level bench_test.go both drive these
// functions.
package bench

import (
	"fmt"

	"memif/internal/core"
	"memif/internal/hw"
	"memif/internal/machine"
	"memif/internal/sim"
	"memif/internal/uapi"
	"memif/internal/vm"
)

// System names used across experiments.
const (
	SysLinux          = "Linux"
	SysMemifMigrate   = "memif-migrate"
	SysMemifReplicate = "memif-replicate"
)

// Systems lists the Figure 6/8 comparison systems in display order.
var Systems = []string{SysLinux, SysMemifMigrate, SysMemifReplicate}

// evalPlatform returns the KeyStone II platform with the fast node
// enlarged. The paper emulates medium/large pages by moving extra bytes
// per page (Section 6.2), which sidesteps the 6 MB SRAM capacity; we get
// the same effect by benchmarking the mover against a capacity-unbounded
// fast node (the cost model does not depend on node size).
func evalPlatform() *hw.Platform {
	plat := hw.KeyStoneII()
	for i := range plat.Nodes {
		if plat.Nodes[i].ID == hw.NodeFast {
			plat.Nodes[i].Capacity = 2 << 30
		}
	}
	return plat
}

// newEvalMachine boots a dataless machine (timing only — the mover's
// correctness is covered by the unit tests) on the enlarged platform.
func newEvalMachine() *machine.Machine {
	m := machine.New(evalPlatform())
	m.Mem.DisableData()
	return m
}

// runApp spawns fn as the application process and runs the machine to
// completion, panicking on simulation deadlock.
func runApp(m *machine.Machine, fn func(p *sim.Proc)) {
	m.Eng.Spawn("app", fn)
	m.Eng.Run()
}

// submitMove fills in and submits one request; it panics on library
// errors (experiment plumbing, not system under test).
func submitMove(p *sim.Proc, d *core.Device, op uapi.Op, src, dst, length int64, node hw.NodeID, cookie uint64) {
	r := d.AllocRequest(p)
	if r == nil {
		panic("bench: out of mov_req slots")
	}
	r.Op = op
	r.SrcBase, r.DstBase, r.Length, r.DstNode = src, dst, length, node
	r.Cookie = cookie
	if err := d.Submit(p, r); err != nil {
		panic(fmt.Sprintf("bench: submit: %v", err))
	}
}

// window keeps w of n requests in flight on d, polling before it
// drains: submit(slot) issues a request whose cookie is slot, first for
// slots 0..w-1, then again for each drained request's cookie until n
// have been issued. done (if non-nil) sees each completion before it is
// freed. Failed completions panic: evaluation workloads are race-free by
// construction.
//
// The order is the paper figures' own: workloads.Await retrieves first,
// and since RetrieveCompleted charges a queue op even when it finds
// nothing, the two orders are different virtual-time programs.
func window(p *sim.Proc, d *core.Device, n, w int, submit func(slot int), done func(r *uapi.MovReq)) {
	issued := 0
	for ; issued < min(w, n); issued++ {
		submit(issued)
	}
	for got := 0; got < n; {
		if !d.Poll(p, 0) {
			panic("bench: poll gave up")
		}
		for {
			r := d.RetrieveCompleted(p)
			if r == nil {
				break
			}
			if r.Status != uapi.StatusDone {
				panic(fmt.Sprintf("bench: move failed: %v", r))
			}
			if done != nil {
				done(r)
			}
			slot := int(r.Cookie)
			d.FreeRequest(p, r)
			got++
			if issued < n {
				submit(slot)
				issued++
			}
		}
	}
}

// pingPong maps n regions of reqBytes on the slow node of d's address
// space and returns a submitter for window: each call migrates region
// slot to the node it is not on, so the requests are independent and the
// mover streams continuously, like migspeed.
func pingPong(p *sim.Proc, d *core.Device, n int, reqBytes int64) func(slot int) {
	regions := make([]int64, n)
	loc := make([]hw.NodeID, n)
	for i := range regions {
		regions[i] = mmapOrDie(p, d.AS, reqBytes, hw.NodeSlow, "r")
		loc[i] = hw.NodeSlow
	}
	return func(slot int) {
		dst := hw.NodeFast
		if loc[slot] == hw.NodeFast {
			dst = hw.NodeSlow
		}
		submitMove(p, d, uapi.OpMigrate, regions[slot], 0, reqBytes, dst, uint64(slot))
		loc[slot] = dst
	}
}

// mmapOrDie wraps AddressSpace.Mmap for experiment setup.
func mmapOrDie(p *sim.Proc, as *vm.AddressSpace, length int64, node hw.NodeID, name string) int64 {
	base, err := as.Mmap(p, length, node, name)
	if err != nil {
		panic(fmt.Sprintf("bench: mmap %s: %v", name, err))
	}
	return base
}
