// Package check is the concurrency-verification harness for the
// lock-free interface: a history recorder plus Wing/Gong-style
// linearizability checker (history.go, linearize.go), a seeded
// deterministic scheduler for systematic interleaving exploration
// (sched.go), and sequential specifications for the structures the
// memif protocol is built from — the red-blue queue, the slab's
// Treiber free stack, and the uapi.Area ownership protocol (models.go).
//
// The pieces compose into one workflow:
//
//  1. spawn virtual threads on a Sched seeded with a small integer;
//  2. route the rbq scheduling hook (rbq.SetSchedHook) into the Sched so
//     every linearization-relevant step of the lock-free code becomes a
//     preemption point;
//  3. record each operation's invocation and response into a History;
//  4. after the run, Check the history against the structure's
//     sequential Model.
//
// A failing schedule is reported together with its seed; re-running the
// same test body with that seed replays the exact interleaving, because
// the scheduler is the only source of nondeterminism once the hook is
// installed.
package check

import (
	"fmt"
	"sync/atomic"
)

// Op is one completed operation in a concurrent history: an input
// (the invocation), an output (the response), and the logical times the
// two were recorded at. Times come from a single atomic counter, so the
// real-time partial order of the run is captured exactly: op A precedes
// op B iff A.Return < B.Call.
type Op struct {
	Client int
	Input  any
	Output any
	Call   int64
	Return int64
}

// History records operations from concurrently running clients without
// adding synchronization that could mask reorderings: each client owns a
// private slice, and only the logical clock is shared (a single atomic
// counter — the same linearization-point granularity the checked
// structures themselves use).
type History struct {
	clock   atomic.Int64
	clients [][]Op
}

// NewHistory returns a recorder for nClients concurrent clients,
// numbered 0..nClients-1.
func NewHistory(nClients int) *History {
	return &History{clients: make([][]Op, nClients)}
}

// Record runs fn as one operation of the given client: it stamps the
// invocation, calls fn, stamps the response, and appends the completed
// Op. fn's return value is the operation's output. Each client must
// record from a single goroutine; distinct clients may record
// concurrently.
func (h *History) Record(client int, input any, fn func() any) {
	call := h.clock.Add(1)
	out := fn()
	ret := h.clock.Add(1)
	h.clients[client] = append(h.clients[client], Op{
		Client: client, Input: input, Output: out, Call: call, Return: ret,
	})
}

// Ops flattens the per-client logs into one slice. Call only after the
// concurrent phase has finished (all recording clients joined).
func (h *History) Ops() []Op {
	var ops []Op
	for _, c := range h.clients {
		ops = append(ops, c...)
	}
	return ops
}

func (o Op) String() string {
	return fmt.Sprintf("client %d: %v -> %v [%d,%d]", o.Client, o.Input, o.Output, o.Call, o.Return)
}
