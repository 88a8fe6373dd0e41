//go:build go1.23

package sim

import "iter"

// bind gives p its coroutine. iter.Pull hands control between the engine
// and the body by a direct goroutine switch, with no scheduler pass and no
// channel; the body starts on the first next. The coroutine outlives the
// body it first runs: once p.fn returns, it yields back to the engine as
// an exited process, which Spawn may hand the next body (Engine.pool), and
// it ends only when teardown stops it. This is the only file that needs a
// toolchain newer than go.mod's language version, hence the build tag
// (DESIGN.md §7).
func (p *Proc) bind() {
	p.next, p.stop = iter.Pull(func(yield func(struct{}) bool) {
		p.yield = yield
		for {
			p.top()
			if !yield(struct{}{}) {
				return
			}
		}
	})
}
