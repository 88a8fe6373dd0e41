//go:build go1.23

package sim

import "iter"

// bind makes fn the body of p's coroutine. iter.Pull hands control between
// the engine and the body by a direct goroutine switch, with no scheduler
// pass and no channel; the body starts on the first next. This is the only
// file that needs a toolchain newer than go.mod's language version, hence
// the build tag (DESIGN.md §7).
func (p *Proc) bind(fn ProcFunc) {
	p.next, p.stop = iter.Pull(func(yield func(struct{}) bool) {
		p.yield = yield
		p.top(fn)
	})
}
