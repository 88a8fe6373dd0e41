package core

// Test-only helpers: no program calls them.

// String names a race mode; the race-mode subtests are named by it.
func (m RaceMode) String() string {
	return [...]string{"detect", "recover", "prevent"}[m]
}

// recycleEarly is the bug that record generations exist to catch: it
// recycles inf while its train is still on the channel and deferred uses
// of it are outstanding. The record lets go of the transfers and of the
// segments they copy instead of recycling and clearing them: the engine
// still reads those, and recycling a transfer early is the dma package's
// own test.
func (d *Device) recycleEarly(inf *inflight) {
	inf.subs, inf.segs = nil, nil
	d.recycle(inf)
}
