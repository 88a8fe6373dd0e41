// Package qos declares the one priority vocabulary every engine shares:
// the realtime device's admission, dispatch order and shedding, the
// simulated driver's DMA channel order, the tiering daemon's and the
// stream engine's request classes, and the class label of every
// /metrics series all name the same three classes. It is a leaf package
// so both the wall-clock side (realtime) and the simulated side (uapi,
// dma, core, swapd, streamrt) can import it without importing each
// other.
package qos

import "fmt"

// Class is a request's priority class. Lower value means higher
// priority; the zero value is Foreground, so a caller that never sets
// it is foreground by default.
type Class uint8

// The priority classes, highest first.
const (
	// Foreground is latency-sensitive application work: never shed by
	// admission (it can always use every slot), dispatched first.
	Foreground Class = iota
	// Background is throughput work (e.g. planned migrations): admitted
	// while total occupancy is moderate, aged into the dispatch order
	// under foreground pressure.
	Background
	// Scavenger is best-effort work (e.g. speculative prefetch,
	// cold-page eviction): first to be shed when the pipeline fills.
	Scavenger

	// NumClasses is the number of priority classes.
	NumClasses = 3
)

var names = [NumClasses]string{"foreground", "background", "scavenger"}

// String returns the class's metric-label name ("foreground",
// "background", "scavenger"); an undefined class renders as class(N).
func (c Class) String() string {
	if c.Valid() {
		return names[c]
	}
	return fmt.Sprintf("class(%d)", uint8(c))
}

// Valid reports whether c is one of the defined classes. Class is a
// caller-set uint8, so every entry point that takes a request checks it.
func (c Class) Valid() bool { return c < NumClasses }
