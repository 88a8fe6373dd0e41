package streamrt

import "fmt"

// creditLedger is one stream's backpressure account.
//
// The credit protocol: a stream is opened with a fixed number of
// credits (StreamSpec.Credits). Granting a fill — assigning a ring
// buffer to the stream and submitting a replication into it — takes one
// credit; the credit stays taken while the fill is in flight AND while
// the filled buffer sits ready awaiting consumption. Consuming the
// buffer (or abandoning it: fill failure, stream close) returns the
// credit. Credits therefore bound the number of ring buffers a stream
// can hold at once, so a slow consumer exerts backpressure on its own
// fills instead of monopolizing the shared ring, and the engine's
// round-robin grant pass divides leftover ring capacity by credit
// share.
//
// Invariants (checked in take/put, property-tested by
// TestCreditInvariantsProperty):
//
//	0 <= inFlight <= total
//	available() == total - inFlight
//	granted - returned == inFlight   (conservation)
//
// Like the engine's state, the ledger is read and written from sim
// procs, or read after sim.Engine.Run returns.
type creditLedger struct {
	total    int
	inFlight int

	// granted/returned are cumulative, for conservation checks and the
	// per-stream snapshot.
	granted, returned int64
}

func newCreditLedger(total int) creditLedger {
	return creditLedger{total: total}
}

// available reports how many more fills the stream may have granted.
func (c *creditLedger) available() int { return c.total - c.inFlight }

// take spends one credit for a granted fill.
func (c *creditLedger) take() {
	c.inFlight++
	c.granted++
	if c.inFlight > c.total {
		panic(fmt.Sprintf("streamrt: credit overdraft: in-flight %d > total %d", c.inFlight, c.total))
	}
}

// put returns one credit on consume/failure/close.
func (c *creditLedger) put() {
	c.inFlight--
	c.returned++
	if c.inFlight < 0 {
		panic(fmt.Sprintf("streamrt: credit double-return: in-flight %d", c.inFlight))
	}
}
