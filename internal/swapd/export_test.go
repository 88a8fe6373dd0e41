package swapd

// Test-only assertion surfaces: no program calls them.

// DemotionLog returns the region bases in demotion-submission order —
// the replay-stability assertion surface for the seeded scheduler.
func (d *Daemon) DemotionLog() []int64 {
	out := make([]int64, len(d.demotionLog))
	copy(out, d.demotionLog)
	return out
}

// Outstanding reports how many tiering migrations are submitted and
// not yet retrieved.
func (d *Daemon) Outstanding() int { return d.outstanding }

// Audit verifies the daemon device's request-conservation invariant.
// Call after the daemon has exited (post engine run): every request slot
// must be back on a queue, none user-held.
func (d *Daemon) Audit() error { return d.dev.Area.Audit(nil) }
