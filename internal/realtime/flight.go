package realtime

import (
	"time"

	"memif/internal/obs/lifecycle"
)

// Flight-recorder plumbing for the realtime device: the monitor
// goroutine that drives SLO window ticks and the stall watchdog, and
// the ambient-state probe the recorder stamps on every outlier. The
// recorder itself is lifecycle.Recorder; everything here is the
// device-specific probe.

// flightTickInterval is the monitor cadence: fast enough that a 1s SLO
// window keeps fine-grained burn history and a wedged worker is
// reported within ~30ms (the watchdog wants 3 consecutive bad ticks),
// slow enough that an idle device's monitor load is unmeasurable.
const flightTickInterval = 10 * time.Millisecond

// monitor is the flight recorder's heartbeat goroutine: every tick it
// hands the recorder a progress probe, which advances the SLO burn-rate
// windows and the watchdog; findings land in the outlier ring as typed
// stall records. Exits when frStop closes (Close waits for it).
func (d *Device) monitor() {
	defer d.frWg.Done()
	ticker := time.NewTicker(flightTickInterval)
	defer ticker.Stop()
	for {
		select {
		case <-d.frStop:
			return
		case <-ticker.C:
		}
		d.rec.Tick(nanotime(), lifecycle.ProbeState{
			QueuedWork:       d.queuedWork(),
			DispatchProgress: d.m.dispatched.Load(),
			CompletionDepth:  d.completions.size(),
			CompletionCap:    int64(len(d.reqs)),
			RetrieveProgress: d.m.retrieved.Load(),
		})
	}
}

// FlightSnapshot returns the flight recorder's state alone — captured
// outliers, stall reports, lane thresholds and SLO burn rates — without
// the full Stats assembly. Snapshot.Enabled is false when the recorder
// is disarmed.
func (d *Device) FlightSnapshot() lifecycle.FlightSnapshot { return d.rec.FlightSnapshot() }

// queuedWork reports whether the staging queue held work or the
// backlog was non-zero at probe time: requests on the submission queue
// and in the scheduler's buckets alike (racy snapshot — the watchdog
// needs consecutive bad ticks anyway).
func (d *Device) queuedWork() bool {
	return !d.staging.Empty() || d.backlog() > 0
}

// ambient is the recorder's probe, the congestion picture stored
// alongside an outlier:
// live queue depths, the backlog and per-class in-flight counts, all
// racy snapshots of already-atomic state.
func (d *Device) ambient() lifecycle.Ambient {
	amb := lifecycle.Ambient{
		StagingDepth:    int64(d.staging.Size()),
		SubmissionDepth: d.backlog(),
		CompletionDepth: d.completions.size(),
		RingDepth:       d.chunks.size(),
	}
	for c := range d.m.classSubmitted {
		amb.ClassInFlight[c] = d.m.classOccupancy(c)
	}
	return amb
}
