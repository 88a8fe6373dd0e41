package realtime

import (
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"memif/internal/obs/flight"
	"memif/internal/obs/lifecycle"
)

// The retroactive-capture acceptance check, end to end on a live device:
// with the lifecycle tracer completely off (negative sample shift) the
// flight recorder must still catch every breaching request and
// synthesize a complete, monotone seven-stage stamp vector for it from
// the armed Request-field stamps — no sampling holes: every record the
// watchdog did not contribute is a breach, and every breach is retained.
func TestFlightRetroactiveCaptureNoSamplingHoles(t *testing.T) {
	var delayCopies atomic.Bool
	d := open(Options{
		NumReqs: 32, Controllers: 2,
		ChunkBytes:       16 << 10,
		TraceSampleShift: -1, // tracer off: every breach takes the synthesized path
		Flight:           flight.Options{Warmup: 4},
		Chaos: &ChaosHooks{
			BeforeChunkCopy: func(idx uint32, off, end int) {
				if delayCopies.Load() {
					time.Sleep(2 * time.Millisecond)
				}
			},
		},
	}, 2)
	defer d.Close()

	src := make([]byte, 64<<10)
	dst := make([]byte, 64<<10)
	do := func() {
		var r *Request
		for r == nil {
			r = d.AllocRequest()
			if r == nil {
				runtime.Gosched()
			}
		}
		r.Src, r.Dst = src, dst
		if err := d.Submit(r); err != nil {
			t.Fatalf("submit: %v", err)
		}
		for {
			if got := d.RetrieveCompleted(); got != nil {
				if got.Err != nil {
					t.Fatalf("completion error: %v", got.Err)
				}
				d.FreeRequest(got)
				return
			}
			d.Poll(10 * time.Millisecond)
		}
	}

	for i := 0; i < 8; i++ {
		do() // warm the foreground lane past the warmup gate
	}
	delayCopies.Store(true)
	for i := 0; i < 4; i++ {
		do() // 4 chunks x 2ms each: far past any plausible threshold
	}
	delayCopies.Store(false)

	fs := d.FlightSnapshot()
	if fs.Breaches < 1 {
		t.Fatal("no breaches: the 8ms+ stragglers went undetected")
	}
	if fs.Captured != fs.Breaches+fs.Stalls {
		t.Fatalf("captured %d != breaches %d + stalls %d (must match exactly)",
			fs.Captured, fs.Breaches, fs.Stalls)
	}
	var latency int64
	for _, o := range fs.Outliers {
		if o.Kind == lifecycle.KindStall {
			continue // a watchdog report: the host stalled the run for 30 ms
		}
		if o.Kind != lifecycle.KindLatency {
			t.Fatalf("unexpected non-latency record: %+v", o)
		}
		latency++
		if o.Class != 0 || o.Tenant != 0 || o.Bytes != 64<<10 {
			t.Fatalf("record identity wrong: %+v", o)
		}
		if o.Outcome != lifecycle.OutcomeOK {
			t.Fatalf("outcome = %d, want OK: %+v", o.Outcome, o)
		}
		if o.ThresholdNs <= 0 || o.LatencyNs <= o.ThresholdNs {
			t.Fatalf("latency %d not past threshold %d", o.LatencyNs, o.ThresholdNs)
		}
		for st := 0; st < lifecycle.NumStages; st++ {
			if o.TS[st] <= 0 {
				t.Fatalf("stage %d missing from synthesized vector: %+v", st, o.TS)
			}
			if st > 0 && o.TS[st] < o.TS[st-1] {
				t.Fatalf("stage %d not monotone: %+v", st, o.TS)
			}
		}
		if got := o.TS[lifecycle.StageRetrieved] - o.TS[lifecycle.StageSubmit]; got != o.LatencyNs {
			t.Fatalf("vector spans %dns but LatencyNs = %d", got, o.LatencyNs)
		}
	}
	if latency != fs.Breaches {
		t.Fatalf("ring retains %d latency records, want all %d breaches", latency, fs.Breaches)
	}
	// The multi-window SLO tracker must have seen the whole run even
	// with the tracer off.
	var total int64
	for _, cs := range fs.SLO.Classes {
		total += cs.Total
	}
	if total < 12 {
		t.Fatalf("SLO tracked %d requests, want >= 12", total)
	}
}

// A request shed before staging (admission, slot exhaustion) carries no
// pipeline latency; the armed breach check must skip it rather than
// capture an epoch-sized "breach" with an empty stamp vector.
func TestFlightSkipsUnstagedRequests(t *testing.T) {
	d := open(Options{
		NumReqs: 8, Controllers: 1,
		TraceSampleShift: -1,
		Flight:           flight.Options{Warmup: 1},
	}, 1)
	defer d.Close()

	src := make([]byte, 4<<10)
	// Warm the scavenger lane so a bogus epoch-sized latency on a shed
	// scavenger request would breach it.
	for i := 0; i < 4; i++ {
		r := d.AllocRequest()
		r.Src, r.Dst = src, make([]byte, 4<<10)
		r.Class = ClassScavenger
		if err := d.Submit(r); err != nil {
			t.Fatalf("submit: %v", err)
		}
		for {
			if got := d.RetrieveCompleted(); got != nil {
				d.FreeRequest(got)
				break
			}
			d.Poll(10 * time.Millisecond)
		}
	}
	before := d.FlightSnapshot().Breaches

	// A slab-sized scavenger batch overruns the class's admission share:
	// the surplus is shed with ErrOverload, submitted stamp zero.
	reqs := make([]*Request, 0, 8)
	for {
		r := d.AllocRequest()
		if r == nil {
			break
		}
		r.Src, r.Dst = src, make([]byte, 4<<10)
		r.Class = ClassScavenger
		reqs = append(reqs, r)
	}
	if err := d.SubmitBatch(reqs); err != nil {
		t.Fatalf("batch: %v", err)
	}
	shed := 0
	for done := 0; done < len(reqs); {
		got := d.RetrieveCompleted()
		if got == nil {
			d.Poll(10 * time.Millisecond)
			continue
		}
		if got.Err != nil {
			shed++
		}
		d.FreeRequest(got)
		done++
	}
	fs := d.FlightSnapshot()
	for _, o := range fs.Outliers {
		if o.Seq <= uint64(before) {
			continue
		}
		if o.LatencyNs > int64(time.Hour) {
			t.Fatalf("epoch-sized breach captured for a shed request: %+v", o)
		}
	}
	t.Logf("shed %d of %d, breaches %d -> %d", shed, len(reqs), before, fs.Breaches)
}
