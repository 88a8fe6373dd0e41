package core

import (
	"fmt"
	"strings"
	"testing"

	"memif/internal/hw"
	"memif/internal/sim"
)

// A request record recycled while a deferred use of it is outstanding
// makes that use panic instead of acting on the record's next request.
// Each case recycles the record early at a moment when one kind of
// deferred use holds it:
//   - a worker pipeline entry: a polled request the worker has started;
//   - the armed completion interrupt: a request served from the syscall;
//   - a recover-map entry: a migration whose page the application then
//     writes, before the copy ends.
func TestStaleRecordPanics(t *testing.T) {
	for _, tc := range []struct {
		name string
		mode RaceMode
	}{{"pipe", RaceDetect}, {"interrupt", RaceDetect}, {"recover", RaceRecover}} {
		t.Run(tc.name, func(t *testing.T) {
			opts := DefaultOptions()
			opts.RaceMode = tc.mode
			m, d := newRig(t, opts)
			const n = 64 * 4096
			var victim *inflight
			d.subStarted = func(inf *inflight) {
				if inf.req.Length == n {
					victim = inf
				}
			}
			m.Eng.Spawn("app", func(p *sim.Proc) {
				b := newBurst(t, d, p)
				region := b.mmap(n, hw.NodeSlow)
				switch tc.name {
				case "pipe":
					b.kick()
					b.wait() // the worker lingers, awake, and serves the next one
					b.migrate(region, n, hw.NodeFast)
					b.waitFor("the request in the pipeline", func() bool { return len(d.pipe) == 1 && d.pipe[0].inf == victim })
					d.recycleEarly(victim)
				case "interrupt":
					b.migrate(region, n, hw.NodeFast) // served by the syscall: the interrupt is armed
					d.recycleEarly(victim)
				case "recover":
					b.migrate(region, n, hw.NodeFast)
					d.recycleEarly(victim)
					if err := d.AS.Write(p, region, []byte{1}); err != nil {
						t.Error(err)
					}
				}
				b.wait()
				t.Error("the request completed")
			})
			msg := func() (msg string) {
				defer func() { msg = fmt.Sprint(recover()) }()
				m.Eng.Run()
				return "Run returned normally"
			}()
			if !strings.Contains(msg, "memif: stale use of a request record") {
				t.Errorf("recovered %q, want the stale-use panic", msg)
			}
			// The recover case must have trapped before the copy ended, so
			// that its panic is the recover map's and not the interrupt's.
			if st := d.M.DMA.Stats(); tc.name == "recover" && st.Transfers != 0 {
				t.Errorf("%d transfers completed before the panic, want 0", st.Transfers)
			}
		})
	}
}
