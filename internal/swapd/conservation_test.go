package swapd

import (
	"fmt"
	"testing"

	"memif/internal/hw"
	"memif/internal/obs/lifecycle"
	"memif/internal/sim"
)

// Every completed migration is handed to the daemon's recorder once and
// sampled: the stage spans count exactly Promotions + Demotions — with
// the outlier half armed (a promotion's lag judged on its own lane must
// not add spans) and with it disabled (Flight.Disable turns off only
// outliers, never the spans).
func TestSpanConservation(t *testing.T) {
	for _, disable := range []bool{false, true} {
		t.Run(fmt.Sprintf("disable=%v", disable), func(t *testing.T) {
			m, d := setup()
			opts := DefaultOptions()
			opts.Flight = aggressiveFlight()
			opts.Flight.Disable = disable
			sd := New(d, opts)
			m.Eng.Spawn("app", func(p *sim.Proc) {
				defer d.Close()
				defer sd.Stop()
				// Eight 1 MB regions against the 6 MB fast node, touched
				// round-robin: cold ones demote, the touched one promotes.
				const regionBytes = 1 << 20
				bases := make([]int64, 8)
				for i := range bases {
					b, err := d.AS.Mmap(p, regionBytes, hw.NodeSlow, fmt.Sprintf("r%d", i))
					if err != nil {
						t.Error(err)
						return
					}
					bases[i] = b
					sd.Register(b, regionBytes)
				}
				buf := make([]byte, 4096)
				for round := 0; round < 6; round++ {
					for _, b := range bases {
						if err := d.AS.Read(p, b, buf); err != nil {
							t.Error(err)
							return
						}
						sd.Touch(b, p.Now())
						p.SleepNS(1_000_000)
					}
				}
			})
			m.Eng.Run()
			ms := sd.Metrics()
			if ms.Promotions == 0 || ms.Demotions == 0 {
				t.Fatalf("scenario moved nothing both ways: %d promotions, %d demotions", ms.Promotions, ms.Demotions)
			}
			t.Logf("%d promotions (%d with lag), %d demotions", ms.Promotions, ms.PromotionLag.Count, ms.Demotions)
			if got, want := ms.Stages.Spans[lifecycle.SpanTotal].Count, ms.Promotions+ms.Demotions; got != want {
				t.Errorf("total spans = %d, promotions %d + demotions %d = %d", got, ms.Promotions, ms.Demotions, want)
			}
			if ms.Flight.Enabled == disable {
				t.Errorf("flight enabled = %v with Disable %v", ms.Flight.Enabled, disable)
			}
		})
	}
}
