package streamrt

import (
	"fmt"
	"testing"

	"memif/internal/hw"
	"memif/internal/obs/lifecycle"
	"memif/internal/sim"
	"memif/internal/uapi"
	"memif/internal/workloads"
)

// Every fill that completes OK is handed to the engine's recorder once
// and sampled on its stream's row: once all fills are done, each
// stream's total-span count equals its successful fills — with the
// outlier half armed and with Flight.Disable, which turns off only the
// outliers.
func TestSpanConservation(t *testing.T) {
	for _, disable := range []bool{false, true} {
		t.Run(fmt.Sprintf("disable=%v", disable), func(t *testing.T) {
			m, d := setup()
			var streams []*Stream
			m.Eng.Spawn("app", func(p *sim.Proc) {
				defer d.Close()
				opts := DefaultEngineOptions()
				opts.Flight.Disable = disable
				e, err := OpenEngine(p, d, opts)
				if err != nil {
					t.Error(err)
					return
				}
				length := int64(12) * opts.BufBytes
				done := 0
				for i, k := range []workloads.Kernel{workloads.Triad, workloads.Add} {
					base, err := d.AS.Mmap(p, length, hw.NodeSlow, fmt.Sprintf("in%d", i))
					if err != nil {
						t.Error(err)
						return
					}
					if _, err := workloads.FillInput(p, d.AS, base, length, uint64(i)+1); err != nil {
						t.Error(err)
						return
					}
					s, err := e.OpenStream(p, StreamSpec{
						Kernel: k, Base: base, Length: length,
						Class: uapi.ClassBackground, Credits: 3, Name: k.Name,
					})
					if err != nil {
						t.Error(err)
						return
					}
					streams = append(streams, s)
					m.Eng.Spawn(k.Name, func(cp *sim.Proc) {
						if _, err := s.Run(cp); err != nil {
							t.Errorf("stream %s: %v", k.Name, err)
						}
						done++
					})
				}
				for done < len(streams) {
					p.SleepNS(500_000)
				}
				e.Close(p)
			})
			m.Eng.Run()
			if len(streams) != 2 {
				t.Fatalf("%d streams ran, want 2", len(streams))
			}
			for _, s := range streams {
				st := s.Stats()
				ok := st.Fills - st.FillFailures
				if ok == 0 {
					t.Fatalf("stream %s completed no fills", st.Name)
				}
				if got := st.Stages.Spans[lifecycle.SpanTotal].Count; got != ok {
					t.Errorf("stream %s: total spans = %d, fills completed OK = %d", st.Name, got, ok)
				}
			}
		})
	}
}
