package realtime

import (
	"fmt"
	"testing"
	"time"

	"memif/internal/obs/lifecycle"
)

// With every request sampled, each retrieved request is handed to the
// device's recorder once and attributed to exactly one tenant row: the
// tenant rows' total-span counts sum to the global count, which equals
// Lifecycle.Ended and the requests retrieved — with the outlier half
// armed and with Flight.Disable, through both retrieval calls.
func TestSpanConservation(t *testing.T) {
	for _, disable := range []bool{false, true} {
		t.Run(fmt.Sprintf("disable=%v", disable), func(t *testing.T) {
			d := Open(Options{NumReqs: 64, TraceFullCapture: true, Flight: lifecycle.FlightOptions{Disable: disable}})
			defer d.Close()
			submit := []func(*Request) error{d.Submit}
			for _, name := range []string{"a", "b"} {
				ten, err := d.OpenTenant(TenantConfig{Name: name, SlotQuota: 16})
				if err != nil {
					t.Fatal(err)
				}
				submit = append(submit, ten.Submit)
			}
			retrieved := 0
			buf := make([]*Request, 8)
			for round := 0; round < 4; round++ {
				n := 0
				for i := 0; i < 12; i++ {
					r := d.AllocRequest()
					r.Src, r.Dst = make([]byte, 4096<<(i%3)), make([]byte, 4096<<(i%3))
					if err := submit[i%len(submit)](r); err != nil {
						t.Fatal(err)
					}
					n++
				}
				deadline := time.Now().Add(5 * time.Second)
				for got := 0; got < n; {
					var k int
					if round%2 == 0 {
						k = d.RetrieveCompletedBatch(buf)
					} else if r := d.RetrieveCompleted(); r != nil {
						buf[0], k = r, 1
					}
					for _, r := range buf[:k] {
						if r.Err != nil {
							t.Fatalf("request failed: %v", r.Err)
						}
						d.FreeRequest(r)
					}
					got += k
					if k == 0 {
						if time.Now().After(deadline) {
							t.Fatalf("round %d: retrieved %d of %d", round, got, n)
						}
						d.Poll(10 * time.Millisecond)
					}
				}
				retrieved += n
			}
			st := d.Stats()
			var tenants int64
			for _, ts := range st.Tenants {
				if ts.Spans.Spans[lifecycle.SpanTotal].Count == 0 {
					t.Errorf("tenant %s has no spans", ts.Name)
				}
				tenants += ts.Spans.Spans[lifecycle.SpanTotal].Count
			}
			global := st.Lifecycle.Spans.Spans[lifecycle.SpanTotal].Count
			if tenants != global || global != st.Lifecycle.Ended || global != int64(retrieved) {
				t.Errorf("total spans: tenant rows %d, global %d, ended %d, retrieved %d",
					tenants, global, st.Lifecycle.Ended, retrieved)
			}
		})
	}
}
