package bench

import (
	"fmt"
	"os"
	"strings"
	"testing"

	"memif/internal/stats"
)

// TestFig6Golden pins all 63 Figure 6 cells (3 systems x 3 page sizes x
// 7 request sizes) to the nanosecond: latency, CPU time and every Table 1
// phase. A Fig 6 cell has one request outstanding, so nothing the worker
// does to overlap neighbouring requests may move it. testdata/fig6.golden
// was generated at the commit before the worker's polled path became a
// pipeline; a diff here means the single-outstanding timeline changed.
func TestFig6Golden(t *testing.T) {
	if testing.Short() {
		t.Skip("full sweep in long mode only")
	}
	var b strings.Builder
	for _, r := range Fig6Sweep() {
		fmt.Fprintf(&b, "%s page=%d pages=%d elapsed=%d cpu=%d",
			r.System, r.PageBytes, r.Pages, int64(r.Elapsed), int64(r.CPUBusy))
		for _, ph := range stats.AllPhases {
			fmt.Fprintf(&b, " %s=%d", ph, int64(r.Breakdown.Get(ph)))
		}
		b.WriteByte('\n')
	}
	got := b.String()
	want, err := os.ReadFile("testdata/fig6.golden")
	if err != nil {
		t.Fatal(err)
	}
	if got == string(want) {
		return
	}
	gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
	if len(gl) != len(wl) {
		t.Fatalf("fig6 has %d lines, golden %d", len(gl), len(wl))
	}
	for i := range gl {
		if gl[i] != wl[i] {
			t.Errorf("cell moved:\n got  %s\n want %s", gl[i], wl[i])
		}
	}
}
