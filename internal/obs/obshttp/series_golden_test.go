package obshttp

import (
	"bytes"
	"fmt"
	"os"
	"sort"
	"strings"
	"testing"
	"time"

	"memif/internal/qos"
	"memif/internal/realtime"
)

// TestRealtimeSeriesNamesGolden pins the realtime device's /metrics
// vocabulary: every metric family a live device with tenants and
// traffic in every class exposes, with its type and label keys, must
// match testdata/series.golden line for line. Dashboards and the
// benchmark re-derive numbers from these names, so a refactor of the
// stamping or stats internals must not rename, retype or drop one.
// Label values (tenant names, controller numbers) are left out: they follow
// the device's configuration, the keys do not.
func TestRealtimeSeriesNamesGolden(t *testing.T) {
	d := realtime.Open(realtime.Options{
		NumReqs: 32, Controllers: 2, ChunkBytes: 4 << 10,
		TraceFullCapture: true,
	})
	defer d.Close()
	var tenants []*realtime.Tenant
	for _, name := range []string{"alpha", "beta"} {
		tn, err := d.OpenTenant(realtime.TenantConfig{Name: name, Weight: 1, SlotQuota: 8})
		if err != nil {
			t.Fatal(err)
		}
		tenants = append(tenants, tn)
	}
	src := bytes.Repeat([]byte{5}, 16<<10) // four chunks: the ring path runs too
	n := 0
	for c := 0; c < qos.NumClasses; c++ {
		for _, submit := range []func(*realtime.Request) error{d.Submit, tenants[0].Submit, tenants[1].Submit} {
			r := d.AllocRequest()
			if r == nil {
				t.Fatal("out of request slots")
			}
			r.Src, r.Dst, r.Class = src, make([]byte, len(src)), qos.Class(c)
			if err := submit(r); err != nil {
				t.Fatal(err)
			}
			n++
		}
	}
	for done := 0; done < n; {
		if !d.Poll(time.Second) {
			t.Fatal("Poll timed out")
		}
		for got := d.RetrieveCompleted(); got != nil; got = d.RetrieveCompleted() {
			d.FreeRequest(got)
			done++
		}
	}

	h := NewHandler()
	h.Register(RealtimeCollector("dev0", d))
	seen := map[string]bool{}
	for _, m := range h.Gather() {
		keys := make([]string, len(m.Labels))
		for i, l := range m.Labels {
			keys[i] = l.Name
		}
		sort.Strings(keys)
		seen[fmt.Sprintf("%s %s {%s}", m.Name, m.Type, strings.Join(keys, ","))] = true
	}
	lines := make([]string, 0, len(seen))
	for l := range seen {
		lines = append(lines, l)
	}
	sort.Strings(lines)
	got := strings.Join(lines, "\n") + "\n"

	want, err := os.ReadFile("testdata/series.golden")
	if err != nil {
		t.Fatal(err)
	}
	if got == string(want) {
		return
	}
	wantSet := map[string]bool{}
	for _, l := range strings.Split(strings.TrimSpace(string(want)), "\n") {
		wantSet[l] = true
		if !seen[l] {
			t.Errorf("series dropped or changed: %s", l)
		}
	}
	for _, l := range lines {
		if !wantSet[l] {
			t.Errorf("series not in golden file: %s", l)
		}
	}
	t.Errorf("series set differs from testdata/series.golden; full set now:\n%s", got)
}
