package bench

import (
	"testing"

	"memif/internal/hw"
)

// TestBusyProcessesWithinCores is the busy audit of the paper shapes: the
// simulator does not stop more processes computing at once than the board
// has cores (sim.Engine.BusyTime), so this test holds Fig 6/7/8, Table 4,
// the ablations and the ledger's sim_move shape to hw.KeyStoneII().Cores.
// A change that buys its speed with a fifth CPU fails here. The
// beyond-the-paper multi-app line and the ledger's sim_streams shape are
// reported, not gated: they model more application threads than cores.
func TestBusyProcessesWithinCores(t *testing.T) {
	cores := hw.KeyStoneII().Cores
	gated := []string{"fig7", "table4", "ablate"}
	if !testing.Short() {
		fig6Run()
		fig8Run()
		gated = append(gated, "fig6", "fig8")
	}
	fig7Run()
	table4Run()
	ablateRun()
	for _, r := range ledgerRun() {
		if r.Metric == "sim.busy_procs_max" || r.Metric == "sim.over_cores_frac" {
			t.Logf("ledger %s %s %v", r.Shape, r.Metric, r.Value)
		}
		if r.Shape == "sim_move" && r.Metric == "sim.busy_procs_max" && r.Value > float64(cores) {
			t.Errorf("ledger sim_move: %v processes busy at once, the board has %d cores", r.Value, cores)
		}
	}
	for _, name := range gated {
		a := audits[name]
		t.Logf("%s: at most %d processes busy, %v of %v above %d", name, a.maxBusy, a.over, a.total, cores)
		if a.maxBusy > cores {
			t.Errorf("%s: %d processes busy at once, the board has %d cores", name, a.maxBusy, cores)
		}
	}
	audit = &coreAudit{}
	defer func() { audit = nil }()
	MultiApp(2, hw.Page4K, 16)
	t.Logf("extra multiapp 4KB x16 (not gated): at most %d processes busy, %v of %v above %d",
		audit.maxBusy, audit.over, audit.total, cores)
}
