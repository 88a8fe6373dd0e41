package check

import (
	"fmt"
	"strings"
	"testing"
)

// schedTrial runs three threads that interleave appends to a shared log
// (safe: the scheduler serializes execution) and returns the log plus
// the schedule trace.
func schedTrial(t *testing.T, seed int64, cfg *SchedConfig) (string, []int) {
	t.Helper()
	var s *Sched
	if cfg != nil {
		s = NewSchedConfig(seed, *cfg)
	} else {
		s = NewSched(seed)
	}
	var log strings.Builder
	for i := 0; i < 3; i++ {
		i := i
		s.Go(func(th *Thread) {
			for j := 0; j < 5; j++ {
				log.WriteByte(byte('a' + i))
				th.Yield()
			}
		})
	}
	if err := s.Run(); err != nil {
		t.Fatalf("seed %d: %v", seed, err)
	}
	return log.String(), s.Trace()
}

func TestSchedSameSeedSameSchedule(t *testing.T) {
	for _, seed := range []int64{1, 2, 42, 12345} {
		log1, trace1 := schedTrial(t, seed, nil)
		log2, trace2 := schedTrial(t, seed, nil)
		if log1 != log2 {
			t.Fatalf("seed %d: logs diverge: %q vs %q", seed, log1, log2)
		}
		if len(trace1) != len(trace2) {
			t.Fatalf("seed %d: trace lengths diverge", seed)
		}
		for i := range trace1 {
			if trace1[i] != trace2[i] {
				t.Fatalf("seed %d: traces diverge at step %d", seed, i)
			}
		}
	}
}

func TestSchedSeedsExploreDistinctSchedules(t *testing.T) {
	seen := map[string]bool{}
	for seed := int64(1); seed <= 20; seed++ {
		log, _ := schedTrial(t, seed, nil)
		seen[log] = true
	}
	if len(seen) < 2 {
		t.Fatalf("20 seeds produced only %d distinct interleavings", len(seen))
	}
}

func TestSchedBoundedPreemptionRunsToCompletion(t *testing.T) {
	cfg := SchedConfig{MaxPreemptions: 3}
	for seed := int64(1); seed <= 10; seed++ {
		log, _ := schedTrial(t, seed, &cfg)
		if len(log) != 15 {
			t.Fatalf("seed %d: log %q, want 15 steps", seed, log)
		}
	}
}

func TestSchedStepBudgetReportsSeed(t *testing.T) {
	s := NewSchedConfig(7, SchedConfig{MaxPreemptions: -1, MaxSteps: 100})
	s.Go(func(th *Thread) {
		for {
			th.Yield() // never terminates: the budget must trip
		}
	})
	err := s.Run()
	if err == nil {
		t.Fatal("livelocked run returned nil")
	}
	if !strings.Contains(err.Error(), "seed=7") {
		t.Fatalf("budget error does not name the seed: %v", err)
	}
}

func TestSchedThreadPanicReportsSeed(t *testing.T) {
	s := NewSched(11)
	s.Go(func(th *Thread) {
		th.Yield()
		panic("invariant violated")
	})
	s.Go(func(th *Thread) {
		for i := 0; i < 100; i++ {
			th.Yield() // abandoned when the sibling fails
		}
	})
	err := s.Run()
	if err == nil {
		t.Fatal("panicking thread returned nil")
	}
	if !strings.Contains(err.Error(), "seed=11") || !strings.Contains(err.Error(), "invariant violated") {
		t.Fatalf("error missing seed or panic value: %v", err)
	}
}

// TestExploreBoundedEnumeratesEachScheduleOnce runs two threads of four
// segments (three preemption points each) under every preemption bound
// and checks the search against a brute-force count of the interleavings
// within the bound, each visited exactly once.
func TestExploreBoundedEnumeratesEachScheduleOnce(t *testing.T) {
	const segs = 4
	for bound := 0; bound <= 3; bound++ {
		want := 0
		for m := 0; m < 1<<(2*segs); m++ { // bit i: thread of segment i
			run, preempts, ones := [2]int{}, 0, 0
			for i := 0; i < 2*segs; i++ {
				th := m >> i & 1
				ones += th
				if i > 0 && th != m>>(i-1)&1 && run[1-th] < segs {
					preempts++
				}
				run[th]++
			}
			if ones == segs && preempts <= bound {
				want++
			}
		}
		seen := map[string]bool{}
		n, err := ExploreBounded(bound, func(s *Sched) error {
			hook := s.YieldHook()
			for i := 0; i < 2; i++ {
				s.Go(func(*Thread) {
					for j := 1; j < segs; j++ {
						hook()
					}
				})
			}
			err := s.Run()
			seen[fmt.Sprint(s.Trace())] = true
			return err
		})
		if err != nil {
			t.Fatal(err)
		}
		if n != want || len(seen) != want {
			t.Errorf("bound %d: %d runs, %d distinct schedules, want %d", bound, n, len(seen), want)
		}
	}
}

func TestYieldHookNoopOutsideRun(t *testing.T) {
	s := NewSched(1)
	hook := s.YieldHook()
	hook() // must not deadlock or panic before Run
	s.Go(func(th *Thread) { th.Yield() })
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	hook() // and not after either
}
