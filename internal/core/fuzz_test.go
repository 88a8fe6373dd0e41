package core

import (
	"flag"
	"fmt"
	"math/rand"
	"testing"
	"time"

	"memif/internal/hw"
	"memif/internal/machine"
	"memif/internal/pagetable"
	"memif/internal/sim"
	"memif/internal/uapi"
)

// Randomized end-to-end workout: a pseudo-random mix of replications,
// migrations (valid and invalid), touches, polls, and frees. Afterwards
// every invariant the driver promises must hold (auditQuiesced).
func TestDriverRandomWorkout(t *testing.T) {
	for _, seed := range []int64{1, 7, 42, 1234, 987654} {
		seed := seed
		t.Run("", func(t *testing.T) {
			mode := RaceDetect
			if seed%2 == 0 {
				mode = RaceRecover
			}
			runWorkout(t, workout{seed: seed, mode: mode, burst: 1})
		})
	}
}

// Yield-window exploration for the worker's polled pipeline: the workout
// under every race policy with requests submitted in back-to-back bursts,
// so the worker always finds the next request queued while a transfer is
// in flight and the pipeline runs two deep (asserted through
// Stats.Overlapped). The application's writes land at arbitrary points of
// the overlapped Prep/Remap/DMAcfg/Release windows. Odd seeds cut every
// request into four polled batches. -short keeps 8 of the 64 seeds (the
// race detector makes every virtual-time yield ~25x dearer).
func TestPipelineSweep(t *testing.T) {
	seeds := make([]int64, 64)
	if testing.Short() {
		seeds = seeds[:8]
	}
	for i := range seeds {
		seeds[i] = int64(i + 1)
	}
	if *sweepSeed != 0 {
		seeds = []int64{*sweepSeed}
	}
	sweepSeeds(t, seeds)
}

// TestPipelineSweepRandom runs the same sweep over fresh seeds for the
// duration given by -sweep (CI's check job); a failure names its seed,
// and -sweepseed replays it through TestPipelineSweep.
func TestPipelineSweepRandom(t *testing.T) {
	if *sweepFor <= 0 {
		t.Skip("random-seed sweep runs with -sweep=<duration>")
	}
	seed := time.Now().UnixNano()
	for end := time.Now().Add(*sweepFor); time.Now().Before(end) && !t.Failed(); seed++ {
		sweepSeeds(t, []int64{seed})
	}
}

var (
	sweepFor  = flag.Duration("sweep", 0, "run TestPipelineSweepRandom over fresh seeds for this long")
	sweepSeed = flag.Int64("sweepseed", 0, "run TestPipelineSweep on this one seed")
)

func sweepSeeds(t *testing.T, seeds []int64) {
	for _, seed := range seeds {
		for _, mode := range raceModes {
			w := workout{seed: seed, mode: mode, burst: 4}
			if seed%2 == 1 {
				w.maxChain = 4
			}
			t.Run(fmt.Sprintf("seed=%d/%v", seed, mode), func(t *testing.T) {
				st := runWorkout(t, w)
				if st.Overlapped == 0 {
					t.Errorf("pipeline never ran two deep: %+v", st)
				}
			})
		}
	}
}

// workout parameterizes runWorkout.
type workout struct {
	seed     int64
	mode     RaceMode
	burst    int // requests submitted back-to-back per submit op
	maxChain int // Device.maxChain; 0 keeps the default
}

const (
	workoutRegions     = 12
	workoutRegionPages = 16
	workoutRegionBytes = workoutRegionPages * 4096
)

func runWorkout(t *testing.T, w workout) Stats {
	rng := rand.New(rand.NewSource(w.seed))
	m := machine.New(hw.KeyStoneII())
	as := m.NewAddressSpace(4096)
	opts := DefaultOptions()
	opts.NumReqs = 64
	opts.RaceMode = w.mode
	d := Open(m, as, opts)
	if w.maxChain > 0 {
		d.maxChain = w.maxChain
	}
	// However the classes and the chain cap cut a request (odd sweep seeds:
	// four sub-transfers each), at most pipeDepth of them share the channel.
	d.subStarted = func(inf *inflight) {
		if n := onChannel(inf); n > pipeDepth {
			t.Errorf("seed %d: %d sub-transfers of %v on the channel", w.seed, n, inf.req)
		}
	}

	const ops = 300
	m.Eng.Spawn("app", func(p *sim.Proc) {
		defer d.Close()
		regions := make([]int64, workoutRegions)
		for i := range regions {
			b, err := as.Mmap(p, workoutRegionBytes, hw.NodeSlow, "r")
			if err != nil {
				t.Fatal(err)
			}
			regions[i] = b
		}

		outstanding := 0
		drain := func(block bool) {
			for {
				r := d.RetrieveCompleted(p)
				if r == nil {
					if !block || outstanding == 0 {
						return
					}
					if !d.Poll(p, 100_000_000) {
						st := d.Stats()
						t.Fatalf("poll gave up with %d outstanding; stats=%+v staging[len=%d color=%v] submission[len=%d]",
							outstanding, st, d.Area.Staging.Len(), d.Area.Staging.Color(), d.Area.Submission.Len())
					}
					continue
				}
				if r.Status != uapi.StatusDone && r.Status != uapi.StatusFailed {
					t.Fatalf("retrieved request in state %v", r.Status)
				}
				d.FreeRequest(p, r)
				outstanding--
			}
		}
		// submit issues w.burst requests built by fill, back to back.
		submit := func(fill func(r *uapi.MovReq)) {
			for i := 0; i < w.burst; i++ {
				r := d.AllocRequest(p)
				if r == nil {
					drain(true)
					return
				}
				fill(r)
				if w.burst > 1 {
					r.Class = uapi.Class(rng.Intn(3))
				}
				if err := d.Submit(p, r); err != nil {
					t.Fatalf("submit: %v", err)
				}
				outstanding++
			}
		}

		for op := 0; op < ops; op++ {
			switch rng.Intn(10) {
			case 0, 1, 2: // migrate a random region to a random node
				submit(func(r *uapi.MovReq) {
					r.Op = uapi.OpMigrate
					r.SrcBase = regions[rng.Intn(workoutRegions)]
					r.Length = workoutRegionBytes
					r.DstNode = hw.NodeID(rng.Intn(2))
				})
			case 3, 4: // replicate between two random regions
				submit(func(r *uapi.MovReq) {
					r.Op = uapi.OpReplicate
					r.SrcBase = regions[rng.Intn(workoutRegions)]
					r.DstBase = regions[rng.Intn(workoutRegions)]
					r.Length = workoutRegionBytes
				})
			case 5: // submit something invalid
				submit(func(r *uapi.MovReq) {
					r.Op = uapi.OpMigrate
					r.SrcBase = 0x100 // unmapped
					r.Length = workoutRegionBytes
					r.DstNode = hw.NodeFast
				})
			case 6, 7: // touch random pages (provokes races/recovers)
				base := regions[rng.Intn(workoutRegions)]
				addr := base + int64(rng.Intn(workoutRegionPages))*4096
				if err := as.Write(p, addr, []byte{byte(op)}); err != nil {
					t.Fatalf("write: %v", err)
				}
			case 8: // let time pass
				p.SleepNS(int64(rng.Intn(200_000)))
			case 9: // drain whatever is ready
				drain(false)
			}
		}
		drain(true)
		auditQuiesced(t, d, p, regions, workoutRegionBytes)
	})
	end := m.Eng.Run()
	if end <= 0 {
		t.Fatal("simulation did not advance")
	}
	if m.Eng.Parked() != 0 {
		t.Errorf("seed %d: %d processes leaked", w.seed, m.Eng.Parked())
	}
	return d.Stats()
}

// auditQuiesced asserts what the driver promises once every request has
// been retrieved and freed:
//
//   - every submitted request completed (done or failed),
//   - all mov_req slots are back on the free list and no index vanished,
//   - no transfer is left in the worker's pipeline,
//   - no page is left with a transient PTE flag (migration/recover),
//   - physical memory accounting balances: regions — all the address
//     space maps — are backed by exactly one frame per page, wherever it
//     lives now, and nothing else is allocated (no leaked frames).
func auditQuiesced(t *testing.T, d *Device, p *sim.Proc, regions []int64, regionBytes int64) {
	t.Helper()
	as := d.AS
	st := d.Stats()
	if st.Submitted != st.Completed+st.Failed {
		t.Errorf("submitted %d != completed %d + failed %d", st.Submitted, st.Completed, st.Failed)
	}
	// Conservation ("no index may ever vanish"): every mov_req index must
	// be in exactly one place — the free list. Shared with the uapi
	// invariant tests.
	if err := d.Area.Audit(nil); err != nil {
		t.Error(err)
	}
	var free []*uapi.MovReq
	for r := d.AllocRequest(p); r != nil; r = d.AllocRequest(p) {
		free = append(free, r)
	}
	if len(free) != d.opts.NumReqs {
		t.Errorf("free slots = %d, want %d", len(free), d.opts.NumReqs)
	}
	for _, r := range free {
		d.FreeRequest(p, r)
	}
	if len(d.pipe) != 0 {
		t.Errorf("%d transfers left in the worker pipeline", len(d.pipe))
	}
	for _, r := range d.pipe[:cap(d.pipe)] {
		if r.inf != nil {
			t.Error("a reaped pipeline slot still holds its record")
		}
	}
	var backed int64
	for _, base := range regions {
		for off := int64(0); off < regionBytes; off += as.PageBytes {
			f := as.FrameAt(base + off)
			if f == nil {
				t.Fatalf("region page %#x lost its mapping", base+off)
			}
			backed += f.Size
			slot, _ := as.Table.Lookup(as.VPN(base + off))
			if pte := slot.Load(); pte.Has(pagetable.FlagMigration) || pte.Has(pagetable.FlagRecover) {
				t.Fatalf("transient PTE flag left on %#x: %v", base+off, pte)
			}
		}
	}
	total := as.Mem.Used(hw.NodeSlow) + as.Mem.Used(hw.NodeFast)
	if total != backed {
		t.Errorf("physical accounting off: used %d, backed %d (leak of %d)",
			total, backed, total-backed)
	}
}

// Multiple application threads hammering one device concurrently: the
// paper's claim that the lock-free interface admits any access pattern
// without data races (Section 3), here exercised with simulated threads
// in one address space.
func TestMultiThreadSubmitters(t *testing.T) {
	m := machine.New(hw.KeyStoneII())
	as := m.NewAddressSpace(4096)
	d := Open(m, as, DefaultOptions())

	const (
		threads   = 6
		perThread = 30
		regionB   = 8 * 4096
	)
	doneCount := 0
	retrievers := 0
	for th := 0; th < threads; th++ {
		th := th
		m.Eng.Spawn("thread", func(p *sim.Proc) {
			base, err := as.Mmap(p, perThread*regionB, hw.NodeSlow, "w")
			if err != nil {
				t.Error(err)
				return
			}
			for i := 0; i < perThread; i++ {
				var r *uapi.MovReq
				for {
					if r = d.AllocRequest(p); r != nil {
						break
					}
					p.SleepNS(50_000)
				}
				r.Op = uapi.OpMigrate
				r.SrcBase = base + int64(i)*regionB
				r.Length = regionB
				r.DstNode = hw.NodeID(i % 2)
				r.Cookie = uint64(th)
				if err := d.Submit(p, r); err != nil {
					t.Errorf("thread %d: %v", th, err)
					return
				}
				p.SleepNS(int64(th+1) * 10_000)
			}
			// Each thread also retrieves (any thread may see any
			// completion — the queues are shared).
			for {
				if got := d.RetrieveCompleted(p); got != nil {
					if got.Status != uapi.StatusDone {
						t.Errorf("move failed: %v", got)
					}
					d.FreeRequest(p, got)
					doneCount++
					continue
				}
				if doneCount >= threads*perThread {
					break
				}
				if !d.Poll(p, 500_000_000) {
					break
				}
			}
			retrievers++
			if retrievers == threads {
				d.Close()
			}
		})
	}
	m.Eng.Run()
	if doneCount != threads*perThread {
		t.Errorf("completions = %d, want %d", doneCount, threads*perThread)
	}
	st := d.Stats()
	if st.Syscalls >= st.Submitted/2 {
		t.Errorf("syscalls = %d for %d submissions: amortization broken", st.Syscalls, st.Submitted)
	}
}
