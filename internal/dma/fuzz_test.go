package dma

import (
	"math/rand"
	"testing"

	"memif/internal/hw"
	"memif/internal/sim"
)

// Randomized engine workout: interleave programming (reuse on/off, mixed
// sizes), starts (IRQ and polled), and aborts. After every operation free,
// remembered and busy descriptor slots cover the array; afterwards no slot
// stays busy, no frame stays pinned, every non-aborted transfer copied its
// bytes, and byte/transfer counters balance.
func TestEngineRandomWorkout(t *testing.T) {
	for _, seed := range []int64{2, 11, 404} {
		seed := seed
		t.Run("", func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			r := newRig()
			sizes := []int64{4096, 16384, 65536}

			type rec struct {
				tr      *Transfer
				segs    []Segment
				seed    byte
				aborted bool
			}
			var all []*rec
			var trs []*Transfer
			r.eng.Spawn("drv", func(p *sim.Proc) {
				live := []*rec{}
				for op := 0; op < 120; op++ {
					r.checkSlotLedger(t, "mid-workout", trs...)
					switch rng.Intn(4) {
					case 0, 1: // program + start a transfer
						n := 1 + rng.Intn(8)
						size := sizes[rng.Intn(len(sizes))]
						segs := make([]Segment, n)
						seedB := byte(op + 1)
						for i := range segs {
							src, err := r.mem.Alloc(hw.NodeSlow, size)
							if err != nil {
								t.Fatal(err)
							}
							dst, err := r.mem.Alloc(hw.NodeSlow, size)
							if err != nil {
								t.Fatal(err)
							}
							data := src.MutableBytes()
							for j := range data {
								data[j] = seedB
							}
							segs[i] = Segment{Src: src, Dst: dst, Bytes: size}
						}
						tr, err := r.dma.Program(p, rng.Intn(2) == 0, segs)
						if err != nil {
							t.Fatalf("program: %v", err)
						}
						rc := &rec{tr: tr, segs: segs, seed: seedB}
						r.dma.Start(tr, rng.Intn(2) == 0, nil)
						live = append(live, rc)
						all = append(all, rc)
						trs = append(trs, tr)
					case 2: // abort something in flight
						if len(live) > 0 {
							i := rng.Intn(len(live))
							if live[i].tr.State() == StateQueued || live[i].tr.State() == StateActive {
								r.dma.Abort(live[i].tr)
								live[i].aborted = true
							}
						}
					case 3: // wait one out
						if len(live) > 0 {
							p.WaitEvent(live[0].tr.Done)
							live = live[1:]
						} else {
							p.SleepNS(int64(rng.Intn(10_000)))
						}
					}
				}
				for _, rc := range live {
					p.WaitEvent(rc.tr.Done)
				}
			})
			r.eng.Run()

			var wantBytes int64
			var wantTransfers int64
			for _, rc := range all {
				for _, s := range rc.segs {
					if s.Src.Pinned() || s.Dst.Pinned() {
						t.Fatalf("frame still pinned after drain")
					}
					copied := s.Dst.Bytes()[0] == rc.seed
					if rc.tr.State() == StateDone && !copied {
						t.Fatalf("completed transfer did not copy")
					}
					if rc.tr.State() == StateAborted && copied {
						t.Fatalf("aborted transfer copied bytes")
					}
				}
				if rc.tr.State() == StateDone {
					wantTransfers++
					wantBytes += rc.tr.Bytes()
				}
			}
			st := r.dma.Stats()
			if st.Transfers != wantTransfers || st.BytesMoved != wantBytes {
				t.Errorf("stats = %+v, want %d transfers / %d bytes", st, wantTransfers, wantBytes)
			}
			r.checkSlotLedger(t, "drained", trs...)
			if _, busy := r.heldSlots(trs...); busy != 0 {
				t.Errorf("%d descriptor slots still held after the drain", busy)
			}
		})
	}
}
