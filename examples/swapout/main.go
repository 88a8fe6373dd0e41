// Swapout demonstrates the automatic fast-memory evictor built on memif
// (addressing the Section 6.7 limitation that the prototype "cannot
// automatically swap out fast memory").
//
// An application migrates working buffers into the 6 MB SRAM node as it
// touches them; a kswapd-style daemon watches the node fill up and
// migrates the coldest buffers back out — asynchronously, through its
// own memif device in proceed-and-recover mode, so a racing write simply
// aborts the eviction.
package main

import (
	"fmt"
	"log"

	"memif"
)

const (
	bufBytes = 1 << 20 // 1 MB working buffers
	numBufs  = 10      // 10 MB total vs 6 MB of fast memory
)

func main() {
	m := memif.NewMachine(memif.KeyStoneII())
	as := m.NewAddressSpace(memif.Page4K)
	dev := memif.Open(m, as, memif.DefaultOptions())
	sd := memif.NewSwapDaemon(dev, memif.DefaultSwapOptions())

	m.Eng.Spawn("app", func(p *memif.Proc) {
		defer dev.Close()
		defer sd.Stop()

		bases := make([]int64, numBufs)
		for i := range bases {
			b, err := as.Mmap(p, bufBytes, memif.NodeSlow, fmt.Sprintf("buf%d", i))
			if err != nil {
				log.Fatalf("mmap: %v", err)
			}
			bases[i] = b
		}
		promote := func(i int) {
			r := dev.AllocRequest(p)
			r.Op = memif.OpMigrate
			r.SrcBase, r.Length, r.DstNode = bases[i], bufBytes, memif.NodeFast
			if err := dev.Submit(p, r); err != nil {
				log.Fatalf("submit: %v", err)
			}
			for {
				if got := dev.RetrieveCompleted(p); got != nil {
					if got.Status != memif.StatusDone {
						// Fast node full and the daemon hasn't caught
						// up: keep working from slow memory this round.
						fmt.Printf("[%8v] promote buf%d deferred: %v (daemon catching up)\n", p.Now(), i, got.Err)
					}
					dev.FreeRequest(p, got)
					return
				}
				dev.Poll(p, 0)
			}
		}

		// Work through the buffers round-robin: promote on first touch,
		// then compute on each for a while. The set does not fit in
		// fast memory, so the daemon has to keep evicting behind us.
		for round := 0; round < 3; round++ {
			for i := 0; i < numBufs; i++ {
				f := as.FrameAt(bases[i])
				if f.Node != memif.NodeFast {
					promote(i)
				}
				sd.Register(bases[i], bufBytes)
				sd.Touch(bases[i], p.Now())
				// Compute on the buffer (100 µs + reads).
				if err := as.Touch(p, bases[i], false); err != nil {
					log.Fatalf("touch: %v", err)
				}
				p.Busy(100_000)
				p.SleepNS(2_000_000) // 2 ms between buffers: daemon periods pass
			}
			usedMB := float64(m.Mem.Used(memif.NodeFast)) / (1 << 20)
			fmt.Printf("[%8v] round %d done; fast node holds %.1f of 6 MB\n", p.Now(), round, usedMB)
		}
	})
	m.Eng.Run()

	st := sd.Stats()
	fmt.Printf("daemon: %d evictions (%d MB), %d aborted by racing use\n",
		st.Demotions, st.BytesDemoted>>20, st.Aborts)
	if st.Demotions == 0 {
		log.Fatal("expected the daemon to evict under pressure")
	}
}
