// Tenants shares one realtime device between two tenant namespaces.
// Each tenant gets its own admission quota and a deficit-round-robin
// weight, so a device owner can hand out handles instead of devices:
// "gold" (weight 3) and "bronze" (weight 1) both keep their quota full
// of background copies, and under backlog the scheduler serves them
// roughly 3:1. At the end bronze cancels its in-flight requests as a
// group — gold's requests are untouched, demonstrating that a noisy
// (or misbehaving) tenant is contained by its namespace.
package main

import (
	"errors"
	"fmt"
	"log"
	"time"

	"memif"
)

const payloadBytes = 256 << 10

func main() {
	opts := memif.DefaultRealtimeOptions()
	opts.NumReqs = 64
	// Weighted sharing is a property of the scheduler's standing
	// backlog: each 256 KB request becomes 16 chunks against a single
	// 64-slot controller ring, so the queue the DRR weights arbitrate
	// never runs dry while both tenants hold their quota.
	opts.Controllers = 1
	opts.ChunkBytes = 16 << 10
	dev := memif.OpenRealtime(opts)
	defer dev.Close()

	gold, err := dev.OpenTenant(memif.RealtimeTenantConfig{Name: "gold", Weight: 3, SlotQuota: 24})
	if err != nil {
		log.Fatalf("open gold: %v", err)
	}
	bronze, err := dev.OpenTenant(memif.RealtimeTenantConfig{Name: "bronze", Weight: 1, SlotQuota: 24})
	if err != nil {
		log.Fatalf("open bronze: %v", err)
	}
	tenants := []*memif.RealtimeTenant{gold, bronze}

	src := make([]byte, payloadBytes)
	for i := range src {
		src[i] = byte(i)
	}
	dst := [2][]byte{make([]byte, payloadBytes), make([]byte, payloadBytes)}

	// Keep both tenants at their slot quota for a while. The payloads
	// are large enough to be chunked through the chunk ring, so a
	// standing backlog forms and the per-tenant weights decide who is
	// served. The request cookie carries the tenant index so retrieved
	// completions can be freed without caring whose they were.
	topUp := func() {
		for ti, t := range tenants {
			st := t.Stats()
			for inFlight := st.InFlight; inFlight < 24; inFlight++ {
				r := dev.AllocRequest()
				if r == nil {
					return // slab exhausted; drain first
				}
				r.Class = memif.Background
				r.Src, r.Dst = src, dst[ti]
				r.Cookie = uint64(ti)
				if err := t.Submit(r); err != nil {
					dev.FreeRequest(r)
					break // this tenant's quota or admission said no
				}
			}
		}
	}

	deadline := time.Now().Add(300 * time.Millisecond)
	for time.Now().Before(deadline) {
		topUp()
		dev.Poll(time.Millisecond)
		for {
			r := dev.RetrieveCompleted()
			if r == nil {
				break
			}
			dev.FreeRequest(r)
		}
	}

	gs, bs := gold.Stats(), bronze.Stats()
	total := gs.Completed + bs.Completed
	fmt.Printf("weighted sharing over %d completions:\n", total)
	fmt.Printf("  %-6s weight 3: %5d ops (%.2f of device)\n", gs.Name, gs.Completed, float64(gs.Completed)/float64(total))
	fmt.Printf("  %-6s weight 1: %5d ops (%.2f of device)\n", bs.Name, bs.Completed, float64(bs.Completed)/float64(total))

	// Bronze misbehaves; its namespace absorbs the blast. CancelAll
	// revokes only bronze's in-flight requests — gold's complete
	// normally and bronze's surface with ErrCanceled.
	topUp()
	canceled := bronze.CancelAll()
	var goldOK, bronzeCanceled int
	for drained := false; !drained; {
		for {
			r := dev.RetrieveCompleted()
			if r == nil {
				break
			}
			switch {
			case r.Err == nil && r.Cookie == 0:
				goldOK++
			case errors.Is(r.Err, memif.ErrCanceled) && r.Cookie == 1:
				bronzeCanceled++
			case r.Err != nil && !errors.Is(r.Err, memif.ErrCanceled):
				log.Fatalf("unexpected completion error: %v", r.Err)
			}
			dev.FreeRequest(r)
		}
		gs, bs = gold.Stats(), bronze.Stats()
		if gs.InFlight == 0 && bs.InFlight == 0 {
			drained = true
		} else {
			dev.Poll(time.Millisecond)
		}
	}
	fmt.Printf("bronze canceled %d in-flight; drain saw %d gold completions, %d bronze cancellations\n",
		canceled, goldOK, bronzeCanceled)
	fmt.Printf("device totals: %d completed, %d canceled, 0 cross-tenant casualties\n",
		dev.Stats().Completed, dev.Stats().Canceled)
}
