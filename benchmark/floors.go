package main

import (
	"time"

	"memif/internal/rbq"
)

// measureFloors reports the host floors a layer metric is read
// against: single-thread copy bandwidth over buffers above the cache,
// one goroutine park/wake round trip, one uncontended queue round
// trip. A change in any of them means the host changed, not the
// program. pool is the workload's own large pool when it has one, so
// rt_large's floor is taken over the memory rt_large copies.
func measureFloors(res *result, pool *rtPool, small bool) error {
	if pool == nil {
		bufs := 256
		if small {
			bufs = 16
		}
		mem, err := mapAnon(2 * bufs << 20)
		if err != nil {
			return err
		}
		defer unmap(mem)
		pool = &rtPool{size: 1 << 20}
		for i := 0; i < 2*bufs; i++ {
			b := mem[i<<20 : (i+1)<<20]
			clear(b) // pre-fault
			if i < bufs {
				pool.src = append(pool.src, b)
			} else {
				pool.dst = append(pool.dst, b)
			}
		}
	}
	res.layer["floor.memmove_gb_s"] = memmoveFloor(pool)
	res.layer["floor.park_wake_ns"] = parkWakeFloor(small)
	res.layer["rbq.roundtrip_ns"] = rbqFloor(small)
	return nil
}

// memmoveFloor copies the whole pool, source i to destination i, three
// times on the calling goroutine and returns the best pass in GB/s.
func memmoveFloor(p *rtPool) float64 {
	best := 0.0
	for pass := 0; pass < 3; pass++ {
		t0 := time.Now()
		for i := range p.src {
			copy(p.dst[i], p.src[i])
		}
		if gbs := float64(len(p.src)*p.size) / time.Since(t0).Seconds() / 1e9; gbs > best {
			best = gbs
		}
	}
	return best
}

// parkWakeFloor is half a channel ping-pong between two goroutines:
// what it costs to park one goroutine and wake another.
func parkWakeFloor(small bool) float64 {
	n := 200_000
	if small {
		n = 2_000
	}
	ping, pong := make(chan struct{}), make(chan struct{})
	go func() {
		for range ping {
			pong <- struct{}{}
		}
	}()
	t0 := time.Now()
	for i := 0; i < n; i++ {
		ping <- struct{}{}
		<-pong
	}
	el := time.Since(t0)
	close(ping)
	return float64(el.Nanoseconds()) / float64(2*n)
}

// rbqFloor is one uncontended enqueue plus dequeue on the red-blue
// queue every memif interface is built from.
func rbqFloor(small bool) float64 {
	n := 2_000_000
	if small {
		n = 20_000
	}
	q := rbq.NewSlab(16).NewQueue(rbq.Blue)
	t0 := time.Now()
	for i := 0; i < n; i++ {
		q.Enqueue(uint32(i & 7))
		q.Dequeue()
	}
	return float64(time.Since(t0).Nanoseconds()) / float64(n)
}
