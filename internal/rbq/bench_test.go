package rbq

// Contention benchmarks for the red-blue queue: a single Michael–Scott
// queue serializes all producers on one tail CAS, so splitting producers
// across independent queues on a shared slab should scale enqueue
// throughput with the queue count (until the slab's free stack becomes
// the shared point).

import (
	"fmt"
	"sync/atomic"
	"testing"
)

// BenchmarkMultiQueueContention measures enqueue+dequeue pairs with all
// producer goroutines hammering one queue versus spreading across 4 or
// 16 queues built on one shared slab.
func BenchmarkMultiQueueContention(b *testing.B) {
	for _, queues := range []int{1, 4, 16} {
		queues := queues
		b.Run(fmt.Sprintf("queues=%d", queues), func(b *testing.B) {
			s := NewSlab(1<<14 + queues + 8*queues)
			qs := make([]*Queue, queues)
			for i := range qs {
				qs[i] = s.NewQueue(Blue)
			}
			var tok atomic.Uint32
			b.RunParallel(func(pb *testing.PB) {
				q := qs[tok.Add(1)%uint32(queues)]
				for pb.Next() {
					if _, ok := q.Enqueue(7); ok {
						q.Dequeue()
					}
				}
			})
		})
	}
}

// BenchmarkSharedSlabAllocRelease isolates the slab free stack — the
// one structure queues on one slab still share — so queue-scaling
// regressions can be attributed to the right CAS loop.
func BenchmarkSharedSlabAllocRelease(b *testing.B) {
	s := NewSlab(1 << 14)
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			if n, ok := s.AllocNode(); ok {
				s.ReleaseNode(n)
			}
		}
	})
}
