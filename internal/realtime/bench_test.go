package realtime

import (
	"fmt"
	"runtime"
	"sync"
	"testing"
	"time"
)

// benchCopy measures end-to-end submit→retrieve throughput of size-byte
// copies with depth requests in flight.
func benchCopy(b *testing.B, size, depth int, opts Options) {
	b.Helper()
	d := Open(opts)
	defer d.Close()
	src := make([]byte, size)
	dsts := make([][]byte, depth)
	for i := range dsts {
		dsts[i] = make([]byte, size)
	}
	b.SetBytes(int64(size))
	b.ResetTimer()
	inflight := 0
	for i := 0; i < b.N; i++ {
		for inflight >= depth {
			if r := d.RetrieveCompleted(); r != nil {
				d.FreeRequest(r)
				inflight--
				continue
			}
			d.Poll(time.Second)
		}
		r := d.AllocRequest()
		if r == nil {
			b.Fatal("out of request slots")
		}
		r.Src, r.Dst = src, dsts[i%depth]
		if err := d.Submit(r); err != nil {
			b.Fatal(err)
		}
		inflight++
	}
	for inflight > 0 {
		if r := d.RetrieveCompleted(); r != nil {
			d.FreeRequest(r)
			inflight--
			continue
		}
		d.Poll(time.Second)
	}
}

// Benchmark4MBCopy compares the unchunked single-controller baseline
// against chunked multi-controller transfers for 4 MB requests — the
// acceptance benchmark for the chunking tentpole. On a multi-core host
// the chunked/4-controller variant should beat the baseline by well
// over 1.5×; on a single-core runner the copies serialize and the
// variants converge.
func Benchmark4MBCopy(b *testing.B) {
	const size = 4 << 20
	cases := []struct {
		name string
		opts Options
	}{
		{"unchunked-1ctl", Options{NumReqs: 64, Controllers: 1, ChunkBytes: -1}},
		{"unchunked-4ctl", Options{NumReqs: 64, Controllers: 4, ChunkBytes: -1}},
		{"chunked-4ctl", Options{NumReqs: 64, Controllers: 4, ChunkBytes: 256 << 10}},
	}
	for _, c := range cases {
		b.Run(c.name, func(b *testing.B) { benchCopy(b, size, 1, c.opts) })
	}
}

// BenchmarkPipelined64KB measures small-copy throughput with a deep
// pipeline, where chunking never triggers and the cost is pure
// interface protocol.
func BenchmarkPipelined64KB(b *testing.B) {
	for _, ctl := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("ctl-%d", ctl), func(b *testing.B) {
			benchCopy(b, 64<<10, 16, Options{NumReqs: 64, Controllers: ctl})
		})
	}
}

// benchConcurrentSubmit drives a device from `submitters` goroutines
// issuing size-byte requests in batches of `batch`. Each submitter is a closed loop: it keeps a bounded window of
// requests in flight and reaps
// completions through the batch retrieval path to pace itself, so the
// scheduler is never oversubscribed with spinning pollers. Destination
// buffers are owned per slot (a slot is exclusive from Alloc to Free),
// so any number of requests can be in flight without write races, and
// it does not matter which submitter reaps which completion. Reports
// kicks-per-op so the amortization claims are visible in the output.
func benchConcurrentSubmit(b *testing.B, submitters, size, batch int, opts Options) {
	b.Helper()
	d := Open(opts)
	src := make([]byte, size)
	dsts := make([][]byte, opts.NumReqs)
	for i := range dsts {
		dsts[i] = make([]byte, size)
	}
	window := 4 * batch
	if window < 16 {
		window = 16
	}
	b.SetBytes(int64(size))
	b.ResetTimer()
	var wg sync.WaitGroup
	for s := 0; s < submitters; s++ {
		n := b.N / submitters
		if s < b.N%submitters {
			n++
		}
		wg.Add(1)
		go func(n int) {
			defer wg.Done()
			buf := make([]*Request, window)
			pending := make([]*Request, 0, batch)
			// Approximate: reaping may collect a neighbor's completions,
			// but the sum over submitters is exact, so the global
			// in-flight count stays bounded by submitters*window.
			inflight := 0
			reap := func(block bool) {
				for {
					k := d.RetrieveCompletedBatch(buf)
					for i := 0; i < k; i++ {
						d.FreeRequest(buf[i])
					}
					inflight -= k
					if k > 0 || !block {
						return
					}
					d.Poll(10 * time.Millisecond)
				}
			}
			for i := 0; i < n; i++ {
				var r *Request
				for r == nil {
					if r = d.AllocRequest(); r == nil {
						reap(true)
					}
				}
				r.Src, r.Dst = src, dsts[r.idx]
				pending = append(pending, r)
				if len(pending) == batch || i == n-1 {
					if err := d.SubmitBatch(pending); err != nil {
						b.Error(err)
						return
					}
					inflight += len(pending)
					pending = pending[:0]
				}
				for inflight >= window {
					reap(true)
				}
			}
		}(n)
	}
	wg.Wait()
	deadline := time.Now().Add(30 * time.Second)
	buf := make([]*Request, 64)
	for d.Completed() < int64(b.N) {
		if time.Now().After(deadline) {
			b.Fatalf("pipeline stalled: %d of %d complete", d.Completed(), b.N)
		}
		d.Poll(time.Millisecond)
		for k := d.RetrieveCompletedBatch(buf); k > 0; k = d.RetrieveCompletedBatch(buf) {
			for i := 0; i < k; i++ {
				d.FreeRequest(buf[i])
			}
		}
	}
	b.StopTimer()
	if b.N > 0 {
		b.ReportMetric(float64(d.Kicks())/float64(b.N), "kicks/op")
	}
	d.Close()
}

// BenchmarkConcurrentSubmitters contends the one staging queue: 1, 4
// and 16 submitter goroutines of 4 KB unbatched requests, so the CAS on
// the staging tail is the variable under test.
func BenchmarkConcurrentSubmitters(b *testing.B) {
	for _, subs := range []int{1, 4, 16} {
		b.Run(fmt.Sprintf("submitters=%d", subs), func(b *testing.B) {
			benchConcurrentSubmit(b, subs, 4<<10, 1,
				Options{NumReqs: 512, Controllers: 4})
		})
	}
}

// BenchmarkSmallRequest8Submitters is the acceptance benchmark for the
// submission pipeline: 8 submitters of 4 KB requests, unbatched and
// batched. The batched variant is the one held to kicks/op ≤ 1/batch.
func BenchmarkSmallRequest8Submitters(b *testing.B) {
	const size = 4 << 10
	b.Run("unbatched", func(b *testing.B) {
		benchConcurrentSubmit(b, 8, size, 1,
			Options{NumReqs: 512, Controllers: 4})
	})
	b.Run("batched16", func(b *testing.B) {
		benchConcurrentSubmit(b, 8, size, 16,
			Options{NumReqs: 512, Controllers: 4})
	})
}

// BenchmarkSmallRequestAllocs is the zero-allocation gate (run by the
// CI alloc-gate job with -benchmem): one single-chunk 4 KB
// Submit→Retrieve cycle per op on the default park/wake worker,
// retrieval by spin (Poll lazily allocates its reusable timer, a
// per-device one-time cost that is not part of the hot path under
// test). Must report 0 allocs/op; every steady-state allocation on
// this path is a regression.
func BenchmarkSmallRequestAllocs(b *testing.B) {
	d := Open(Options{NumReqs: 16})
	defer d.Close()
	src := make([]byte, 4<<10)
	dst := make([]byte, 4<<10)

	// Warm-up outside the measured window: first-use costs stay out of
	// the allocation count.
	for i := 0; i < 64; i++ {
		r := d.AllocRequest()
		r.Src, r.Dst = src, dst
		if err := d.Submit(r); err != nil {
			b.Fatal(err)
		}
		for {
			if got := d.RetrieveCompleted(); got != nil {
				d.FreeRequest(got)
				break
			}
			runtime.Gosched()
		}
	}

	b.SetBytes(4 << 10)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r := d.AllocRequest()
		if r == nil {
			b.Fatal("out of request slots")
		}
		r.Src, r.Dst = src, dst
		if err := d.Submit(r); err != nil {
			b.Fatal(err)
		}
		for {
			if got := d.RetrieveCompleted(); got != nil {
				d.FreeRequest(got)
				break
			}
			runtime.Gosched()
		}
	}
}

// BenchmarkWorkStealing drives the dispatch path — per-controller
// rings with stealing — with chunked 4 MB transfers. (The shared
// unbuffered channel it was ablated against in PR 3 is gone; the table
// is in EXPERIMENTS.md.)
func BenchmarkWorkStealing(b *testing.B) {
	benchCopy(b, 4<<20, 4, Options{NumReqs: 64, Controllers: 4, ChunkBytes: 256 << 10})
}
