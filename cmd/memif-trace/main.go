// memif-trace runs a short memif scenario on the simulated KeyStone II
// machine and prints a request-level timeline: when each request was
// submitted, when its notification was posted, its latency, and where
// the driver spent the time — a quick way to see the asynchronous
// pipeline (one kick-start syscall, worker/interrupt handoffs,
// DMA overlap) at work.
//
// Usage:
//
//	memif-trace [-reqs N] [-pages N] [-op migrate|replicate] [-race detect|recover|prevent] [-v]
//	memif-trace -rt [-reqs N] [-rt-bytes N] [-rt-controllers N] [-rt-chunk N]
//	memif-trace -serve :9090 [-reqs N] [-rt-bytes N]
//	memif-trace -outliers http://host:9090/debug/outliers [-top K]
//
// With -serve the tool exercises all three instrumented subsystems (a
// realtime burst with full lifecycle capture, a swap-out scenario, a
// streaming run) and serves their combined observability over HTTP:
// /metrics (Prometheus text format), /trace (Chrome trace_event JSON
// for chrome://tracing or Perfetto), /debug/outliers, /debug/pprof/*.
// go test ./cmd/memif-trace scrapes the same handler and validates
// every endpoint.
//
// With -v the engine's process-dispatch trace is streamed too, showing
// every app/worker/interrupt context switch in virtual time.
//
// With -rt the scenario runs on the realtime device instead — real
// goroutines, real copies, wall-clock time — and prints its obs layer:
// outcome counters, latency/size histograms, queue watermarks, and the
// last captured request lifecycles, one row per request with the time
// each pipeline edge took.
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"memif/internal/core"
	"memif/internal/hw"
	"memif/internal/machine"
	"memif/internal/obs/lifecycle"
	"memif/internal/realtime"
	"memif/internal/sim"
	"memif/internal/uapi"
	"memif/internal/workloads"
)

func main() {
	reqs := flag.Int("reqs", 8, "requests to submit")
	pages := flag.Int("pages", 16, "4KB pages per request")
	op := flag.String("op", "migrate", "operation: migrate or replicate")
	race := flag.String("race", "detect", "race policy: detect, recover or prevent")
	verbose := flag.Bool("v", false, "stream the engine's context-switch trace")
	rt := flag.Bool("rt", false, "run on the realtime device (real goroutines and copies)")
	rtBytes := flag.Int("rt-bytes", 4<<20, "realtime: bytes per request")
	rtControllers := flag.Int("rt-controllers", 0, "realtime: transfer controllers (0 = default)")
	rtChunk := flag.Int("rt-chunk", 0, "realtime: chunk bytes (0 = default, <0 disables chunking)")
	serveAddr := flag.String("serve", "", "serve /metrics, /trace and /debug/pprof on this address")
	outliersFrom := flag.String("outliers", "", "render a /debug/outliers URL or saved file as a top-K table and exit")
	topK := flag.Int("top", 10, "with -outliers: how many outliers to show")
	flag.Parse()
	if err := checkFlags(*reqs, *pages, *topK, *rtBytes); err != nil {
		fmt.Fprintf(os.Stderr, "memif-trace: %v\n", err)
		os.Exit(2)
	}

	if *outliersFrom != "" {
		if err := showOutliers(os.Stdout, *outliersFrom, *topK); err != nil {
			fmt.Fprintf(os.Stderr, "memif-trace: outliers %s: %v\n", *outliersFrom, err)
			os.Exit(1)
		}
		return
	}
	if *serveAddr != "" {
		if err := runServe(*serveAddr, *reqs, *rtBytes); err != nil {
			fmt.Fprintf(os.Stderr, "memif-trace: serve: %v\n", err)
			os.Exit(1)
		}
		return
	}

	if *rt {
		runRealtime(*reqs, *rtBytes, *rtControllers, *rtChunk)
		return
	}

	opts := core.DefaultOptions()
	switch *race {
	case "detect":
		opts.RaceMode = core.RaceDetect
	case "recover":
		opts.RaceMode = core.RaceRecover
	case "prevent":
		opts.RaceMode = core.RacePrevent
	default:
		fmt.Fprintf(os.Stderr, "memif-trace: bad -race %q\n", *race)
		os.Exit(2)
	}
	var reqOp uapi.Op
	switch *op {
	case "migrate":
		reqOp = uapi.OpMigrate
	case "replicate":
		reqOp = uapi.OpReplicate
	default:
		fmt.Fprintf(os.Stderr, "memif-trace: bad -op %q\n", *op)
		os.Exit(2)
	}

	m := machine.New(hw.KeyStoneII())
	m.Mem.DisableData()
	if *verbose {
		m.Eng.SetTrace(func(s string) { fmt.Println(s) })
	}
	as := m.NewAddressSpace(hw.Page4K)
	d := core.Open(m, as, opts)

	reqBytes := int64(*pages) * hw.Page4K
	type row struct {
		idx                  uint64
		submitted, completed sim.Time
		retrieved            sim.Time
		status               uapi.Status
		errc                 uapi.ErrCode
	}
	rows := make([]row, *reqs)

	var appErr error
	m.Eng.Spawn("app", func(p *sim.Proc) {
		defer d.Close()
		var src, dst int64
		if src, appErr = as.Mmap(p, int64(*reqs)*reqBytes, hw.NodeSlow, "src"); appErr != nil {
			return
		}
		if reqOp == uapi.OpReplicate {
			if dst, appErr = as.Mmap(p, int64(*reqs)*reqBytes, hw.NodeFast, "dst"); appErr != nil {
				return
			}
		}
		for i := 0; i < *reqs; i++ {
			r := d.AllocRequest(p)
			if r == nil {
				appErr = fmt.Errorf("out of request slots at request %d", i)
				return
			}
			r.Op = reqOp
			r.SrcBase = src + int64(i)*reqBytes
			r.DstBase = dst + int64(i)*reqBytes
			r.Length = reqBytes
			r.DstNode = hw.NodeFast
			r.Cookie = uint64(i)
			if err := d.Submit(p, r); err != nil {
				appErr = fmt.Errorf("submit %d: %w", i, err)
				return
			}
			rows[i] = row{idx: r.Cookie, submitted: r.Submitted}
		}
		workloads.Await(p, d, *reqs, func(r *uapi.MovReq) {
			rw := &rows[r.Cookie]
			rw.completed = r.Completed
			rw.retrieved = p.Now()
			rw.status = r.Status
			rw.errc = r.Err
		})
	})
	end := m.Eng.Run()
	if appErr != nil {
		fmt.Fprintf(os.Stderr, "memif-trace: %v\n", appErr)
		os.Exit(1)
	}

	fmt.Printf("scenario: %d x %s of %d pages (%d KB each), race policy %s\n\n",
		*reqs, *op, *pages, reqBytes>>10, *race)
	fmt.Printf("%4s %14s %14s %14s %12s %8s\n",
		"req", "submitted", "completed", "retrieved", "latency", "result")
	for _, r := range rows {
		fmt.Printf("%4d %14v %14v %14v %12v %8v\n",
			r.idx, r.submitted, r.completed, r.retrieved, r.completed-r.submitted, r.errc)
	}
	st := d.Stats()
	fmt.Printf("\nsyscalls: %d   worker wakes: %d   DMA transfers: %d (%d MB, %d IRQs)\n",
		st.Syscalls, st.WorkerWakes, m.DMA.Stats().Transfers,
		m.DMA.Stats().BytesMoved>>20, m.DMA.Stats().IRQs)
	fmt.Printf("CPU: user %v, kernel %v over %v elapsed (%.1f%%)\n",
		d.UserMeter.Busy(), d.KernMeter.Busy(), end,
		sim.MeterGroup{d.UserMeter, d.KernMeter}.Usage(end)*100)
	fmt.Printf("driver time by phase: %v\n", d.Breakdown)
}

// checkFlags rejects, before anything runs, the flag values no mode
// can run with: -reqs must fit the request slots of both the simulated
// and the realtime device, -pages and -top must be positive, and
// -rt-bytes must not be negative.
func checkFlags(reqs, pages, top, rtBytes int) error {
	slots := min(core.DefaultOptions().NumReqs, realtime.DefaultOptions().NumReqs)
	switch {
	case reqs < 1 || reqs > slots:
		return fmt.Errorf("-reqs %d out of range [1, %d]", reqs, slots)
	case pages < 1:
		return fmt.Errorf("-pages %d must be at least 1", pages)
	case top < 1:
		return fmt.Errorf("-top %d must be at least 1", top)
	case rtBytes < 0:
		return fmt.Errorf("-rt-bytes %d must not be negative", rtBytes)
	}
	return nil
}

// runRealtime drives the realtime device through a burst of copies and
// renders its observability layer.
func runRealtime(reqs, bytesPer, controllers, chunkBytes int) {
	opts := realtime.DefaultOptions()
	if controllers > 0 {
		opts.Controllers = controllers
	}
	if chunkBytes != 0 {
		opts.ChunkBytes = chunkBytes
	}
	opts.TraceFullCapture = true
	d := realtime.Open(opts)

	src := make([]byte, bytesPer)
	for i := range src {
		src[i] = byte(i)
	}
	start := time.Now()
	err := copyBurst(d, reqs, src, func(r *realtime.Request) {
		lat, _ := r.Latency()
		fmt.Printf("req %3d  %8d KB  latency %10v  err=%v\n",
			r.Cookie, len(r.Src)>>10, lat, r.Err)
	})
	if err != nil {
		fmt.Fprintf(os.Stderr, "memif-trace: %v\n", err)
		os.Exit(1)
	}
	elapsed := time.Since(start)
	if !d.CloseDrain(5 * time.Second) {
		fmt.Fprintln(os.Stderr, "memif-trace: drain timed out")
	}

	st := d.Stats()
	chunkDesc := fmt.Sprintf("%d KB", opts.ChunkBytes>>10)
	if opts.ChunkBytes < 0 {
		chunkDesc = "off"
	}
	fmt.Printf("\nscenario: %d x %d KB copies, %d controllers, chunk %s, %v elapsed (%.0f MB/s)\n",
		reqs, bytesPer>>10, opts.Controllers, chunkDesc, elapsed,
		float64(st.BytesMoved)/elapsed.Seconds()/1e6)
	fmt.Printf("submitted %d  completed %d  canceled %d  expired %d  failed %d\n",
		st.Submitted, st.Completed, st.Canceled, st.Expired, st.Failed)
	fmt.Printf("kicks %d  worker wakes %d  chunks %d  bytes %d MB  flush retries %d\n",
		st.Kicks, st.WorkerWakes, st.Chunks, st.BytesMoved>>20, st.EnqueueRetries)
	fmt.Printf("batches %d  dispatch retries %d\n", st.Batches, st.DispatchRetries)
	fmt.Printf("queue high watermarks: submission %d, completion %d\n",
		st.SubmissionHighWater, st.CompletionHighWater)
	fmt.Printf("latency (ns): %v\n", st.Latency)
	fmt.Printf("sizes (bytes): %v\n", st.Sizes)
	showLifecycles(st.Lifecycle.Captured)
}

// copyBurst submits n copies of src to d at once, each into a buffer
// of its own and with its index as cookie, then retrieves them all,
// handing each completion to done (if non-nil) before freeing it.
func copyBurst(d *realtime.Device, n int, src []byte, done func(*realtime.Request)) error {
	for i := 0; i < n; i++ {
		r := d.AllocRequest()
		if r == nil {
			return fmt.Errorf("out of request slots at request %d", i)
		}
		r.Src, r.Dst = src, make([]byte, len(src))
		r.Cookie = uint64(i)
		if err := d.Submit(r); err != nil {
			return fmt.Errorf("submit %d: %w", i, err)
		}
	}
	for retrieved := 0; retrieved < n; {
		r := d.RetrieveCompleted()
		if r == nil {
			d.Poll(time.Second)
			continue
		}
		if done != nil {
			done(r)
		}
		d.FreeRequest(r)
		retrieved++
	}
	return nil
}

// lifecycleRows bounds the lifecycle table of the -rt mode.
const lifecycleRows = 32

// showLifecycles prints the most recent sampled lifecycles, oldest
// first, in the same table as the outliers.
func showLifecycles(lcs []lifecycle.Lifecycle) {
	if len(lcs) > lifecycleRows {
		lcs = lcs[len(lcs)-lifecycleRows:]
	}
	if len(lcs) == 0 {
		return
	}
	rows := make([]sourcedRecord, len(lcs))
	for i, lc := range lcs {
		rows[i] = sourcedRecord{"sampled", lc}
	}
	fmt.Printf("\nlast %d request lifecycles:\n", len(lcs))
	printRecords(os.Stdout, rows)
}
