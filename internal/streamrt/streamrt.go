// Package streamrt is the streaming runtime grown out of the paper's
// Section 6.6 case study: it treats the fast memory as a ring of pinned
// prefetch buffers and manages outstanding memif replications like
// asynchronous I/O requests.
//
// The runtime is a long-lived orchestrator: an Engine opened over a
// core.Device mmaps its buffer ring once and recycles it across any
// number of concurrent Stream handles, each paced by credit-based
// backpressure (OpenStream / Stream.Consume in engine.go and stream.go;
// the credit protocol in credits.go). RunDirect is the in-place
// reference it is measured against: Table 4's "Linux" rows and the
// checksum oracle of the tests and the benchmark.
//
// The paper's invariants are kept: as soon as a stream opens, the
// engine fills buffers for it by replicating data from the slow node
// asynchronously; whenever a buffer is ready the workload's compute
// kernel runs zero-copy on the pinned buffer; a consumed buffer is
// immediately re-offered for refill. If a stream's prefetched data runs
// out while fills are still in flight, the kernel is invoked directly
// on the slow memory — the runtime never stalls the computation waiting
// for a transfer.
package streamrt

import (
	"fmt"

	"memif/internal/hw"
	"memif/internal/sim"
	"memif/internal/stats"
	"memif/internal/vm"
	"memif/internal/workloads"
)

// Config is the prefetch-buffer geometry, the one ring geometry of the
// package: an Engine's ring (EngineOptions embeds it) and one Table 4
// cell, where RunDirect consumes in BufBytes steps.
type Config struct {
	// BufBytes is the size of one prefetch buffer (a multiple of the
	// page size); every stream chunk is one buffer.
	BufBytes int64
	// NumBufs is how many buffers are carved out of the fast node.
	NumBufs int
}

// fastNode hosts the prefetch buffers: a prefetch ring anywhere but the
// fast node buys nothing. (Inputs are read wherever the stream's Base is
// actually mapped.)
const fastNode = hw.NodeFast

// DefaultConfig returns the configuration used for Table 4: eight 512 KB
// buffers, 4 MB of the 6 MB fast node.
func DefaultConfig() Config {
	return Config{BufBytes: 512 << 10, NumBufs: 8}
}

// Result reports one streaming run.
type Result struct {
	Kernel        string
	Bytes         int64
	Elapsed       sim.Time
	ThroughputMBs float64
	// FastChunks were consumed out of prefetch buffers; SlowChunks fell
	// back to the slow node because no buffer was ready.
	FastChunks, SlowChunks int64
	// Checksum verifies the kernel saw exactly the input bytes.
	Checksum uint64
}

// RunDirect streams the kernel over [base, base+length) in place — the
// "Linux" rows of Table 4, where the data stays on the slow node.
func RunDirect(p *sim.Proc, as *vm.AddressSpace, k workloads.Kernel, base, length int64, cfg Config) (Result, error) {
	if length <= 0 || cfg.BufBytes <= 0 || length%cfg.BufBytes != 0 {
		return Result{}, fmt.Errorf("%w: length %d not a multiple of buffer size %d", ErrBadStream, length, cfg.BufBytes)
	}
	var acc uint64
	start := p.Now()
	for off := int64(0); off < length; off += cfg.BufBytes {
		var err error
		acc, err = k.Consume(p, as, base+off, cfg.BufBytes, acc)
		if err != nil {
			return Result{}, err
		}
	}
	elapsed := p.Now() - start
	return Result{
		Kernel:        k.Name,
		Bytes:         length,
		Elapsed:       elapsed,
		ThroughputMBs: stats.ThroughputMBs(length, elapsed),
		SlowChunks:    length / cfg.BufBytes,
		Checksum:      acc,
	}, nil
}
