package streamrt

import (
	"memif/internal/obs"
	"memif/internal/obs/lifecycle"
)

// StreamStats is a point-in-time copy of one stream's counters
// (Stream.Stats: from a sim proc, or after sim.Engine.Run returns).
type StreamStats struct {
	// ID and Name identify the stream within its engine.
	ID   int
	Name string
	// Kernel is the compute kernel's name; Class the QoS class of the
	// stream's fill requests.
	Kernel string
	Class  int
	// Bytes is the stream's total input length; Chunks its chunk count.
	Bytes, Chunks int64
	// Credits is the configured backpressure allowance;
	// CreditsInFlight how many are currently spent on granted fills
	// (in flight or filled-awaiting-consume).
	Credits, CreditsInFlight int
	// CreditsGranted/CreditsReturned are cumulative, for conservation
	// checks: Granted - Returned == CreditsInFlight at all times.
	CreditsGranted, CreditsReturned int64
	// FastChunks were consumed zero-copy out of ring buffers;
	// SlowChunks took the never-stall fallback straight from the slow
	// node. FastChunks+SlowChunks == chunks consumed so far.
	FastChunks, SlowChunks int64
	// BytesPrefetched totals payload replicated into ring buffers for
	// this stream (successful fills only).
	BytesPrefetched int64
	// Fills counts fill grants submitted; FillFailures the fills that
	// completed with an error.
	Fills, FillFailures int64
	// TailWaits counts waits for in-flight fills after all chunks were
	// assigned — the benign end-of-stream drain. Stalls counts waits
	// with no fill in flight to wait for; the never-stall design keeps
	// this zero (TestEngineMultiStreamChecksums gates on it).
	TailWaits, Stalls int64
	// Closed reports the handle was closed (by Close or completion).
	Closed bool
	// Done reports every chunk was consumed.
	Done bool
	// FillLatency and Stages attribute this stream's fill pipeline.
	FillLatency obs.HistogramSnapshot
	Stages      lifecycle.SpanSnapshot
}

// EngineSnapshot is a point-in-time copy of a StreamEngine's state:
// ring occupancy, engine-wide totals, per-stream stats for every stream
// still registered (open, or closed with fills draining), and the
// flight-recorder view (Engine.Snapshot: from a sim proc, or after
// sim.Engine.Run returns).
type EngineSnapshot struct {
	// RingBufs / BufBytes echo the engine geometry; FreeBufs is the
	// current free-buffer count; BufMmaps counts mmap calls the engine
	// ever made for its ring — O(ring size), never O(chunks), which
	// TestEngineMultiStreamChecksums gates on.
	RingBufs int
	BufBytes int64
	FreeBufs int
	BufMmaps int64
	// OpenStreams is the live stream count; StreamsOpened/StreamsClosed
	// are cumulative.
	OpenStreams                  int
	StreamsOpened, StreamsClosed int64
	// Fills counts fill grants; FillBatches the SubmitBatch flushes
	// that carried them (Fills > FillBatches once any batch coalesced).
	Fills, FillBatches int64
	// FastChunks/SlowChunks/BytesPrefetched/Stalls aggregate across all
	// streams ever opened (closed streams keep contributing).
	FastChunks, SlowChunks int64
	BytesPrefetched        int64
	Stalls                 int64
	// Streams holds per-stream stats for currently registered streams.
	Streams []StreamStats
	// StreamNames maps stream id → label for every stream ever opened
	// (flight tenant lanes outlive retired streams).
	StreamNames []string
	// Flight is the engine's flight-recorder snapshot (zero when the
	// recorder is disabled).
	Flight lifecycle.FlightSnapshot
}
