package streamrt

import (
	"errors"
	"testing"

	"memif/internal/core"
	"memif/internal/hw"
	"memif/internal/machine"
	"memif/internal/sim"
	"memif/internal/uapi"
	"memif/internal/workloads"
)

func setup() (*machine.Machine, *core.Device) {
	m := machine.New(hw.KeyStoneII())
	as := m.NewAddressSpace(4096)
	d := core.Open(m, as, core.DefaultOptions())
	return m, d
}

// openWholeRing opens an engine of cfg's geometry and one background
// stream holding every ring buffer — the Table 4 "Memif" shape. The
// caller closes the engine.
func openWholeRing(p *sim.Proc, d *core.Device, k workloads.Kernel, base, length int64, cfg Config) (*Engine, *Stream, error) {
	e, err := OpenEngine(p, d, EngineOptions{Config: cfg})
	if err != nil {
		return nil, nil, err
	}
	s, err := e.OpenStream(p, StreamSpec{Kernel: k, Base: base, Length: length, Class: uapi.ClassBackground, Credits: cfg.NumBufs})
	if err != nil {
		e.Close(p)
		return nil, nil, err
	}
	return e, s, nil
}

// run streams [base, base+length) through a whole-ring stream and
// tears the engine down.
func run(p *sim.Proc, d *core.Device, k workloads.Kernel, base, length int64, cfg Config) (Result, error) {
	e, s, err := openWholeRing(p, d, k, base, length, cfg)
	if err != nil {
		return Result{}, err
	}
	defer e.Close(p)
	return s.Run(p)
}

func TestDirectRunChecksumAndThroughput(t *testing.T) {
	m, d := setup()
	var res Result
	var want uint64
	m.Eng.Spawn("app", func(p *sim.Proc) {
		defer d.Close()
		cfg := DefaultConfig()
		length := int64(16) * cfg.BufBytes // 8 MB
		base, err := d.AS.Mmap(p, length, hw.NodeSlow, "input")
		if err != nil {
			t.Fatal(err)
		}
		if want, err = workloads.FillInput(p, d.AS, base, length, 42); err != nil {
			t.Fatal(err)
		}
		res, err = RunDirect(p, d.AS, workloads.Triad, base, length, cfg)
		if err != nil {
			t.Fatal(err)
		}
	})
	m.Eng.Run()
	if res.Checksum != want {
		t.Errorf("checksum = %#x, want %#x", res.Checksum, want)
	}
	// Triad out of slow memory: ~2384 MB/s (Table 4 Linux row), ±10%.
	if res.ThroughputMBs < 2100 || res.ThroughputMBs > 2650 {
		t.Errorf("direct triad throughput = %.0f MB/s, want ~2384", res.ThroughputMBs)
	}
	if res.FastChunks != 0 {
		t.Errorf("direct run used %d fast chunks", res.FastChunks)
	}
}

func TestMemifRunBeatsDirect(t *testing.T) {
	for _, k := range workloads.All {
		k := k
		t.Run(k.Name, func(t *testing.T) {
			m, d := setup()
			var direct, fast Result
			var want uint64
			m.Eng.Spawn("app", func(p *sim.Proc) {
				defer d.Close()
				cfg := DefaultConfig()
				length := int64(64) * cfg.BufBytes // 32 MB >> 6 MB fast node
				base, err := d.AS.Mmap(p, length, hw.NodeSlow, "input")
				if err != nil {
					t.Fatal(err)
				}
				if want, err = workloads.FillInput(p, d.AS, base, length, 7); err != nil {
					t.Fatal(err)
				}
				direct, err = RunDirect(p, d.AS, k, base, length, cfg)
				if err != nil {
					t.Fatal(err)
				}
				fast, err = run(p, d, k, base, length, cfg)
				if err != nil {
					t.Fatal(err)
				}
			})
			m.Eng.Run()
			if fast.Checksum != want || direct.Checksum != want {
				t.Errorf("checksums: direct=%#x memif=%#x want %#x", direct.Checksum, fast.Checksum, want)
			}
			gain := fast.ThroughputMBs/direct.ThroughputMBs - 1
			t.Logf("%s: direct %.0f MB/s, memif %.0f MB/s (%+.1f%%), fast=%d slow=%d",
				k.Name, direct.ThroughputMBs, fast.ThroughputMBs, gain*100, fast.FastChunks, fast.SlowChunks)
			// Table 4 reports +23.5% to +33.6%; demand a clear win.
			if gain < 0.10 {
				t.Errorf("memif gain = %+.1f%%, want a clear speedup", gain*100)
			}
			if fast.FastChunks == 0 {
				t.Error("memif run never consumed a prefetch buffer")
			}
		})
	}
}

func TestRunFreesBuffersAndSlots(t *testing.T) {
	m, d := setup()
	m.Eng.Spawn("app", func(p *sim.Proc) {
		defer d.Close()
		cfg := DefaultConfig()
		length := int64(8) * cfg.BufBytes
		base, _ := d.AS.Mmap(p, length, hw.NodeSlow, "input")
		if _, err := workloads.FillInput(p, d.AS, base, length, 1); err != nil {
			t.Fatal(err)
		}
		if _, err := run(p, d, workloads.Add, base, length, cfg); err != nil {
			t.Fatal(err)
		}
		if used := d.AS.Mem.Used(hw.NodeFast); used != 0 {
			t.Errorf("fast node still holds %d bytes after run", used)
		}
		// All request slots returned.
		n := 0
		for d.AllocRequest(p) != nil {
			n++
		}
		if n != d.Area.NumReqs() {
			t.Errorf("free slots = %d, want %d", n, d.Area.NumReqs())
		}
	})
	m.Eng.Run()
}

func TestRunInputValidation(t *testing.T) {
	m, d := setup()
	m.Eng.Spawn("app", func(p *sim.Proc) {
		defer d.Close()
		cfg := DefaultConfig()
		base, _ := d.AS.Mmap(p, cfg.BufBytes, hw.NodeSlow, "input")
		if _, err := run(p, d, workloads.Add, base, cfg.BufBytes+5, cfg); !errors.Is(err, ErrBadStream) {
			t.Errorf("unaligned length: %v", err)
		}
		if _, err := RunDirect(p, d.AS, workloads.Add, base, -1, cfg); !errors.Is(err, ErrBadStream) {
			t.Errorf("negative length: %v", err)
		}
		bad := cfg
		bad.NumBufs = 0
		if _, err := run(p, d, workloads.Add, base, cfg.BufBytes, bad); !errors.Is(err, ErrBadStream) {
			t.Errorf("zero buffers: %v", err)
		}
	})
	m.Eng.Run()
}

func TestSmallInputFewerChunksThanBuffers(t *testing.T) {
	m, d := setup()
	m.Eng.Spawn("app", func(p *sim.Proc) {
		defer d.Close()
		cfg := DefaultConfig()
		length := int64(2) * cfg.BufBytes // 2 chunks, 8 buffers
		base, _ := d.AS.Mmap(p, length, hw.NodeSlow, "input")
		want, err := workloads.FillInput(p, d.AS, base, length, 3)
		if err != nil {
			t.Fatal(err)
		}
		res, err := run(p, d, workloads.Triad, base, length, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if res.Checksum != want {
			t.Errorf("checksum mismatch")
		}
		if res.FastChunks+res.SlowChunks != 2 {
			t.Errorf("chunks = %d+%d, want 2", res.FastChunks, res.SlowChunks)
		}
	})
	m.Eng.Run()
}

// Force the fallback path: a compute kernel so fast that the DMA fill
// pipeline cannot keep up, making the runtime consume most chunks
// straight from slow memory instead of stalling.
func TestFallbackUnderFillPressure(t *testing.T) {
	m, d := setup()
	m.Mem.DisableData()
	var res Result
	m.Eng.Spawn("app", func(p *sim.Proc) {
		defer d.Close()
		cfg := DefaultConfig()
		length := int64(32) * cfg.BufBytes
		base, _ := d.AS.Mmap(p, length, hw.NodeSlow, "input")
		sprinter := workloads.Kernel{Name: "sprinter", ComputePerByteNS: 0.01}
		var err error
		res, err = run(p, d, sprinter, base, length, cfg)
		if err != nil {
			t.Fatal(err)
		}
	})
	m.Eng.Run()
	if res.SlowChunks == 0 {
		t.Error("fill pipeline magically kept up with a 100 GB/s consumer")
	}
	if res.FastChunks+res.SlowChunks != 32 {
		t.Errorf("chunks = %d+%d, want 32", res.FastChunks, res.SlowChunks)
	}
	t.Logf("sprinter: %d fast, %d fallback chunks at %.0f MB/s", res.FastChunks, res.SlowChunks, res.ThroughputMBs)
}

// The never-stall fallback must be invisible to correctness: a run
// that consumes chunks straight from slow memory produces bit-identical
// results to a run that prefetched every chunk, and the engine's counter
// attributes exactly the fallback consumptions.
func TestFallbackChecksumMatchesPrefetched(t *testing.T) {
	m, d := setup()
	var snap EngineSnapshot
	var st StreamStats
	var pressured, prefetched Result
	var want uint64
	m.Eng.Spawn("app", func(p *sim.Proc) {
		defer d.Close()
		cfg := DefaultConfig()
		length := int64(8) * cfg.BufBytes
		base, err := d.AS.Mmap(p, length, hw.NodeSlow, "input")
		if err != nil {
			t.Fatal(err)
		}
		if want, err = workloads.FillInput(p, d.AS, base, length, 11); err != nil {
			t.Fatal(err)
		}

		// Reference: as many buffers as chunks. Priming assigns every
		// chunk to a fill before the consume loop starts, so the
		// fallback branch is unreachable — all chunks arrive prefetched.
		prefetched, err = run(p, d, workloads.Add, base, length, cfg)
		if err != nil {
			t.Fatal(err)
		}

		// Pressured: two buffers against a consumer fast enough that no
		// fill is complete when the loop first looks — the runtime must
		// take the slow path instead of stalling.
		cfg.NumBufs = 2
		// Same reducer as the reference kernel: the chunk sums commute,
		// so the two runs must agree even if the fallback consumes
		// chunks in a different order than the prefetch pipeline.
		sprinter := workloads.Kernel{Name: "sprinter", ComputePerByteNS: 0.01, Reduce: workloads.Add.Reduce}
		e, s, err := openWholeRing(p, d, sprinter, base, length, cfg)
		if err != nil {
			t.Fatal(err)
		}
		defer e.Close(p)
		pressured, err = s.Run(p)
		if err != nil {
			t.Fatal(err)
		}
		snap, st = e.Snapshot(), s.Stats()
	})
	m.Eng.Run()
	if prefetched.SlowChunks != 0 || prefetched.FastChunks != 8 {
		t.Fatalf("reference run not fully prefetched: fast=%d slow=%d",
			prefetched.FastChunks, prefetched.SlowChunks)
	}
	if pressured.SlowChunks == 0 {
		t.Fatal("pressured run never took the fallback path")
	}
	if snap.SlowChunks != pressured.SlowChunks {
		t.Errorf("SlowChunks counter = %d, result says %d fallback chunks",
			snap.SlowChunks, pressured.SlowChunks)
	}
	// Every fill is timed and sized once, and only fills are.
	if st.FillLatency.Count != pressured.FastChunks || st.FillLatency.Mean() <= 0 {
		t.Errorf("fill latency histogram holds %d samples (mean %.0f ns) for %d prefetched chunks",
			st.FillLatency.Count, st.FillLatency.Mean(), pressured.FastChunks)
	}
	if want := pressured.FastChunks * DefaultConfig().BufBytes; st.BytesPrefetched != want || snap.BytesPrefetched != want {
		t.Errorf("bytes prefetched: stream %d, engine %d, want %d", st.BytesPrefetched, snap.BytesPrefetched, want)
	}
	if pressured.Checksum != want || prefetched.Checksum != want {
		t.Errorf("checksums: prefetched=%#x fallback=%#x want %#x",
			prefetched.Checksum, pressured.Checksum, want)
	}
	if pressured.FastChunks+pressured.SlowChunks != 8 {
		t.Errorf("pressured chunks = %d+%d, want 8", pressured.FastChunks, pressured.SlowChunks)
	}
}

// A fill failure (the prefetch buffer region was unmapped behind the
// runtime's back) surfaces as an error, not a hang.
func TestFillFailureSurfaces(t *testing.T) {
	m, d := setup()
	m.Eng.Spawn("app", func(p *sim.Proc) {
		defer d.Close()
		cfg := DefaultConfig()
		length := int64(4) * cfg.BufBytes
		base, _ := d.AS.Mmap(p, length, hw.NodeSlow, "input")
		// Unmap the input mid-flight is hard to time; instead hand Run
		// an input range that extends past the mapping — the first fill
		// of the out-of-range chunk fails.
		_, err := run(p, d, workloads.Add, base+cfg.BufBytes, length, cfg)
		if err == nil {
			t.Fatal("fill of an unmapped chunk reported success")
		}
	})
	m.Eng.Run()
}
