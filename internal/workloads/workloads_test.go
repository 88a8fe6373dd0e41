package workloads

import (
	"encoding/binary"
	"math/rand"
	"slices"
	"testing"

	"memif/internal/hw"
	"memif/internal/phys"
	"memif/internal/sim"
	"memif/internal/tlb"
	"memif/internal/vm"
)

func setup() (*sim.Engine, *vm.AddressSpace) {
	eng := sim.NewEngine()
	plat := hw.KeyStoneII()
	return eng, vm.New(eng, plat, phys.New(plat), 4096)
}

func TestKernelCalibrationMatchesTable4(t *testing.T) {
	// Consuming from the slow node must land near the Linux column of
	// Table 4: pgain 1440, triad 2384, add 2390 MB/s. Our access model
	// adds per-page latency, so allow a 10% band below the paper.
	slowNS := func(k Kernel) float64 { // ns per byte from slow node
		perPage := 110.0 + 4096.0/6.2e9*1e9
		return k.ComputePerByteNS + perPage/4096.0
	}
	cases := []struct {
		k     Kernel
		paper float64
	}{{PGain, 1440.1}, {Triad, 2384.1}, {Add, 2390.1}}
	for _, c := range cases {
		mbs := 1e3 / slowNS(c.k)
		if mbs < c.paper*0.90 || mbs > c.paper*1.05 {
			t.Errorf("%s: modelled slow-node throughput %.0f MB/s vs paper %.0f", c.k.Name, mbs, c.paper)
		}
	}
}

func TestConsumeChargesComputeAndMemory(t *testing.T) {
	eng, as := setup()
	eng.Spawn("p", func(p *sim.Proc) {
		base, _ := as.Mmap(p, 64<<10, hw.NodeSlow, "in")
		start := p.Now()
		if _, err := Triad.Consume(p, as, base, 64<<10, 0); err != nil {
			t.Fatal(err)
		}
		elapsed := float64(p.Now() - start)
		// compute + memory for 64 KB from the slow node.
		compute := 0.2581 * 65536
		memory := 16 * (110 + 4096/6.2e9*1e9)
		want := compute + memory
		if elapsed < want*0.95 || elapsed > want*1.05 {
			t.Errorf("consume took %.0f ns, want ~%.0f", elapsed, want)
		}
	})
	eng.Run()
}

func TestConsumeChecksumMatchesFill(t *testing.T) {
	eng, as := setup()
	eng.Spawn("p", func(p *sim.Proc) {
		const n = 128 << 10
		base, _ := as.Mmap(p, n, hw.NodeSlow, "in")
		want, err := FillInput(p, as, base, n, 99)
		if err != nil {
			t.Fatal(err)
		}
		got, err := Add.Consume(p, as, base, n, 0)
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Errorf("checksum = %#x, want %#x", got, want)
		}
	})
	eng.Run()
}

func TestConsumeUnmappedFails(t *testing.T) {
	eng, as := setup()
	eng.Spawn("p", func(p *sim.Proc) {
		if _, err := Triad.Consume(p, as, 0xdead000, 4096, 0); err == nil {
			t.Error("consume of unmapped region succeeded")
		}
	})
	eng.Run()
}

func TestSum64TailBytes(t *testing.T) {
	// 9 bytes: one 8-byte word plus a tail byte.
	chunk := []byte{1, 0, 0, 0, 0, 0, 0, 0, 5}
	if got := sum64(10, chunk); got != 10+1+5 {
		t.Errorf("sum64 = %d, want 16", got)
	}
}

// pinBytes is a fixed byte string for the sum64 pins.
func pinBytes(n int) []byte {
	b := make([]byte, n)
	for i := range b {
		b[i] = byte(i*131 + i>>8*7 + 3)
	}
	return b
}

// TestChecksumPins holds checksums rendered once by the original
// word-at-a-time sum64, as literals: the stream checks compare the
// consumer's sum64 against FillInput's sum64, so a wrong fold would
// agree with itself there and only a literal catches it.
func TestChecksumPins(t *testing.T) {
	sums := []struct {
		acc  uint64
		n    int
		want uint64
	}{
		{0, 0, 0},
		{0, 1, 0x3},
		{5, 7, 0x1d9},
		{0, 8, 0x9815920f8c098603},
		{0, 9, 0x9815920f8c09861e},
		{0, 31, 0x1088fe76ec64de1d},
		{0, 32, 0xf0e6d8cec0b6a89c},
		{0, 33, 0xf0e6d8cec0b6a8ff},
		{1 << 63, 63, 0xa28ef864ce3ba779},
		{0, 64, 0x634c331c02ecd2b8},
		{0, 65, 0x634c331c02ecd37b},
		{0, 255, 0xf3255789abee621},
		{^uint64(0), 1000, 0x7101a222b353c07},
		{0, 4096, 0xffffffffffffff00},
		{0, 4099, 0xe2},
	}
	for _, c := range sums {
		if got := sum64(c.acc, pinBytes(c.n)); got != c.want {
			t.Errorf("sum64(%#x, pinBytes(%d)) = %#x, want %#x", c.acc, c.n, got, c.want)
		}
	}

	fills := []struct {
		seed uint64
		n    int64
		want uint64
	}{
		{1, 8, 0x826886b3864a1b1b},
		{7, 13, 0xf4a61a7f8fa82e91},
		{99, 4096, 0xb683b4b5a4198f00},
		{2, 4099, 0xbf7dbf5d27848900},
		{1<<8 + 1, 65541, 0xfdd2b768de9c3000},
		{0x1234, 512 << 10, 0x9abd6c8ae69a8000},
	}
	eng, as := setup()
	eng.Spawn("p", func(p *sim.Proc) {
		for _, c := range fills {
			base, err := as.Mmap(p, c.n, hw.NodeSlow, "pin")
			if err != nil {
				t.Fatal(err)
			}
			got, err := FillInput(p, as, base, c.n, c.seed)
			if err != nil {
				t.Fatal(err)
			}
			if got != c.want {
				t.Errorf("FillInput(seed %#x, %d bytes) = %#x, want %#x", c.seed, c.n, got, c.want)
			}
		}
	})
	eng.Run()
}

func TestFillInputDeterministic(t *testing.T) {
	eng, as := setup()
	eng.Spawn("p", func(p *sim.Proc) {
		a, _ := as.Mmap(p, 32<<10, hw.NodeSlow, "a")
		b, _ := as.Mmap(p, 32<<10, hw.NodeSlow, "b")
		ca, _ := FillInput(p, as, a, 32<<10, 7)
		cb, _ := FillInput(p, as, b, 32<<10, 7)
		if ca != cb {
			t.Error("same seed produced different checksums")
		}
		cc, _ := FillInput(p, as, b, 32<<10, 8)
		if cc == ca {
			t.Error("different seeds produced identical checksums")
		}
	})
	eng.Run()
}

// consumeCase is one range of the differential test below.
type consumeCase struct {
	page     int64
	off, n   int64 // range start past the VMA base, and length
	dataless bool
	tlb      bool
	race     bool // a writer proc stores into the input while it is consumed
}

// consumeRun is what one machine reports after body ran over the range.
type consumeRun struct {
	sum     uint64
	elapsed sim.Time
	touched int64    // the VMA's TouchedBytes
	ptes    []uint64 // the VMA's PTEs, reference bits included
	bytes   []byte   // the VMA's frame bytes at the end, nil when dataless
}

// runConsume builds a fresh machine for c with seeded input bytes in a
// VMA of five pages, or of as many as the range touches plus one, and
// times body over the range. With c.race set, a writer proc stores
// seeded bytes into the range's first page (behind the consumer's
// cursor once touched), its last page (ahead of it until touched) and
// one random spot, every few hundred virtual nanoseconds while body
// runs. Machines built for the same case interleave identically as long
// as body yields at the same instants.
func runConsume(t *testing.T, c consumeCase, seed int64, body func(p *sim.Proc, as *vm.AddressSpace, addr int64) uint64) (r consumeRun) {
	eng := sim.NewEngine()
	plat := hw.KeyStoneII()
	mem := phys.New(plat)
	if c.dataless {
		mem.DisableData()
	}
	as := vm.New(eng, plat, mem, c.page)
	if c.tlb {
		as.TLB = tlb.NewCortexA15()
	}
	pages := max(5, (c.off+c.n+c.page-1)/c.page+1)
	var base, addr int64
	running, done := false, false
	eng.Spawn("consumer", func(p *sim.Proc) {
		var err error
		if base, err = as.Mmap(p, pages*c.page, hw.NodeSlow, "in"); err != nil {
			t.Fatal(err)
		}
		in := make([]byte, pages*c.page)
		rand.New(rand.NewSource(seed)).Read(in)
		if err := as.Write(p, base, in); err != nil {
			t.Fatal(err)
		}
		addr = base + c.off
		as.ScanAccessBits(p, as.VPN(base), int(pages)) // arm young: touches clear it
		start := p.Now()
		running = true
		r.sum = body(p, as, addr)
		r.elapsed = p.Now() - start
		done = true
	})
	if c.race {
		eng.Spawn("writer", func(p *sim.Proc) {
			rng := rand.New(rand.NewSource(seed + 1))
			word := make([]byte, 8)
			for !running {
				p.SleepNS(50)
			}
			last := (addr + c.n - 1) &^ (c.page - 1)
			for !done {
				p.SleepNS(300)
				for _, at := range []int64{addr, last, addr + rng.Int63n(c.n)} {
					rng.Read(word)
					at = min(at, addr+c.n-int64(len(word)))
					if err := as.Write(p, at, word); err != nil {
						t.Error(err)
					}
				}
			}
		})
	}
	eng.Run()
	r.touched = as.FindVMA(base).TouchedBytes
	for a := base; a < base+pages*c.page; a += c.page {
		slot, _ := as.Table.Lookup(as.VPN(a))
		r.ptes = append(r.ptes, uint64(slot.Load()))
		r.bytes = append(r.bytes, as.FrameAt(a).Bytes()...)
	}
	return r
}

// TestConsumeMatchesCopyingRead: consuming a range in place folds the
// same checksum as sum64 over a copying Read of it, takes exactly the
// Read's virtual time plus the kernel's compute and leaves the same
// reference bits and TouchedBytes: at any alignment, page size and
// length, on a dataless machine, with a TLB, and with a writer racing
// the consumer — where the in-place fold must see each page as a copy
// taken when the page is touched would hold it.
func TestConsumeMatchesCopyingRead(t *testing.T) {
	var cases []consumeCase
	rng := rand.New(rand.NewSource(29))
	for _, page := range []int64{hw.Page4K, 64 << 10} {
		for _, n := range []int64{1, 7, 8, 9, 4095, page - 1, page, page + 1, 3*page + 5} {
			for _, off := range []int64{0, 1, 3, 8, page - 5, page - 8, page - 1} {
				cases = append(cases, consumeCase{page: page, off: off, n: n})
			}
		}
		for range 20 {
			cases = append(cases, consumeCase{page: page, off: rng.Int63n(page), n: 1 + rng.Int63n(3*page+7)})
		}
		cases = append(cases,
			consumeCase{page: page, off: 5, n: 3*page + 5, race: true},
			consumeCase{page: page, off: 0, n: 3 * page, race: true},
			consumeCase{page: page, off: page - 3, n: 2*page + 13, race: true},
			consumeCase{page: page, off: 3, n: 3*page + 1, tlb: true},
			consumeCase{page: page, off: 3, n: 3*page + 1, dataless: true},
			consumeCase{page: page, off: 0, n: 3 * page, dataless: true, tlb: true},
		)
	}
	for i, c := range cases {
		seed := int64(i) + 1
		acc0 := uint64(rng.Int63())
		want := runConsume(t, c, seed, func(p *sim.Proc, as *vm.AddressSpace, addr int64) uint64 {
			buf := make([]byte, c.n)
			if err := as.Read(p, addr, buf); err != nil {
				t.Fatal(err)
			}
			return sum64(acc0, buf)
		})
		got := runConsume(t, c, seed, func(p *sim.Proc, as *vm.AddressSpace, addr int64) uint64 {
			acc, err := Triad.Consume(p, as, addr, c.n, acc0)
			if err != nil {
				t.Fatal(err)
			}
			return acc
		})
		if got.sum != want.sum {
			t.Errorf("%+v: checksum %#x, copying read folds %#x", c, got.sum, want.sum)
		}
		if compute := sim.Time(float64(c.n) * Triad.ComputePerByteNS); got.elapsed != want.elapsed+compute {
			t.Errorf("%+v: consume took %d ns, read %d + compute %d", c, got.elapsed, want.elapsed, compute)
		}
		// A racing writer stores on through the kernel's compute, so only
		// a quiet machine is left in the same state.
		if !c.race && (got.touched != want.touched || !slices.Equal(got.ptes, want.ptes)) {
			t.Errorf("%+v: consume left TouchedBytes %d, PTEs %#x; read %d, %#x", c, got.touched, got.ptes, want.touched, want.ptes)
		}
	}
}

// TestConsumeAllocGate: consuming a page-aligned 512 KiB chunk in place
// allocates nothing per chunk, as the copying consumer did.
func TestConsumeAllocGate(t *testing.T) {
	eng, as := setup()
	eng.Spawn("p", func(p *sim.Proc) {
		const n = 512 << 10
		base, _ := as.Mmap(p, n, hw.NodeSlow, "in")
		want, err := FillInput(p, as, base, n, 1)
		if err != nil {
			t.Fatal(err)
		}
		var got uint64
		allocs := testing.AllocsPerRun(20, func() {
			if got, err = Triad.Consume(p, as, base, n, 0); err != nil {
				t.Fatal(err)
			}
		})
		t.Logf("%.0f allocs per %d-byte chunk", allocs, n)
		if allocs != 0 {
			t.Errorf("Consume allocates %.2f times per chunk, want 0", allocs)
		}
		if got != want {
			t.Errorf("checksum %#x, want %#x", got, want)
		}
	})
	eng.Run()
}

// fillByWrite is FillInput as it was before it generated in place: the
// pattern materialised in a zeroed buffer, copied in with Write, summed
// by sum64. It is the oracle of TestFillInputMatchesWrite.
func fillByWrite(p *sim.Proc, as *vm.AddressSpace, base, n int64, seed uint64) (uint64, error) {
	buf := make([]byte, n)
	x := seed*6364136223846793005 + 1442695040888963407
	for i := int64(0); i+8 <= n; i += 8 {
		x = x*6364136223846793005 + 1442695040888963407
		binary.LittleEndian.PutUint64(buf[i:], x)
	}
	if err := as.Write(p, base, buf); err != nil {
		return 0, err
	}
	return sum64(0, buf), nil
}

// TestFillInputMatchesWrite: generating the input in place leaves the
// same frame bytes, returns the same checksum, takes the same virtual
// time and leaves the same reference bits and TouchedBytes as writing a
// materialised copy of it: at word-aligned and unaligned starts, with
// words and tails split by page boundaries, over memory that held other
// bytes, with a TLB and on a dataless machine.
func TestFillInputMatchesWrite(t *testing.T) {
	var cases []consumeCase
	for _, off := range []int64{0, 3, 4093} {
		for _, n := range []int64{1, 7, 8, 13, 4095, 4096, 4099, 65541, 512 << 10} {
			for _, c := range []consumeCase{{}, {tlb: true}, {dataless: true}} {
				c.page, c.off, c.n = hw.Page4K, off, n
				cases = append(cases, c)
			}
		}
	}
	for i, c := range cases {
		seed := int64(i) + 1
		fill := uint64(i)*0x9e3779b9 + 1
		want := runConsume(t, c, seed, func(p *sim.Proc, as *vm.AddressSpace, addr int64) uint64 {
			sum, err := fillByWrite(p, as, addr, c.n, fill)
			if err != nil {
				t.Fatal(err)
			}
			return sum
		})
		got := runConsume(t, c, seed, func(p *sim.Proc, as *vm.AddressSpace, addr int64) uint64 {
			sum, err := FillInput(p, as, addr, c.n, fill)
			if err != nil {
				t.Fatal(err)
			}
			return sum
		})
		if got.sum != want.sum {
			t.Errorf("%+v: checksum %#x, write of the materialised input %#x", c, got.sum, want.sum)
		}
		if got.elapsed != want.elapsed {
			t.Errorf("%+v: fill took %d ns, write %d", c, got.elapsed, want.elapsed)
		}
		if got.touched != want.touched || !slices.Equal(got.ptes, want.ptes) {
			t.Errorf("%+v: fill left TouchedBytes %d, PTEs %#x; write %d, %#x", c, got.touched, got.ptes, want.touched, want.ptes)
		}
		if !slices.Equal(got.bytes, want.bytes) {
			at := 0
			for at < len(got.bytes) && got.bytes[at] == want.bytes[at] {
				at++
			}
			t.Errorf("%+v: frame bytes differ from write's, first at VMA offset %d", c, at)
		}
	}
}

// TestFillInputAllocGate: refilling a region whose frames already hold
// private bytes allocates nothing per call; a staging buffer would cost
// one n-byte allocation each time.
func TestFillInputAllocGate(t *testing.T) {
	eng, as := setup()
	eng.Spawn("p", func(p *sim.Proc) {
		const n = 512 << 10
		base, _ := as.Mmap(p, n, hw.NodeSlow, "in")
		if _, err := FillInput(p, as, base, n, 1); err != nil {
			t.Fatal(err)
		}
		seed := uint64(1)
		allocs := testing.AllocsPerRun(20, func() {
			seed++
			if _, err := FillInput(p, as, base, n, seed); err != nil {
				t.Fatal(err)
			}
		})
		t.Logf("%.0f allocs per %d-byte fill", allocs, n)
		if allocs != 0 {
			t.Errorf("FillInput allocates %.2f times per call, want 0", allocs)
		}
	})
	eng.Run()
}
