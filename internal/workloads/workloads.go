// Package workloads provides the streaming compute kernels of the
// case study (Section 6.6): the STREAM benchmark's add and triad kernels
// and a StreamCluster-pgain-like kernel from PARSEC.
//
// A kernel is modelled by its compute intensity: the CPU nanoseconds it
// spends per byte streamed, on top of the memory access time the backing
// node charges. The intensities are calibrated so that running each
// kernel entirely out of the slow DDR3 node reproduces the "Linux" row
// of Table 4 (1440 / 2384 / 2390 MB/s); the memif row then emerges from
// the runtime's prefetch behaviour rather than from calibration.
//
// The package also holds the simulated application's synchronous move
// loop: Await drains completions and MoveSync moves one region and waits
// for it. Both retrieve before they poll. The paper-figure drivers in
// internal/bench poll before they drain instead, and the two orders are
// different virtual-time programs: core.Device.RetrieveCompleted charges
// a queue op even when it finds nothing. So each order has one loop, and
// merging them would move the goldens.
package workloads

import (
	"encoding/binary"

	"memif/internal/sim"
	"memif/internal/vm"
)

// Kernel is one streaming compute kernel.
type Kernel struct {
	// Name as reported in Table 4.
	Name string
	// ComputePerByteNS is CPU time per byte consumed, excluding memory
	// access time.
	ComputePerByteNS float64
	// Reduce folds a consumed chunk into a running checksum, letting
	// examples and tests verify that the bytes streamed through the
	// fast buffers are the right ones. May be nil. Consume feeds it the
	// chunk in pieces, every piece but the last a multiple of 8 bytes
	// long, so Reduce(Reduce(a, x), y) == Reduce(a, x‖y) must hold
	// whenever len(x)%8 == 0. A piece may be a frame's own bytes: Reduce
	// must neither write it nor keep it.
	Reduce func(acc uint64, chunk []byte) uint64
}

// sum64 folds 8-byte words of the chunk into the accumulator, then the
// tail bytes one at a time. Four independent sums keep the adds off one
// dependency chain; addition mod 2^64 commutes, so the result is exact.
func sum64(acc uint64, chunk []byte) uint64 {
	var a1, a2, a3 uint64
	for len(chunk) >= 32 {
		acc += binary.LittleEndian.Uint64(chunk)
		a1 += binary.LittleEndian.Uint64(chunk[8:])
		a2 += binary.LittleEndian.Uint64(chunk[16:])
		a3 += binary.LittleEndian.Uint64(chunk[24:])
		chunk = chunk[32:]
	}
	acc += a1 + a2 + a3
	for len(chunk) >= 8 {
		acc += binary.LittleEndian.Uint64(chunk)
		chunk = chunk[8:]
	}
	for _, b := range chunk {
		acc += uint64(b)
	}
	return acc
}

// The three kernels of Table 4, plus the remaining two STREAM kernels
// (the paper ports add and triad; copy and scale complete the suite).
var (
	// Triad is STREAM's a[i] = b[i] + q*c[i].
	Triad = Kernel{Name: "STREAM.triad", ComputePerByteNS: 0.2581, Reduce: sum64}
	// Add is STREAM's a[i] = b[i] + c[i].
	Add = Kernel{Name: "STREAM.add", ComputePerByteNS: 0.2570, Reduce: sum64}
	// Copy is STREAM's a[i] = b[i]: almost no compute, pure bandwidth.
	Copy = Kernel{Name: "STREAM.copy", ComputePerByteNS: 0.1550, Reduce: sum64}
	// Scale is STREAM's a[i] = q*b[i].
	Scale = Kernel{Name: "STREAM.scale", ComputePerByteNS: 0.1710, Reduce: sum64}
	// PGain is the pgain phase of PARSEC's StreamCluster: for every
	// point, evaluate the cost change of opening a new median. Higher
	// compute per byte than STREAM.
	PGain = Kernel{Name: "StreamCluster.pgain", ComputePerByteNS: 0.5330, Reduce: sum64}
)

// All lists the Table 4 kernels in the paper's column order.
var All = []Kernel{PGain, Triad, Add}

// STREAMSuite lists the full STREAM kernel set.
var STREAMSuite = []Kernel{Copy, Scale, Add, Triad}

// Consume processes n bytes at addr in place: it views them through the
// address space (charging the backing node's bandwidth, as a copy would),
// folds each page into the checksum at the instant it is touched, and
// spends the kernel's compute time. It returns the updated accumulator.
func (k Kernel) Consume(p *sim.Proc, as *vm.AddressSpace, addr, n int64, acc uint64, meters ...*sim.Meter) (uint64, error) {
	// carry gathers a word split by a page boundary; a chunk of whole
	// words never needs it, so it allocates nothing.
	var carry []byte
	fold := func(page []byte) {
		if k.Reduce == nil {
			return
		}
		if len(carry) > 0 {
			m := min(8-len(carry), len(page))
			carry, page = append(carry, page[:m]...), page[m:]
			if len(carry) < 8 {
				return // the chunk ended inside the word
			}
			acc, carry = k.Reduce(acc, carry), carry[:0]
		}
		whole := len(page) &^ 7
		acc = k.Reduce(acc, page[:whole])
		carry = append(carry, page[whole:]...)
	}
	if err := as.View(p, addr, n, fold, meters...); err != nil {
		return acc, err
	}
	p.Busy(int64(float64(n)*k.ComputePerByteNS), meters...)
	if len(carry) > 0 {
		acc = k.Reduce(acc, carry)
	}
	return acc, nil
}

// FillInput writes a deterministic pattern into [base, base+n) and
// returns the checksum the kernels' Reduce would produce over it, for
// end-to-end verification. The pattern is generated straight into the
// frames' bytes, and summed as it is generated. It charges what Write of
// the pattern would.
func FillInput(p *sim.Proc, as *vm.AddressSpace, base, n int64, seed uint64) (uint64, error) {
	g := newPattern(seed, n)
	if err := as.WriteInPlace(p, base, n, g.write); err != nil {
		return 0, err
	}
	return g.finish(), nil
}

// The pattern is one LCG step, x' = lcgMul·x + lcgAdd, per 8-byte
// little-endian word, and a zero tail of n%8 bytes. Four lanes each jump
// four steps at once, x' = m⁴·x + a·(m³+m²+m+1), so no step waits on the
// one before it; TestChecksumPins holds the bytes.
const (
	lcgMul = 6364136223846793005
	lcgAdd = 1442695040888963407
)

// The jump-ahead step is held in variables, not constants: the compiler
// keeps a variable in a register across the loop, where it rebuilds a
// 64-bit constant before every multiply.
var (
	lcgMul4 uint64 = lcgMul * lcgMul * lcgMul * lcgMul % (1 << 64)
	lcgAdd4 uint64 = lcgAdd * (lcgMul*lcgMul*lcgMul + lcgMul*lcgMul + lcgMul + 1) % (1 << 64)
)

// pattern generates FillInput's words into successive pieces of the
// range. A piece boundary that splits a word (base%8 != 0) leaves the
// word in word with part of its bytes written.
type pattern struct {
	lanes [4]uint64 // the next four words
	left  int64     // words not generated yet
	sum   uint64    // of the words generated
	word  [8]byte
	part  int // bytes of word written; 0 when no word is split
}

func newPattern(seed uint64, n int64) *pattern {
	g := &pattern{left: n / 8}
	x := seed*lcgMul + lcgAdd
	for i := range g.lanes {
		x = x*lcgMul + lcgAdd
		g.lanes[i] = x
	}
	return g
}

// next generates one word.
func (g *pattern) next() uint64 {
	w := g.lanes[0]
	g.lanes = [4]uint64{g.lanes[1], g.lanes[2], g.lanes[3], w*lcgMul4 + lcgAdd4}
	g.left--
	g.sum += w
	return w
}

// write fills the next piece of the range.
func (g *pattern) write(b []byte) {
	if g.part > 0 {
		c := copy(b, g.word[g.part:])
		g.part = (g.part + c) % 8
		b = b[c:]
	}
	x0, x1, x2, x3, sum, left := g.lanes[0], g.lanes[1], g.lanes[2], g.lanes[3], g.sum, g.left
	for len(b) >= 32 && left >= 4 {
		binary.LittleEndian.PutUint64(b, x0)
		binary.LittleEndian.PutUint64(b[8:], x1)
		binary.LittleEndian.PutUint64(b[16:], x2)
		binary.LittleEndian.PutUint64(b[24:], x3)
		sum += x0 + x1 + x2 + x3
		x0, x1, x2, x3 = x0*lcgMul4+lcgAdd4, x1*lcgMul4+lcgAdd4, x2*lcgMul4+lcgAdd4, x3*lcgMul4+lcgAdd4
		b, left = b[32:], left-4
	}
	g.lanes, g.sum, g.left = [4]uint64{x0, x1, x2, x3}, sum, left
	for len(b) >= 8 && g.left > 0 {
		binary.LittleEndian.PutUint64(b, g.next())
		b = b[8:]
	}
	if len(b) > 0 && g.left > 0 {
		binary.LittleEndian.PutUint64(g.word[:], g.next())
		g.part = copy(b, g.word[:])
		b = b[g.part:]
	}
	clear(b) // the tail, as Write of a zeroed buffer would leave it
}

// finish generates the words no piece took, all of them in dataless
// mode, and returns the checksum.
func (g *pattern) finish() uint64 {
	for g.left > 0 {
		g.next()
	}
	return g.sum
}
