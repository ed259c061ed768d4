// SPEC95 benchmark models: ijpeg, fpppp, gcc, wave5.
//
// ijpeg, fpppp and wave5 carry the regular, compiler-prefetchable access
// patterns (block-strided and sequential sweeps) where hardware
// next-sequence prefetching earns its keep; gcc is the irregular, branchy
// control-code counterpoint whose prefetches the paper observes to be
// mostly ineffective.
package workload

import (
	"sync"

	"repro/internal/isa"
	"repro/internal/xrand"
)

func init() {
	register(Spec{
		Name:        "ijpeg",
		Suite:       "spec95",
		Input:       "penguin.ppm",
		PaperL1Miss: 0.0565,
		PaperL2Miss: 0.0235,
		New:         newIJpeg,
	})
	register(Spec{
		Name:        "fpppp",
		Suite:       "spec95",
		Input:       "natoms.in",
		PaperL1Miss: 0.0807,
		PaperL2Miss: 0.0003,
		New:         newFpppp,
	})
	register(Spec{
		Name:        "gcc",
		Suite:       "spec95",
		Input:       "cp-decl.i",
		PaperL1Miss: 0.0551,
		PaperL2Miss: 0.0221,
		New:         newGCC,
	})
	register(Spec{
		Name:        "wave5",
		Suite:       "spec95",
		Input:       "wave5.in",
		PaperL1Miss: 0.1387,
		PaperL2Miss: 0.0209,
		New:         newWave5,
	})
}

// --- ijpeg: JPEG compression ------------------------------------------------
//
// Shape: 8x8 pixel blocks pulled from a row-strided image, a DCT-like
// compute burst on locals, quantization against a hot table, and a
// sequential output stream. The compiler inserts prefetches for the next
// block's rows (regular, accurate). A fraction of blocks re-reads a
// recently processed reference block (motion of the working set keeps some
// L2 locality).

func newIJpeg(seed uint64) isa.Source {
	const (
		srcBytes   = 4 << 20    // raw input scanned once per pass (misses L2)
		imageBytes = 256 * 1024 // working image; mostly L2-resident
		rowStride  = 1024       // bytes between vertically adjacent pixels
		blockSize  = 8
		localsPer  = 9
		pfDistance = 2 // blocks ahead in the inner (X) loop
	)
	image := Region{Base: stagger(heapBase, 1), Size: imageBytes}
	src := Region{Base: stagger(heapBase+0x0800_0000, 5), Size: srcBytes}
	out := Region{Base: stagger(heap2Base, 2), Size: imageBytes / 2}
	quant := Region{Base: stagger(heap3Base, 3), Size: 2048}
	stack := Region{Base: stagger(stackBase, 4), Size: 4096}

	blockX, blockY := uint64(0), uint64(0)
	outPos := uint64(0)
	srcPos := uint64(0)
	return newGen(seed, func(e *E) {
		e.SetCtx(64)
		base := blockY*blockSize*rowStride + blockX*blockSize
		// Fetch the block, row by row.
		for r := uint64(0); r < blockSize; r++ {
			rowAddr := image.At(base + r*rowStride)
			e.Load(0+r, rowAddr)
			e.Load(8+r, rowAddr+8)
			// Compiler-inserted prefetch: same rows, two blocks ahead in
			// the inner loop (short, accurate distance).
			if r == 0 {
				e.SoftPF(16, image.At(base+pfDistance*blockSize))
			}
			// Per-row compute on locals.
			for l := 0; l < localsPer; l++ {
				if l%3 == 0 {
					e.Load(20+uint64(l), stack.At(uint64(l)*8))
				} else {
					e.ALU(30 + uint64(l))
				}
			}
		}
		// DCT/quantization burst.
		e.ALUBlock(40, 20)
		for q := uint64(0); q < 8; q++ {
			e.Load(60+q, quant.At(q*32))
			e.ALU(70 + q)
		}
		// Entropy-coded output, sequential.
		for w := uint64(0); w < 4; w++ {
			e.Store(80+w, out.At(outPos))
			outPos += 8
		}
		// Pull fresh raw pixels from the scanned input file.
		e.Load(85, src.At(srcPos))
		srcPos += 6
		e.CondBranch(90, 0.65) // coefficient significance test
		e.LoopBranch(91, true)

		blockX++
		if blockX >= rowStride/blockSize {
			blockX = 0
			blockY = (blockY + 1) % (imageBytes / (blockSize * rowStride))
		}
	})
}

// --- fpppp: quantum chemistry two-electron integrals -------------------------
//
// Shape: extremely dense floating-point compute over a working set an
// order of magnitude larger than the L1 but tiny next to the L2, swept
// almost sequentially. The enormous basic blocks of the original appear
// as long ALU bursts between memory references.

func newFpppp(seed uint64) isa.Source {
	const (
		dataBytes = 96 * 1024
		pfAhead   = 6 // lines of software prefetch distance
	)
	data := Region{Base: stagger(heapBase, 1), Size: dataBytes}
	stack := Region{Base: stagger(stackBase, 2), Size: 2048}

	line := uint64(0)
	return newGen(seed, func(e *E) {
		e.SetCtx(48)
		addr := data.Line(line)
		e.Load(0, addr)
		e.Load(1, addr+8)
		e.SoftPF(2, data.Line(line+pfAhead))
		// Long FP burst with register/stack traffic.
		for l := uint64(0); l < 9; l++ {
			e.Load(10+l, stack.At(l*8))
			e.ALUBlock(20+l*3, 3)
		}
		e.Store(40, addr+16)
		e.ALUBlock(41, 6)
		e.LoopBranch(50, true)

		line = (line + 1) % data.Lines()
	})
}

// --- gcc: compiler -----------------------------------------------------------
//
// Shape: short pointer chains over a megabyte of small heap objects with a
// Zipf-hot head, dense unpredictable branching, and little regularity —
// the benchmark whose prefetches the paper notes are "already ineffective"
// and get almost entirely filtered.

// gccObjects is the number of heap objects in gcc's parse/RTL pool.
const gccObjects = 5632

// gccZipf is gcc's object-popularity sampler: a skewed distribution whose
// hot head stays cache-resident while the long tail generates the misses.
// A Zipf is read-only once built, so every gcc source shares one rather
// than computing its CDF (one math.Pow per object) per cell.
var gccZipf = sync.OnceValue(func() *xrand.Zipf { return xrand.NewZipf(gccObjects, 1.25) })

func newGCC(seed uint64) isa.Source {
	const (
		objSlot   = 64                   // 32B object + allocator padding/cold fields
		heapBytes = gccObjects * objSlot // 352 KB: fits the L2, dwarfs the L1
		chainLen  = 3
	)
	heap := Region{Base: stagger(heapBase, 1), Size: heapBytes}
	stack := Region{Base: stagger(stackBase, 2), Size: 4096}

	zipf := gccZipf()
	return newGen(seed, func(e *E) {
		e.SetCtx(96)
		// Walk a short chain of tree/rtx objects.
		for c := uint64(0); c < chainLen; c++ {
			obj := uint64(zipf.Draw(e.Rng))
			e.DepLoad(0+c, heap.At(obj*objSlot))
			e.CondBranch(10+c, 0.55) // tree-code dispatch, hard to predict
			e.ALUBlock(20+c*2, 2)
		}
		// Symbol table / local frame traffic.
		for l := uint64(0); l < 20; l++ {
			if l%2 == 0 {
				e.Load(40+l, stack.At(l*8))
			} else {
				e.ALU(50 + l)
			}
		}
		e.Store(60, stack.At(64))
		e.CondBranch(61, 0.5)
		e.LoopBranch(62, true)
	})
}

// --- wave5: plasma physics ----------------------------------------------------
//
// Shape: unit-stride sweeps over several particle/field arrays that
// together fit the L2 but dwarf the L1, with an occasional scatter phase
// indexing a larger grid — the classic vector-style code where sequential
// prefetching is highly effective.

func newWave5(seed uint64) isa.Source {
	const (
		arrays     = 6
		arrayBytes = 64 * 1024 // 6 x 64KB = 384KB total
		gridBytes  = 2 << 20   // scatter target, exceeds the L2
		elemBytes  = 8
		pfAhead    = 8
	)
	var arr [arrays]Region
	for i := range arr {
		arr[i] = Region{Base: stagger(heapBase+uint64(i)*0x0100_0000, i+1), Size: arrayBytes}
	}
	grid := Region{Base: stagger(heap3Base, 7), Size: gridBytes}
	stack := Region{Base: stagger(stackBase, 8), Size: 2048}

	pos := uint64(0)
	return newGen(seed, func(e *E) {
		e.SetCtx(48)
		off := pos * elemBytes
		// a[i] = f(b[i], c[i]) style triad across the arrays.
		e.Load(0, arr[0].At(off))
		e.Load(1, arr[1].At(off))
		e.Load(2, arr[2].At(off))
		if off%LineBytes == 0 {
			e.SoftPF(3, arr[0].At(off+pfAhead*LineBytes))
			e.SoftPF(4, arr[1].At(off+pfAhead*LineBytes))
		}
		e.Load(10, stack.At(0))
		e.Load(11, stack.At(8))
		e.ALUBlock(12, 5)
		e.Store(20, arr[3].At(off))
		// Occasional particle-to-grid scatter.
		if pos%64 == 0 {
			g := e.Rng.Uint64n(grid.Lines())
			e.Load(30, grid.Line(g))
			e.Store(31, grid.Line(g))
		}
		e.CondBranch(40, 0.8)
		e.LoopBranch(41, true)

		pos = (pos + 1) % (arrayBytes / elemBytes)
	})
}
