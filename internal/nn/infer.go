package nn

import "math"

// Inference-only kernels: a bump-allocated scratch arena (Workspace), the one
// forward kernel (Layer.Forward), and CSR-style segment pooling. These power
// the packed ragged-batch engine in internal/mscn and the packed trainer's
// forward. They are deliberately serial and allocation-free: concurrency
// comes from running independent forward passes on separate arenas (one per
// goroutine), not from fanning a single pass across cores. The training
// path keeps the tape-friendly allocating functions in layers.go.
//
// Layer.Forward runs every MSCN layer, on weights stored transposed
// ([in][out]) — ForwardRuns the set modules' first layers, on the valued
// runs of indexed.go: each output is summed from +0, in ascending k, over
// the input's non-zero columns, then the bias, then the ReLU. On amd64 with
// AVX-512, a layer whose width is a multiple of 32 keeps its outputs in
// registers (tile_amd64.s): dense rows four at a time over the union of
// their columns, valued runs and leftover rows one at a time. A dense row
// of a width-1 layer (the output) is one scalar dot. Every other row runs
// a zeroed output row plus one y += x[k]·Wᵀ[k] per column (axpy, assembly
// on amd64 with AVX). Vectorising across the outputs and sharing columns
// across rows leave each output's summation order alone, so every output
// is gemmBias's in every bit (see Layer.Forward's contract). gemmBias, the
// scalar 2×4-tiled GEMM on [out][in] weights, is kept only behind
// Linear.ForwardFused, as a benchmark rung and the tests' reference.
//
// No product here is fused with the sum it feeds: the Go spec lets a port
// compute x*y + z with one rounding (arm64 does) unless the product is
// converted explicitly, so every pure-Go kernel of the package writes
// float64(x*y).
//
// Every kernel is float64, the reference engine's, the packed trainer's
// and the f32 engine's alike: f32 is a storage precision, weights rounded
// through single precision once per snapshot (Layer.RoundToSingle) and
// then run by these same kernels, so no forward has a second arithmetic.
// Training stays entirely float64 (Adam moments, gradient accumulation, the
// backward kernels) on unrounded weights.

// Workspace is a reusable scratch arena for forward passes. Alloc
// hands out matrices backed by one contiguous buffer via bump allocation;
// Reset recycles the whole arena without freeing. After the buffer has grown
// to a steady-state batch shape, a Reserve/Alloc cycle performs zero heap
// allocations.
//
// Ownership rules: a Workspace may serve at most one forward pass at a time —
// it is NOT safe for concurrent use. Matrices returned by Alloc alias the
// arena and die at the next Reset/Reserve; callers must copy anything they
// keep. Pool workspaces (e.g. sync.Pool) to serve concurrent traffic.
type Workspace struct {
	buf  []float64
	off  int
	cols []uint32 // Layer.Forward's column list for a four-row tile
	runs []Run    // a dense row's non-zero columns as runs (denseRuns)
	rows []int    // a caller's row list (RowList)
}

// Reserve resets the arena and ensures capacity for n elements, so that
// subsequent Allocs totalling at most n cannot grow the buffer mid-pass.
//
//deepsketch:zeroalloc
func (w *Workspace) Reserve(n int) {
	if cap(w.buf) < n {
		//deepsketch:ignore zeroalloc amortized arena growth; steady state never reallocates
		w.buf = make([]float64, n)
	} else {
		w.buf = w.buf[:cap(w.buf)]
	}
	w.off = 0
}

// columns returns the workspace's column list at length n, growing it once
// when it is shorter. Its contents are stale.
//
//deepsketch:zeroalloc
func (w *Workspace) columns(n int) []uint32 {
	if cap(w.cols) < n {
		//deepsketch:ignore zeroalloc amortized growth to the widest layer; steady state never reallocates
		w.cols = make([]uint32, n)
	}
	return w.cols[:n]
}

// denseRuns returns the dense row x's non-zero columns as runs of one
// column each, in the workspace's run list, which it grows once when it is
// shorter than x. It stays valid until the next denseRuns call.
//
//deepsketch:zeroalloc
func (w *Workspace) denseRuns(x []float64) []Run {
	if cap(w.runs) < len(x) {
		//deepsketch:ignore zeroalloc amortized growth to the widest layer; steady state never reallocates
		w.runs = make([]Run, len(x))
	}
	runs := w.runs[:len(x)]
	n := 0
	for k, v := range x {
		if v != 0 {
			runs[n] = Run{uint32(k), uint32(k + 1), v}
			n++
		}
	}
	return runs[:n]
}

// RowList returns a row list of length n for a caller to fill and hand to
// Layer.Forward, growing it once when it is shorter. Its contents are stale,
// and it stays valid until the next RowList call; Forward does not touch it.
//
//deepsketch:zeroalloc
func (w *Workspace) RowList(n int) []int {
	if cap(w.rows) < n {
		//deepsketch:ignore zeroalloc amortized growth to the largest batch; steady state never reallocates
		w.rows = make([]int, n)
	}
	return w.rows[:n]
}

// Reset recycles the arena, invalidating previously allocated matrices.
func (w *Workspace) Reset() { w.off = 0 }

// Alloc returns a rows×cols matrix carved from the arena. Contents are
// uninitialized — every kernel writing into it must overwrite or zero it.
// Growth (when Reserve underestimated) leaves earlier matrices valid on the
// old backing array.
//
//deepsketch:zeroalloc
func (w *Workspace) Alloc(rows, cols int) Matrix {
	n := rows * cols
	if w.off+n > len(w.buf) {
		grow := 2 * len(w.buf)
		if grow < n {
			grow = n
		}
		//deepsketch:ignore zeroalloc amortized arena growth; steady state never reallocates
		w.buf = make([]float64, grow)
		w.off = 0
	}
	m := Matrix{Rows: rows, Cols: cols, Data: w.buf[w.off : w.off+n : w.off+n]}
	w.off += n
	return m
}

// Layer is the inference view of a Linear, with W stored transposed: WT
// is row-major [in][out], so the weights input k multiplies are one
// contiguous row, WT[k·Out:(k+1)·Out]. It holds no gradients and is
// a copy: Transpose refreshes it from the Linear's live float64 parameters
// (an mscn engine once, as it is built; the packed trainer once per
// step, its rows split across the trainer's workers).
type Layer struct {
	In, Out int
	WT, B   []float64
}

// NewLayer returns a Layer of l's shape holding l's current weights, W
// transposed: its buffers are allocated here and reused by every later
// Transpose into it.
func NewLayer(l *Linear) Layer {
	dst := Layer{In: l.In, Out: l.Out, WT: make([]float64, len(l.W.Data)), B: make([]float64, len(l.B.Data))}
	Transpose(&dst, l, 0, l.In)
	return dst
}

// transposeBlock is the edge of the square blocks Transpose copies: 8×8
// float64 are eight cache lines read and eight written per block.
const transposeBlock = 8

// Transpose copies rows lo..hi of WT from l's current weights — the
// weights inputs lo..hi multiply, column k of W becoming row k of WT — and,
// when the range holds row 0, the bias. dst must have l's shape
// (NewLayer). It writes nothing else, so calls on disjoint ranges of one
// dst may run concurrently. The copy walks transposeBlock×transposeBlock
// blocks, so each W row and each WT row it touches stays in cache for a
// whole block.
func Transpose(dst *Layer, l *Linear, lo, hi int) {
	in, out := l.In, l.Out
	if dst.In != in || dst.Out != out || len(dst.WT) != len(l.W.Data) || len(dst.B) != len(l.B.Data) {
		panic("nn: Transpose into a Layer of another shape")
	}
	if lo < 0 || hi > in || lo > hi {
		panic("nn: Transpose rows out of range")
	}
	w, wt := l.W.Data, dst.WT
	for k0 := lo; k0 < hi; k0 += transposeBlock {
		k1 := min(k0+transposeBlock, hi)
		for o0 := 0; o0 < out; o0 += transposeBlock {
			o1 := min(o0+transposeBlock, out)
			for o := o0; o < o1; o++ {
				for k, v := range w[o*in+k0 : o*in+k1] {
					wt[(k0+k)*out+o] = v
				}
			}
		}
	}
	if lo == 0 && hi > 0 {
		copy(dst.B, l.B.Data)
	}
}

// RoundToSingle rounds every weight and bias of l in place to the nearest
// value IEEE single precision holds (ties to even, ±Inf past its range):
// the value converting it to a 32-bit float and back returns. It is how
// the f32 engine stores its weights; the forward then runs on them in
// float64 like any other layer.
func (l *Layer) RoundToSingle() {
	for _, s := range [2][]float64{l.WT, l.B} {
		for i, v := range s {
			s[i] = roundToSingle(v)
		}
	}
}

// roundToSingle is RoundToSingle for one value. It is computed in float64
// arithmetic, exact at every step, so that the package holds no second
// float type: a single keeps 24 significant bits, down to a quantum of
// 2⁻¹⁴⁹ (its subnormals), so v scaled by a power of two to put that
// quantum at 1 is rounded to an integer (ties to even) and scaled back.
// Past MaxFloat32 the rounded value overflows to ±Inf; zeros, NaNs and
// infinities return unchanged. TestRoundToSingleMatchesConversion checks
// it against the conversion bit for bit.
func roundToSingle(v float64) float64 {
	if v == 0 || math.IsNaN(v) || math.IsInf(v, 0) {
		return v
	}
	_, exp := math.Frexp(v) // |v| in [2^(exp-1), 2^exp)
	q := max(exp-24, -149)
	r := math.Ldexp(math.RoundToEven(math.Ldexp(v, -q)), q)
	if math.Abs(r) > math.MaxFloat32 {
		return math.Inf(int(math.Copysign(1, v)))
	}
	return r
}

// Forward computes the rows of y = x·W + b that rows lists (every row of x
// when rows is nil), fusing the ReLU when relu is set. Each output is summed
// from +0 over the non-zero columns k of its input row in ascending order,
// one term x[k]·WT[k] at a time, then the bias is added, then the ReLU;
// every column is tested with x[k] != 0, which skips the zeros a previous
// ReLU left. The row list lets a caller that already knows some rows'
// outputs skip them; other rows of y are not written. ws holds the kernel's
// column and run lists (not its arena: Forward allocates no matrix from
// it). Forward runs on the calling goroutine only and performs no
// allocations once ws has grown to the layer's width. y must be
// x.Rows×l.Out and may not alias x.
//
// Two kernels compute that sum. Where the CPU has AVX-512F and Out is a
// multiple of 32, the tiled kernel keeps its outputs in registers
// (tile_amd64.s): a dense layer takes its rows four at a time over the
// columns where any of the four is non-zero (tile4), an indexed layer or a
// leftover row one at a time over its valued runs (tile1; a dense row's
// non-zero columns are runs of one, denseRuns). A dense row of a width-1
// layer is one scalar dot over its non-zero columns (dot). Everywhere else
// each row is a zeroed output row plus one axpy per column of its runs
// (forwardAxpy), the reference.
//
// Contract: gemmBias sums every output in ascending k from a zero
// accumulator and adds the bias last, and so do both kernels, output by
// output; the terms gemmBias has and they leave out, and the terms a tile
// adds for another row's columns, have x[k] == 0, and adding 0·w changes
// no bit of an accumulator that started at +0 — provided w is finite
// (0·±Inf and 0·NaN are NaN). For finite weights and NaN-free inputs the
// result therefore equals gemmBias's in every bit, at any fill, on either
// kernel. A NaN input's payload is held only between the tiles, the dot
// and the axpy loop, which keep the same one (TestForwardWidthOne,
// TestForwardTileMatchesAxpy); gemmBias orders its operands the other way,
// so where two NaNs of different payloads meet it may keep the other.
//
//deepsketch:zeroalloc
func (l Layer) Forward(x Matrix, y Matrix, rows []int, relu bool, ws *Workspace) {
	l.forward(x, nil, y, rows, relu, ws, l.tiled())
}

// ForwardRuns is Forward on the matrix ix holds as valued runs — the first
// layer of each set module, whose rows are one-hots, bitmaps and predicate
// triples. Each output sums, in ascending k over the runs' columns, the
// term V·WT[k] of the run holding column k, which is x[k]·WT[k] on the
// dense row: every output is Forward's on that row, and gemmBias's, in
// every bit. The tile broadcasts each run's value once and steps through
// its columns' rows of Wᵀ; the axpy loop runs one axpy per column. y must
// be ix.Rows()×l.Out.
//
//deepsketch:zeroalloc
func (l Layer) ForwardRuns(ix *RunIndex, y Matrix, rows []int, relu bool, ws *Workspace) {
	l.forward(Matrix{}, ix, y, rows, relu, ws, l.tiled())
}

// tiled reports whether Forward runs the assembly tiles on l: the CPU has
// them and Out is a positive multiple of 32.
//
//deepsketch:zeroalloc
func (l Layer) tiled() bool { return useTile && l.In > 0 && l.Out > 0 && l.Out%32 == 0 }

// forward is Forward on x (ix nil) or ForwardRuns on ix, on the kernel
// tiled selects: the assembly tiles (which need useTile and Out a positive
// multiple of 32) or forwardAxpy; a dense width-1 layer takes dot either
// way. The bitwise tests run each against forwardAxpy on one input.
//
//deepsketch:zeroalloc
func (l Layer) forward(x Matrix, ix *RunIndex, y Matrix, rows []int, relu bool, ws *Workspace, tiled bool) {
	n, cols := x.Rows, x.Cols
	if ix != nil {
		n, cols = ix.Rows(), ix.Cols()
	}
	if cols != l.In || y.Rows != n || y.Cols != l.Out {
		panic("nn: Layer.Forward dimension mismatch")
	}
	if len(l.WT) != l.In*l.Out || len(l.B) != l.Out {
		panic("nn: Layer.Forward weight size mismatch")
	}
	if rows != nil {
		n = len(rows)
	}
	i := 0
	if tiled && ix == nil {
		for ; i+4 <= n; i += 4 {
			l.tileBlock(x, y, rows, i, relu, ws)
		}
	}
	for ; i < n; i++ {
		r := rowAt(rows, i)
		if ix == nil && l.Out == 1 {
			l.dot(x.Row(r), &y.Row(r)[0], relu)
			continue
		}
		var runs []Run
		if ix != nil {
			runs = ix.Row(r)
			for _, run := range runs {
				if int(run.Hi) > l.In || run.Lo >= run.Hi {
					panic("nn: run past the row, or empty")
				}
			}
		} else {
			runs = ws.denseRuns(x.Row(r))
		}
		if tiled {
			tile1(&l.WT[0], l.Out, runs, &y.Row(r)[0], &l.B[0], relu)
		} else {
			l.forwardAxpy(runs, y.Row(r), relu)
		}
	}
}

// rowAt is the i-th row a forward computes: rows[i], or i when rows is nil.
//
//deepsketch:zeroalloc
func rowAt(rows []int, i int) int {
	if rows == nil {
		return i
	}
	return rows[i]
}

// forwardAxpy computes one output row yr from its input's valued runs: a
// zeroed row plus yr += V·WT[k] (axpy) for each column k of each run, then
// the bias and the ReLU. Every run ends within l.In. It is the kernel
// wherever there is no tile, and the reference the tiles are tested
// against.
//
//deepsketch:zeroalloc
func (l Layer) forwardAxpy(runs []Run, yr []float64, relu bool) {
	out := l.Out
	clear(yr)
	for _, run := range runs {
		for k := int(run.Lo); k < int(run.Hi); k++ {
			axpy(run.V, l.WT[k*out:(k+1)*out], yr)
		}
	}
	for o, b := range l.B[:out] {
		v := yr[o] + b
		if relu {
			v = relu1(v)
		}
		yr[o] = v
	}
}

// dot computes the one output of a width-1 layer (Out == 1) from its dense
// input row x into y: the terms x[k]·WT[k] of the non-zero columns summed
// from +0 in ascending k, then the bias, then the ReLU — forwardAxpy's
// arithmetic on denseRuns(x), with no run list and no axpy call. The sum
// accumulates in y itself and each term is written Wᵀ[k]·x[k] + y, in
// axpyGo's operand order, so that which NaN an operation propagates is the
// axpy's too. Each product is converted explicitly, so no port fuses it
// with the sum.
//
//deepsketch:zeroalloc
func (l Layer) dot(x []float64, y *float64, relu bool) {
	w := l.WT[:len(x)]
	*y = 0
	for k, v := range x {
		if v != 0 {
			*y = float64(w[k]*v) + *y
		}
	}
	a := *y + l.B[0]
	if relu {
		a = relu1(a)
	}
	*y = a
}

// tileBlock computes the four rows rowAt(rows, i..i+3) of a dense layer in
// one tile4 call, over the ascending list of columns where any of them is
// non-zero. The union takes no branch: the four values' bits are or-ed and
// their signs shifted out, which leaves 0 exactly when all four are ±0 (a
// NaN is non-zero, as x[k] != 0 has it), every column is written to the
// list and the count advances by one when that word is not 0. Each column
// is < l.In by construction.
//
//deepsketch:zeroalloc
func (l Layer) tileBlock(x, y Matrix, rows []int, i int, relu bool, ws *Workspace) {
	var xs, ys [4]*float64
	var xr [4][]float64
	for j := range xr {
		r := rowAt(rows, i+j)
		xr[j] = x.Row(r)[:l.In]
		xs[j], ys[j] = &xr[j][0], &y.Row(r)[0]
	}
	cols := ws.columns(l.In)
	x0, x1, x2, x3 := xr[0][:len(cols)], xr[1][:len(cols)], xr[2][:len(cols)], xr[3][:len(cols)]
	c := 0
	for k := range cols {
		nz := (math.Float64bits(x0[k]) | math.Float64bits(x1[k]) | math.Float64bits(x2[k]) | math.Float64bits(x3[k])) << 1
		cols[c] = uint32(k)
		c += int((nz | -nz) >> 63)
	}
	tile4(&l.WT[0], l.Out, cols[:c], &xs, &ys, &l.B[0], relu)
}

// ForwardFused computes y = x·Wᵀ + b into the preallocated y, optionally
// fusing ReLU, with gemmBias on the live [out][in] weights. Nothing serves
// or trains through it: it is the benchmark's GEMM rung (nn.gemm_us) and,
// with gemmBias, the reference Layer.Forward is tested against bit for bit.
//
//deepsketch:zeroalloc
func (l *Linear) ForwardFused(x, y Matrix, relu bool) {
	if x.Cols != l.In || y.Rows != x.Rows || y.Cols != l.Out {
		panic("nn: ForwardFused dimension mismatch")
	}
	gemmBias(x, l.W.Data, l.B.Data, y, relu)
}

// gemmBias is the serial blocked kernel behind Linear.ForwardFused: 2 rows
// × 4 output units per tile, 8 independent accumulators, one pass over the
// shared inner dimension. The tile size is chosen for scalar Go on x86-64:
// 8 accumulators + 6 streamed values stay within the 16 vector registers
// (a 4×4 tile's 24 live floats spill and run slower), while each k-step
// still amortizes 6 loads over 8 multiply-adds — ~2.7× the arithmetic
// intensity of a per-element dot loop.
//
//deepsketch:zeroalloc
func gemmBias(x Matrix, w, bias []float64, y Matrix, relu bool) {
	in, out, n := x.Cols, y.Cols, x.Rows
	r := 0
	for ; r+2 <= n; r += 2 {
		x0 := x.Row(r)
		x1 := x.Row(r + 1)
		y0 := y.Row(r)
		y1 := y.Row(r + 1)
		o := 0
		for ; o+4 <= out; o += 4 {
			w0 := w[o*in : o*in+in]
			w1 := w[(o+1)*in : (o+1)*in+in]
			w2 := w[(o+2)*in : (o+2)*in+in]
			w3 := w[(o+3)*in : (o+3)*in+in]
			var a00, a01, a02, a03 float64
			var a10, a11, a12, a13 float64
			for k := 0; k < in; k++ {
				xv0, xv1 := x0[k], x1[k]
				wv0, wv1, wv2, wv3 := w0[k], w1[k], w2[k], w3[k]
				a00 += float64(xv0 * wv0)
				a01 += float64(xv0 * wv1)
				a02 += float64(xv0 * wv2)
				a03 += float64(xv0 * wv3)
				a10 += float64(xv1 * wv0)
				a11 += float64(xv1 * wv1)
				a12 += float64(xv1 * wv2)
				a13 += float64(xv1 * wv3)
			}
			b0, b1, b2, b3 := bias[o], bias[o+1], bias[o+2], bias[o+3]
			a00 += b0
			a01 += b1
			a02 += b2
			a03 += b3
			a10 += b0
			a11 += b1
			a12 += b2
			a13 += b3
			if relu {
				a00 = relu1(a00)
				a01 = relu1(a01)
				a02 = relu1(a02)
				a03 = relu1(a03)
				a10 = relu1(a10)
				a11 = relu1(a11)
				a12 = relu1(a12)
				a13 = relu1(a13)
			}
			y0[o], y0[o+1], y0[o+2], y0[o+3] = a00, a01, a02, a03
			y1[o], y1[o+1], y1[o+2], y1[o+3] = a10, a11, a12, a13
		}
		for ; o < out; o++ {
			wo := w[o*in : o*in+in]
			var a0, a1 float64
			for k := 0; k < in; k++ {
				wv := wo[k]
				a0 += float64(x0[k] * wv)
				a1 += float64(x1[k] * wv)
			}
			bo := bias[o]
			a0, a1 = a0+bo, a1+bo
			if relu {
				a0, a1 = relu1(a0), relu1(a1)
			}
			y0[o], y1[o] = a0, a1
		}
	}
	for ; r < n; r++ {
		xr := x.Row(r)
		yr := y.Row(r)
		o := 0
		for ; o+2 <= out; o += 2 {
			w0 := w[o*in : o*in+in]
			w1 := w[(o+1)*in : (o+1)*in+in]
			var a0, a1 float64
			for k := 0; k < in; k++ {
				xv := xr[k]
				a0 += float64(xv * w0[k])
				a1 += float64(xv * w1[k])
			}
			a0, a1 = a0+bias[o], a1+bias[o+1]
			if relu {
				a0, a1 = relu1(a0), relu1(a1)
			}
			yr[o], yr[o+1] = a0, a1
		}
		for ; o < out; o++ {
			wo := w[o*in : o*in+in]
			var a float64
			for k := 0; k < in; k++ {
				a += float64(xr[k] * wo[k])
			}
			a += bias[o]
			if relu {
				a = relu1(a)
			}
			yr[o] = a
		}
	}
}

//deepsketch:zeroalloc
func relu1(v float64) float64 {
	if v > 0 {
		return v
	}
	return 0
}

// SegmentAvgPool averages contiguous row segments of x into rows of out —
// the padding-free replacement for MaskedAvgPool on the packed inference
// path. offsets is CSR-style with len = out.Rows+1: segment i spans rows
// offsets[i] to offsets[i+1] of x. Empty segments yield a zero row. out must
// be preallocated (B×x.Cols); no allocations. It is SegmentAvgPoolAt with
// every row its own and column 0.
//
//deepsketch:zeroalloc
func SegmentAvgPool(x Matrix, offsets []int, out Matrix) { SegmentAvgPoolAt(x, nil, offsets, out, 0) }

// SegmentAvgPoolAt averages segments of x into columns col..col+x.Cols of
// the rows of out: segment i spans rows offsets[i] to offsets[i+1], and
// the row it reads for row r is rep[r] (r itself when rep is nil) — so a
// row that equals an earlier one need not be copied into x, and three set
// modules pool side by side into one concatenated row. Each output is the
// first row's value plus the others' in row order, times 1/n when n > 1; an
// empty segment writes zeros. No column of out outside col..col+x.Cols is
// written. offsets must have out.Rows+1 entries ending at x.Rows, rep (when
// set) x.Rows entries, and the columns must lie within out; no allocations.
//
//deepsketch:zeroalloc
func SegmentAvgPoolAt(x Matrix, rep, offsets []int, out Matrix, col int) {
	b, w := out.Rows, x.Cols
	if len(offsets) != b+1 || offsets[b] != x.Rows || col < 0 || col+w > out.Cols || (rep != nil && len(rep) != x.Rows) {
		panic("nn: SegmentAvgPool shape mismatch")
	}
	for i := 0; i < b; i++ {
		dst := out.Row(i)[col : col+w]
		lo, hi := offsets[i], offsets[i+1]
		if hi == lo {
			clear(dst)
			continue
		}
		copy(dst, x.Row(rowAt(rep, lo)))
		for r := lo + 1; r < hi; r++ {
			src := x.Row(rowAt(rep, r))[:len(dst)]
			for c, v := range src {
				dst[c] += v
			}
		}
		if n := hi - lo; n > 1 {
			inv := 1 / float64(n)
			for c := range dst {
				dst[c] *= inv
			}
		}
	}
}

// SigmoidInPlace applies 1/(1+e^-x) element-wise, overwriting x.
//
//deepsketch:zeroalloc
func SigmoidInPlace(x Matrix) {
	for i, v := range x.Data {
		x.Data[i] = 1.0 / (1.0 + math.Exp(-v))
	}
}
