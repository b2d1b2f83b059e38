package nn

import "math"

// Inference-only kernels: a bump-allocated scratch arena (Arena), the one
// forward kernel (Layer.Forward), and CSR-style segment pooling. These power
// the packed ragged-batch engine in internal/mscn and the packed trainer's
// forward. They are deliberately serial and allocation-free: concurrency
// comes from running independent forward passes on separate arenas (one per
// goroutine), not from fanning a single pass across cores. The training
// path keeps the tape-friendly allocating functions in layers.go.
//
// Layer.Forward runs every MSCN layer, on weights stored transposed
// ([in][out]): an output row is a zeroed row plus, in ascending k,
// y += x[k]·Wᵀ[k] over the input's non-zero columns (axpy, assembly on
// amd64 with AVX), then the bias, then the ReLU. Vectorising across the
// outputs leaves each output's summation order alone, so every output is
// gemmBias's in every bit (see Layer.Forward's contract). gemmBias, the
// scalar 2×4-tiled GEMM on [out][in] weights, is kept only behind
// Linear.ForwardFused, as a benchmark rung and the tests' reference.
//
// Every kernel is generic over Float and used at float64 (the reference
// engine and the packed trainer's forward) and float32 (the reduced-
// precision engine). float64 runs the assembly axpy; float32 runs the
// pure-Go loop, so it buys halved weight traffic and no arithmetic.
// Training stays entirely float64 (Adam moments, gradient reduction, the
// fused backward kernels): reduced precision is an inference-only trade,
// gated by the q-error equivalence tests in the mscn package.

// Arena is a reusable scratch arena for inference forward passes. Alloc
// hands out matrices backed by one contiguous buffer via bump allocation;
// Reset recycles the whole arena without freeing. After the buffer has grown
// to a steady-state batch shape, a Reserve/Alloc cycle performs zero heap
// allocations.
//
// Ownership rules: an Arena may serve at most one forward pass at a time —
// it is NOT safe for concurrent use. Matrices returned by Alloc alias the
// arena and die at the next Reset/Reserve; callers must copy anything they
// keep. Pool arenas (e.g. sync.Pool) to serve concurrent traffic.
type Arena[T Float] struct {
	buf []T
	off int
}

// Workspace is the float64 arena of the f64 engine and the packed trainer.
type Workspace = Arena[float64]

// Reserve resets the arena and ensures capacity for n elements, so that
// subsequent Allocs totalling at most n cannot grow the buffer mid-pass.
//
//deepsketch:zeroalloc
func (w *Arena[T]) Reserve(n int) {
	if cap(w.buf) < n {
		//deepsketch:ignore zeroalloc amortized arena growth; steady state never reallocates
		w.buf = make([]T, n)
	} else {
		w.buf = w.buf[:cap(w.buf)]
	}
	w.off = 0
}

// Reset recycles the arena, invalidating previously allocated matrices.
func (w *Arena[T]) Reset() { w.off = 0 }

// Alloc returns a rows×cols matrix carved from the arena. Contents are
// uninitialized — every kernel writing into it must overwrite or zero it.
// Growth (when Reserve underestimated) leaves earlier matrices valid on the
// old backing array.
//
//deepsketch:zeroalloc
func (w *Arena[T]) Alloc(rows, cols int) Mat[T] {
	n := rows * cols
	if w.off+n > len(w.buf) {
		grow := 2 * len(w.buf)
		if grow < n {
			grow = n
		}
		//deepsketch:ignore zeroalloc amortized arena growth; steady state never reallocates
		w.buf = make([]T, grow)
		w.off = 0
	}
	m := Mat[T]{Rows: rows, Cols: cols, Data: w.buf[w.off : w.off+n : w.off+n]}
	w.off += n
	return m
}

// Layer is the inference view of a Linear at element type T, with W stored
// transposed: WT is row-major [in][out], so the weights input k multiplies
// are one contiguous row, WT[k·Out:(k+1)·Out]. It holds no gradients and is
// a copy: Transpose refreshes it from the Linear's live float64 parameters
// (the mscn engine once per weight generation, the packed trainer once per
// step).
type Layer[T Float] struct {
	In, Out int
	WT, B   []T
}

// Transpose copies l's current weights into dst at element type T, W
// transposed. It reuses dst's buffers when they fit and allocates them
// otherwise, so a Layer that is refreshed every step allocates once.
func Transpose[T Float](dst *Layer[T], l *Linear) {
	dst.In, dst.Out = l.In, l.Out
	if len(dst.WT) != len(l.W.Data) || len(dst.B) != len(l.B.Data) {
		dst.WT, dst.B = make([]T, len(l.W.Data)), make([]T, len(l.B.Data))
	}
	for o := 0; o < l.Out; o++ {
		for k, v := range l.W.Data[o*l.In : (o+1)*l.In] {
			dst.WT[k*l.Out+o] = T(v)
		}
	}
	convert(dst.B, l.B.Data)
}

// Forward computes rows lo..hi of y = x·W + b, fusing the ReLU when relu is
// set. Each output row is zeroed, then receives y += x[k]·WT[k] (axpy) for
// every non-zero column k of its input row in ascending order, then the
// bias, then the ReLU. With a run index (ix, which must be x's) the columns
// come from its runs — the first layer of each set module, whose rows are
// one-hots, bitmaps and predicate triples; with ix nil every column is
// tested with x[k] != 0, which skips the zeros a previous ReLU left. The
// row range lets a caller that already knows some rows' outputs skip them.
// It runs on the calling goroutine only and performs no allocations. y must
// be x.Rows×l.Out and may not alias x.
//
// Contract: gemmBias sums every output in ascending k from a zero
// accumulator and adds the bias last, and so does this kernel, output by
// output; the terms it leaves out have x[k] == 0, and adding 0·w changes
// no bit of an accumulator that started at +0 — provided w is finite
// (0·±Inf and 0·NaN are NaN). For finite weights the result therefore
// equals gemmBias's in every bit, at any fill and either element type.
// It reads x[k] rather than assuming 1, so it is exact for any values, and
// a listed column that holds 0 (a float64 that rounded to a float32 zero)
// is merely a wasted term.
//
//deepsketch:zeroalloc
func (l Layer[T]) Forward(x Mat[T], ix *RunIndex, y Mat[T], lo, hi int, relu bool) {
	if x.Cols != l.In || y.Rows != x.Rows || y.Cols != l.Out || (ix != nil && ix.Rows() != x.Rows) {
		panic("nn: Layer.Forward dimension mismatch")
	}
	out := l.Out
	bias := l.B[:out]
	for r := lo; r < hi; r++ {
		xr, yr := x.Row(r), y.Row(r)
		clear(yr)
		if ix != nil {
			for _, run := range ix.Row(r) {
				for k := int(run.Lo); k < int(run.Hi); k++ {
					axpyOf(xr[k], l.WT[k*out:(k+1)*out], yr)
				}
			}
		} else {
			for k, v := range xr {
				if v != 0 {
					axpyOf(v, l.WT[k*out:(k+1)*out], yr)
				}
			}
		}
		for o, b := range bias {
			v := yr[o] + b
			if relu {
				v = relu1(v)
			}
			yr[o] = v
		}
	}
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
func gemmBias[T Float](x Mat[T], w, bias []T, y Mat[T], relu bool) {
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
			var a00, a01, a02, a03 T
			var a10, a11, a12, a13 T
			for k := 0; k < in; k++ {
				xv0, xv1 := x0[k], x1[k]
				wv0, wv1, wv2, wv3 := w0[k], w1[k], w2[k], w3[k]
				a00 += xv0 * wv0
				a01 += xv0 * wv1
				a02 += xv0 * wv2
				a03 += xv0 * wv3
				a10 += xv1 * wv0
				a11 += xv1 * wv1
				a12 += xv1 * wv2
				a13 += xv1 * wv3
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
			var a0, a1 T
			for k := 0; k < in; k++ {
				wv := wo[k]
				a0 += x0[k] * wv
				a1 += x1[k] * wv
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
			var a0, a1 T
			for k := 0; k < in; k++ {
				xv := xr[k]
				a0 += xv * w0[k]
				a1 += xv * w1[k]
			}
			a0, a1 = a0+bias[o], a1+bias[o+1]
			if relu {
				a0, a1 = relu1(a0), relu1(a1)
			}
			yr[o], yr[o+1] = a0, a1
		}
		for ; o < out; o++ {
			wo := w[o*in : o*in+in]
			var a T
			for k := 0; k < in; k++ {
				a += xr[k] * wo[k]
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
func relu1[T Float](v T) T {
	if v > 0 {
		return v
	}
	return 0
}

// SegmentAvgPool averages contiguous row segments of x into rows of out —
// the padding-free replacement for MaskedAvgPool on the packed inference
// path. offsets is CSR-style with len = out.Rows+1: segment i spans rows
// offsets[i] to offsets[i+1] of x. Empty segments yield a zero row. out must
// be preallocated (B×x.Cols) and is fully overwritten; no allocations.
//
//deepsketch:zeroalloc
func SegmentAvgPool[T Float](x Mat[T], offsets []int, out Mat[T]) {
	b := out.Rows
	if len(offsets) != b+1 || offsets[b] != x.Rows || out.Cols != x.Cols {
		panic("nn: SegmentAvgPool shape mismatch")
	}
	for i := 0; i < b; i++ {
		dst := out.Row(i)
		lo, hi := offsets[i], offsets[i+1]
		if hi == lo {
			for c := range dst {
				dst[c] = 0
			}
			continue
		}
		copy(dst, x.Row(lo))
		for r := lo + 1; r < hi; r++ {
			src := x.Row(r)
			for c, v := range src {
				dst[c] += v
			}
		}
		if n := hi - lo; n > 1 {
			inv := 1 / T(n)
			for c := range dst {
				dst[c] *= inv
			}
		}
	}
}

// SigmoidInPlace applies 1/(1+e^-x) element-wise, overwriting x. The
// exponential is computed in float64 (math.Exp has no float32 twin in the
// standard library) and rounded once per element.
//
//deepsketch:zeroalloc
func SigmoidInPlace[T Float](x Mat[T]) {
	for i, v := range x.Data {
		x.Data[i] = T(1.0 / (1.0 + math.Exp(-float64(v))))
	}
}

// ConvertRows copies src into dst element-wise, converting between element
// types; the matrices must have identical shapes. It is how packed float64
// feature rows enter the float32 pipeline and how its outputs widen back:
// the conversion touches each element once, which is negligible next to
// the GEMMs that re-stream the weight matrices per output unit.
//
//deepsketch:zeroalloc
func ConvertRows[D, S Float](dst Mat[D], src Mat[S]) {
	if dst.Rows != src.Rows || dst.Cols != src.Cols {
		panic("nn: ConvertRows shape mismatch")
	}
	convert(dst.Data, src.Data)
}

//deepsketch:zeroalloc
func convert[D, S Float](dst []D, src []S) {
	for i, v := range src {
		dst[i] = D(v)
	}
}
