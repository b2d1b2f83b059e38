package nn

import (
	"math"
	"math/rand"
)

// Param is a learnable parameter tensor with its gradient accumulator.
type Param struct {
	Name string
	Data []float64
	Grad []float64
}

// NewParam allocates a named parameter of n elements.
func NewParam(name string, n int) *Param {
	return &Param{Name: name, Data: make([]float64, n), Grad: make([]float64, n)}
}

// ZeroGrad clears the gradient accumulator.
func (p *Param) ZeroGrad() {
	for i := range p.Grad {
		p.Grad[i] = 0
	}
}

// Linear is a fully-connected layer: y = x·Wᵀ + b with W stored row-major
// as [out][in].
type Linear struct {
	In, Out int
	W       *Param
	B       *Param
}

// NewLinear constructs a layer with He-uniform initialized weights and
// PyTorch-style uniform bias init (±1/√in), drawn from the given
// deterministic rng. Non-zero biases also keep zero-vector padding elements
// off the ReLU kink, which matters for gradient checking.
func NewLinear(name string, in, out int, rng *rand.Rand) *Linear {
	l := &Linear{In: in, Out: out, W: NewParam(name+".W", in*out), B: NewParam(name+".b", out)}
	bound := math.Sqrt(6.0 / float64(in))
	// Each draw is converted explicitly: inlined, rng.Float64 ends in a
	// product, which a port may otherwise fuse with the doubling.
	for i := range l.W.Data {
		l.W.Data[i] = (float64(rng.Float64())*2 - 1) * bound
	}
	bBound := 1.0 / math.Sqrt(float64(in))
	for i := range l.B.Data {
		l.B.Data[i] = (float64(rng.Float64())*2 - 1) * bBound
	}
	return l
}

// Params returns the layer's learnable parameters.
func (l *Linear) Params() []*Param { return []*Param{l.W, l.B} }

// dot computes Σ a[i]*b[i] with four accumulators to break the FP add
// dependency chain, each product rounded before its sum; a and b must have
// equal length.
func dot(a, b []float64) float64 {
	var s0, s1, s2, s3 float64
	n := len(a)
	b = b[:n]
	i := 0
	for ; i+4 <= n; i += 4 {
		s0 += float64(a[i] * b[i])
		s1 += float64(a[i+1] * b[i+1])
		s2 += float64(a[i+2] * b[i+2])
		s3 += float64(a[i+3] * b[i+3])
	}
	for ; i < n; i++ {
		s0 += float64(a[i] * b[i])
	}
	return s0 + s1 + s2 + s3
}

// Forward computes y = x·Wᵀ + b for a batch of rows.
func (l *Linear) Forward(x Matrix) Matrix {
	y := NewMatrix(x.Rows, l.Out)
	l.ForwardInto(x, y, false)
	return y
}

// ForwardInto computes y = x·Wᵀ + b into the preallocated y, optionally
// fusing ReLU, parallelized over row blocks. It is the reusable-buffer
// variant of Forward for the training loop; the serial allocation-free
// inference kernel is Layer.Forward.
func (l *Linear) ForwardInto(x, y Matrix, relu bool) {
	if x.Cols != l.In || y.Rows != x.Rows || y.Cols != l.Out {
		panic("nn: Linear.ForwardInto dimension mismatch")
	}
	w, b := l.W.Data, l.B.Data
	parallelRows(x.Rows, func(lo, hi int) {
		for r := lo; r < hi; r++ {
			xr := x.Row(r)
			yr := y.Row(r)
			for o := 0; o < l.Out; o++ {
				v := dot(xr, w[o*l.In:(o+1)*l.In]) + b[o]
				if relu && v < 0 {
					v = 0
				}
				yr[o] = v
			}
		}
	})
}

// Backward computes dx from dy and accumulates parameter gradients, given
// the forward input x.
func (l *Linear) Backward(x, dy Matrix) Matrix {
	dx := NewMatrix(x.Rows, l.In)
	l.BackwardInto(x, dy, &dx)
	return dx
}

// BackwardInto accumulates parameter gradients and, when dx is non-nil,
// writes the input gradient into *dx (preallocated x.Rows×l.In, fully
// overwritten). Passing nil dx skips the input-gradient GEMM entirely —
// the first layer of each set module never needs gradients with respect to
// its features, and at bitmap-sized input widths that pass dominates.
func (l *Linear) BackwardInto(x, dy Matrix, dx *Matrix) {
	if dy.Cols != l.Out || x.Rows != dy.Rows || x.Cols != l.In {
		panic("nn: Linear.Backward dimension mismatch")
	}
	w := l.W.Data

	// dx[r] = Σ_o dy[r,o] * W[o,:] — parallel over batch rows.
	if dx != nil {
		if dx.Rows != x.Rows || dx.Cols != l.In {
			panic("nn: Linear.BackwardInto dx dimension mismatch")
		}
		d := *dx
		parallelRows(x.Rows, func(lo, hi int) {
			for r := lo; r < hi; r++ {
				dyr := dy.Row(r)
				dxr := d.Row(r)
				for i := range dxr {
					dxr[i] = 0
				}
				for o := 0; o < l.Out; o++ {
					if g := dyr[o]; g != 0 {
						axpy(g, w[o*l.In:(o+1)*l.In], dxr)
					}
				}
			}
		})
	}

	// dW[o,:] += Σ_r dy[r,o] * x[r,:]; db[o] += Σ_r dy[r,o] — parallel over
	// output units so accumulators never race.
	dW, dB := l.W.Grad, l.B.Grad
	parallelRows(l.Out, func(olo, ohi int) {
		for r := 0; r < x.Rows; r++ {
			dyr := dy.Row(r)
			xr := x.Row(r)
			for o := olo; o < ohi; o++ {
				g := dyr[o]
				if g == 0 {
					continue
				}
				dB[o] += g
				axpy(g, xr, dW[o*l.In:(o+1)*l.In])
			}
		}
	})
}

// ReLU applies max(0, x) element-wise, returning a new matrix.
func ReLU(x Matrix) Matrix {
	y := NewMatrix(x.Rows, x.Cols)
	for i, v := range x.Data {
		if v > 0 {
			y.Data[i] = v
		}
	}
	return y
}

// ReLUBackward computes dx given the forward *output* y and dy: gradient
// passes where the output was positive.
func ReLUBackward(y, dy Matrix) Matrix {
	dx := NewMatrix(dy.Rows, dy.Cols)
	for i, v := range y.Data {
		if v > 0 {
			dx.Data[i] = dy.Data[i]
		}
	}
	return dx
}

// Sigmoid applies 1/(1+e^-x) element-wise.
func Sigmoid(x Matrix) Matrix {
	y := NewMatrix(x.Rows, x.Cols)
	for i, v := range x.Data {
		y.Data[i] = 1.0 / (1.0 + math.Exp(-v))
	}
	return y
}

// SigmoidBackward computes dx given the forward output y and dy:
// σ'(x) = y·(1−y).
func SigmoidBackward(y, dy Matrix) Matrix {
	dx := NewMatrix(dy.Rows, dy.Cols)
	for i, v := range y.Data {
		dx.Data[i] = dy.Data[i] * v * (1 - v)
	}
	return dx
}

// ReLUBackwardInPlace masks dy in place given the forward output y: the
// gradient survives only where the output was positive. Legal whenever the
// tape no longer needs the unmasked dy (always true in this model).
func ReLUBackwardInPlace(y, dy Matrix) {
	for i, v := range y.Data {
		if v <= 0 {
			dy.Data[i] = 0
		}
	}
}

// SigmoidBackwardInPlace scales dy in place by σ'(x) = y·(1−y). Evaluation
// order matches SigmoidBackward bit-for-bit.
func SigmoidBackwardInPlace(y, dy Matrix) {
	for i, v := range y.Data {
		dy.Data[i] = dy.Data[i] * v * (1 - v)
	}
}

// MaskedAvgPool averages set-element representations into one vector per
// set. x is (B·S)×H (B sets of S padded elements); mask is length B·S with
// 1 for valid elements. Sets whose mask is all zero yield a zero vector
// (division guarded), though callers are expected to pad empty sets with a
// single zero element instead.
func MaskedAvgPool(x Matrix, mask []float64, b, s int) Matrix {
	out := NewMatrix(b, x.Cols)
	MaskedAvgPoolInto(x, mask, b, s, out)
	return out
}

// MaskedAvgPoolInto is MaskedAvgPool writing into a preallocated b×x.Cols
// matrix (fully overwritten).
func MaskedAvgPoolInto(x Matrix, mask []float64, b, s int, out Matrix) {
	if x.Rows != b*s || len(mask) != b*s || out.Rows != b || out.Cols != x.Cols {
		panic("nn: MaskedAvgPool shape mismatch")
	}
	for bi := 0; bi < b; bi++ {
		dst := out.Row(bi)
		for c := range dst {
			dst[c] = 0
		}
		var n float64
		for si := 0; si < s; si++ {
			r := bi*s + si
			if mask[r] == 0 {
				continue
			}
			n++
			src := x.Row(r)
			for c, v := range src {
				dst[c] += v
			}
		}
		if n > 0 {
			inv := 1.0 / n
			for c := range dst {
				dst[c] *= inv
			}
		}
	}
}

// MaskedAvgPoolBackward distributes dOut (B×H) back to the set elements.
func MaskedAvgPoolBackward(dOut Matrix, mask []float64, b, s int) Matrix {
	dx := NewMatrix(b*s, dOut.Cols)
	MaskedAvgPoolBackwardInto(dOut, mask, b, s, dx)
	return dx
}

// MaskedAvgPoolBackwardInto is MaskedAvgPoolBackward writing into a
// preallocated (b·s)×dOut.Cols matrix (fully overwritten).
func MaskedAvgPoolBackwardInto(dOut Matrix, mask []float64, b, s int, dx Matrix) {
	if dx.Rows != b*s || dx.Cols != dOut.Cols {
		panic("nn: MaskedAvgPoolBackward shape mismatch")
	}
	for bi := 0; bi < b; bi++ {
		var n float64
		for si := 0; si < s; si++ {
			if mask[bi*s+si] != 0 {
				n++
			}
		}
		inv := 0.0
		if n > 0 {
			inv = 1.0 / n
		}
		src := dOut.Row(bi)
		for si := 0; si < s; si++ {
			r := bi*s + si
			dst := dx.Row(r)
			if mask[r] == 0 || n == 0 {
				for c := range dst {
					dst[c] = 0
				}
				continue
			}
			for c, v := range src {
				dst[c] = v * inv
			}
		}
	}
}
