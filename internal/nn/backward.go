package nn

// Packed training kernels: the backward counterparts of infer.go's fused
// forward path, serial and allocation-free like the forward kernels. A
// layer's backward is two halves with different owners. The input gradient
// (BackwardInput) is per row, so each data-parallel worker computes it for
// its own minibatch shard. The parameter gradients (BackwardParams,
// BackwardIndexed) are per output unit, so each worker accumulates a range
// of output units straight into the shared Param.Grad, over every shard's
// rows in query order. Every gradient element therefore sums its
// contributions in one order whatever the worker count, and training is
// bitwise the same at every parallelism.

// BackwardInput overwrites dx with the input gradient of a Linear layer:
// dx[r] = Σ_o dy[r,o]·W[o,:], summed in ascending o. Rows are independent.
// No allocations.
func (l *Linear) BackwardInput(dy, dx Matrix) {
	if dy.Cols != l.Out || dx.Rows != dy.Rows || dx.Cols != l.In {
		panic("nn: BackwardInput dimension mismatch")
	}
	w := l.W.Data
	for r := 0; r < dy.Rows; r++ {
		dyr := dy.Row(r)
		dxr := dx.Row(r)
		for i := range dxr {
			dxr[i] = 0
		}
		for o := 0; o < l.Out; o++ {
			if g := dyr[o]; g != 0 {
				axpy(g, w[o*l.In:(o+1)*l.In], dxr)
			}
		}
	}
}

// BackwardParams accumulates the parameter gradients of output units
// [lo, hi) of a Linear layer, given its forward input x and upstream
// gradient dy: dW[o,:] += Σ_r dy[r,o]·x[r,:] and dB[o] += Σ_r dy[r,o], rows
// in order. dW is l.Out×l.In, row-major like l.W, and dB has l.Out
// elements; no element outside the range is touched, so goroutines owning
// disjoint ranges may share them. Each element receives its contributions
// in row order whatever the range, so how the outputs are split changes no
// bit. No allocations.
func (l *Linear) BackwardParams(x, dy Matrix, lo, hi int, dW, dB []float64) {
	if x.Cols != l.In {
		panic("nn: BackwardParams dimension mismatch")
	}
	l.checkGrads("BackwardParams", x.Rows, dy, lo, hi, dW, dB)
	for r := 0; r < x.Rows; r++ {
		dyr := dy.Row(r)
		xr := x.Row(r)
		for o := lo; o < hi; o++ {
			g := dyr[o]
			if g == 0 {
				continue
			}
			dB[o] += g
			axpy(g, xr, dW[o*l.In:(o+1)*l.In])
		}
	}
}

// checkGrads checks the shapes a parameter backward over rows input rows
// reads and writes, the input's width aside.
func (l *Linear) checkGrads(op string, rows int, dy Matrix, lo, hi int, dW, dB []float64) {
	if dy.Cols != l.Out || dy.Rows != rows {
		panic("nn: " + op + " dimension mismatch")
	}
	if len(dW) != l.In*l.Out || len(dB) != l.Out {
		panic("nn: " + op + " gradient buffer size mismatch")
	}
	if lo < 0 || lo > hi || hi > l.Out {
		panic("nn: " + op + " output range out of bounds")
	}
}

// BackwardFused is BackwardInput into *dx (skipped when dx is nil)
// followed by BackwardParams over every output unit. Training calls the
// halves directly; this composition remains for the nn.backward_us rung of
// the benchmark ladder, which times it on a table layer (ROADMAP 1(e)
// retargets that rung).
func (l *Linear) BackwardFused(x, dy Matrix, dx *Matrix, dW, dB []float64) {
	if dx != nil {
		l.BackwardInput(dy, *dx)
	}
	l.BackwardParams(x, dy, 0, l.Out, dW, dB)
}

// SegmentAvgPoolBackward distributes dOut back to packed set-element rows —
// the backward of SegmentAvgPool, a segment-scaled scatter: every row of
// segment i receives dOut[i,:] / n_i where n_i is the segment length.
// offsets is the same CSR offset slice the forward used (len dOut.Rows+1);
// dx must be offsets[B]×dOut.Cols and is fully overwritten (empty segments
// own no rows, so there is nothing to clear for them). No allocations.
func SegmentAvgPoolBackward(dOut Matrix, offsets []int, dx Matrix) {
	b := dOut.Rows
	if len(offsets) != b+1 || offsets[b] != dx.Rows || dx.Cols != dOut.Cols {
		panic("nn: SegmentAvgPoolBackward shape mismatch")
	}
	for i := 0; i < b; i++ {
		lo, hi := offsets[i], offsets[i+1]
		if hi == lo {
			continue
		}
		src := dOut.Row(i)
		inv := 1.0 / float64(hi-lo)
		for r := lo; r < hi; r++ {
			dst := dx.Row(r)
			for c, v := range src {
				dst[c] = v * inv
			}
		}
	}
}
