package nn

// Packed training kernels: the backward counterparts of infer.go's fused
// forward path. Like the forward kernels they are deliberately serial and
// allocation-free — data-parallel training runs one worker per minibatch
// shard, each backpropagating its own packed sub-batch into private gradient
// buffers from a private workspace arena. Concurrency comes from the shards,
// never from fanning a single kernel across cores, which is what makes the
// worker-ordered gradient reduction (and therefore training itself)
// deterministic for a fixed parallelism.

// BackwardFused is the serial backward of a Linear layer for the packed
// training path. Given the forward input x and the upstream gradient dy, it
// accumulates the parameter gradients into the caller's buffers — dW
// (l.In*l.Out, row-major like l.W) and dB (l.Out) — rather than into
// l.W.Grad/l.B.Grad, so concurrent workers never share accumulators. When dx
// is non-nil it is fully overwritten with the input gradient dy·W; passing
// nil skips that GEMM entirely (the first layer of each set module never
// needs gradients with respect to its features). Runs on the calling
// goroutine only and performs no allocations.
func (l *Linear) BackwardFused(x, dy Matrix, dx *Matrix, dW, dB []float64) {
	if dy.Cols != l.Out || x.Rows != dy.Rows || x.Cols != l.In {
		panic("nn: BackwardFused dimension mismatch")
	}
	if len(dW) != l.In*l.Out || len(dB) != l.Out {
		panic("nn: BackwardFused gradient buffer size mismatch")
	}
	w := l.W.Data

	// dx[r] = Σ_o dy[r,o] · W[o,:]
	if dx != nil {
		if dx.Rows != x.Rows || dx.Cols != l.In {
			panic("nn: BackwardFused dx dimension mismatch")
		}
		d := *dx
		for r := 0; r < x.Rows; r++ {
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
	}

	// dW[o,:] += Σ_r dy[r,o] · x[r,:]; dB[o] += Σ_r dy[r,o]. Rows outer so
	// each accumulator sees its contributions in a fixed (row-major) order.
	for r := 0; r < x.Rows; r++ {
		dyr := dy.Row(r)
		xr := x.Row(r)
		for o := 0; o < l.Out; o++ {
			g := dyr[o]
			if g == 0 {
				continue
			}
			dB[o] += g
			axpy(g, xr, dW[o*l.In:(o+1)*l.In])
		}
	}
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
