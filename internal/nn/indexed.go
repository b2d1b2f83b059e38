package nn

// The set form of a sparse input and the one Linear kernel pair that reads
// it. Every MSCN set element is sparse: a table element is a one-hot plus a
// sample bitmap (mostly zeros on selective queries, two long runs of ones on
// unfiltered tables), a join element a one-hot, a predicate element three
// non-zeros. A RunIndex records where a matrix's non-zero columns are;
// ForwardIndexed and BackwardIndexed visit only those, and are bit for bit
// the dense ForwardFused / BackwardFused(…, nil, …) — see the contract on
// ForwardIndexed. The first layer of each of the three set modules reads its
// input through them; the other five layers have dense input and stay on
// gemmBias.

// Run is a maximal run of non-zero columns of one matrix row, half-open.
type Run struct{ Lo, Hi uint32 }

// RunIndex lists, per row of a matrix, the maximal runs of non-zero columns
// in ascending order: row r's runs are runs[off[r]:off[r+1]]. It is rebuilt
// in place by Index (amortised growth, like Mat.Reshape) and is read-only to
// the kernels, so one index may serve concurrent forwards.
type RunIndex struct {
	off  []int
	runs []Run
}

// Rows returns the number of rows indexed.
//
//deepsketch:zeroalloc
func (ix *RunIndex) Rows() int { return max(len(ix.off)-1, 0) }

// Row returns row r's runs, aliasing the index.
//
//deepsketch:zeroalloc
func (ix *RunIndex) Row(r int) []Run { return ix.runs[ix.off[r]:ix.off[r+1]] }

// Index rebuilds ix as the run-length index of x: a column belongs to a run
// exactly when its element is not 0 (so NaN does, and −0 does not).
func Index[T Float](ix *RunIndex, x Mat[T]) {
	if cap(ix.off) < x.Rows+1 {
		ix.off = make([]int, 0, x.Rows+1)
	}
	ix.off = append(ix.off[:0], 0)
	ix.runs = ix.runs[:0]
	for r := 0; r < x.Rows; r++ {
		row := x.Row(r)
		for k := 0; k < len(row); k++ {
			if row[k] == 0 {
				continue
			}
			lo := k
			for k++; k < len(row) && row[k] != 0; k++ {
			}
			ix.runs = append(ix.runs, Run{uint32(lo), uint32(k)})
		}
		ix.off = append(ix.off, len(ix.runs))
	}
}

// ForwardIndexed is ForwardFused restricted to the columns ix lists, which
// must be the index of x: rows lo..hi of x (and of y) are computed from
// ix's rows lo..hi, one row at a time, four outputs per pass, and inside
// each run the same contiguous a += x[k]·w[k] loop the dense kernel has,
// then the bias, then the fused ReLU. The row range lets a caller that
// already knows some rows' outputs skip them. A run costs one comparison
// beyond its elements (the weight rows are cut to the row's length once per
// pass, so the inner loop carries no bounds check), which is what keeps a
// bitmap of a few hundred one- and two-column runs cheaper than its dense
// row.
//
// Contract: gemmBias sums every output in ascending k from a zero
// accumulator and adds the bias last, and so does this kernel; the terms it
// leaves out have x[k] == 0, and adding 0·w[k] changes no bit of an
// accumulator that started at +0 — provided w[k] is finite (0·±Inf and 0·NaN
// are NaN). For finite weights the result therefore equals the dense
// kernel's in every bit, at any fill: there is no threshold below which
// this kernel is "worth it" and none is needed — an all-ones row is two runs
// and costs what a dense row costs. It reads x[k] rather than assuming 1, so
// it is exact for any values, and a listed column that holds 0 (a float64
// that rounded to a float32 zero) is merely a wasted term.
//
//deepsketch:zeroalloc
func (l Layer[T]) ForwardIndexed(x Mat[T], ix *RunIndex, y Mat[T], lo, hi int, relu bool) {
	if x.Cols != l.In || y.Rows != x.Rows || y.Cols != l.Out || ix.Rows() != x.Rows {
		panic("nn: ForwardIndexed dimension mismatch")
	}
	in, out := l.In, l.Out
	w, bias := l.W, l.B
	for r := lo; r < hi; r++ {
		xr := x.Row(r)
		yr := y.Row(r)
		runs := ix.Row(r)
		o := 0
		for ; o+4 <= out; o += 4 {
			w0 := w[o*in : o*in+in][:len(xr)]
			w1 := w[(o+1)*in : (o+1)*in+in][:len(xr)]
			w2 := w[(o+2)*in : (o+2)*in+in][:len(xr)]
			w3 := w[(o+3)*in : (o+3)*in+in][:len(xr)]
			var a0, a1, a2, a3 T
			for _, run := range runs {
				hi := int(run.Hi)
				if hi > len(xr) {
					panic("nn: run past the row")
				}
				for k := int(run.Lo); k < hi; k++ {
					xv := xr[k]
					a0 += xv * w0[k]
					a1 += xv * w1[k]
					a2 += xv * w2[k]
					a3 += xv * w3[k]
				}
			}
			a0, a1, a2, a3 = a0+bias[o], a1+bias[o+1], a2+bias[o+2], a3+bias[o+3]
			if relu {
				a0, a1, a2, a3 = relu1(a0), relu1(a1), relu1(a2), relu1(a3)
			}
			yr[o], yr[o+1], yr[o+2], yr[o+3] = a0, a1, a2, a3
		}
		for ; o < out; o++ {
			wo := w[o*in : o*in+in][:len(xr)]
			var a T
			for _, run := range runs {
				hi := int(run.Hi)
				if hi > len(xr) {
					panic("nn: run past the row")
				}
				for k := int(run.Lo); k < hi; k++ {
					a += xr[k] * wo[k]
				}
			}
			a += bias[o]
			if relu {
				a = relu1(a)
			}
			yr[o] = a
		}
	}
}

// BackwardIndexed is BackwardFused(x, dy, nil, dW, dB) restricted to the
// columns ix lists, which must be the index of x: the parameter gradients of
// a first layer, whose input gradient nobody needs. Rows are the outer loop
// and each run is axpy's dW[k] += dy·x[k] over its columns, so every dW
// element receives its contributions in the dense kernel's row order; the
// ones left out are dy·0, which change no bit of an accumulator that
// started at +0 (for finite dy).
func (l *Linear) BackwardIndexed(x Matrix, ix *RunIndex, dy Matrix, dW, dB []float64) {
	if dy.Cols != l.Out || x.Rows != dy.Rows || x.Cols != l.In || ix.Rows() != x.Rows {
		panic("nn: BackwardIndexed dimension mismatch")
	}
	if len(dW) != l.In*l.Out || len(dB) != l.Out {
		panic("nn: BackwardIndexed gradient buffer size mismatch")
	}
	for r := 0; r < x.Rows; r++ {
		dyr := dy.Row(r)
		xr := x.Row(r)
		runs := ix.Row(r)
		for o := 0; o < l.Out; o++ {
			g := dyr[o]
			if g == 0 {
				continue
			}
			dB[o] += g
			dWo := dW[o*l.In : (o+1)*l.In][:len(xr)]
			for _, run := range runs {
				hi := int(run.Hi)
				if hi > len(xr) {
					panic("nn: run past the row")
				}
				for k := int(run.Lo); k < hi; k++ {
					dWo[k] += g * xr[k]
				}
			}
		}
	}
}
