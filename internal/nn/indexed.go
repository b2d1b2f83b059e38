package nn

// The set form of a sparse input. Every MSCN set element is sparse: a table
// element is a one-hot plus a sample bitmap (mostly zeros on selective
// queries, two long runs of ones on unfiltered tables), a join element a
// one-hot, a predicate element three non-zeros. A RunIndex records where a
// matrix's non-zero columns are; the first layer of each of the three set
// modules visits only those, forward (Layer.Forward with an index) and
// backward (BackwardIndexed, bit for bit BackwardParams).

// Run is a maximal run of non-zero columns of one matrix row, half-open.
type Run struct{ Lo, Hi uint32 }

// RunIndex lists, per row of a matrix, the maximal runs of non-zero columns
// in ascending order: row r's runs are runs[off[r]:off[r+1]]. It is rebuilt
// in place by Index (amortised growth, like Matrix.Reshape) and is read-only to
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
func Index(ix *RunIndex, x Matrix) {
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

// BackwardIndexed is BackwardParams(x, dy, lo, hi, dW, dB) restricted to
// the columns ix lists, which must be the index of x: the parameter
// gradients of a first layer, whose input gradient nobody needs. Rows are
// the outer loop and each run is axpy's dW[k] += dy·x[k] over its columns,
// so every dW element receives its contributions in the dense kernel's row
// order; the ones left out are dy·0, which change no bit of an accumulator
// that started at +0 (for finite dy).
func (l *Linear) BackwardIndexed(x Matrix, ix *RunIndex, dy Matrix, lo, hi int, dW, dB []float64) {
	l.checkParams("BackwardIndexed", x, dy, lo, hi, dW, dB)
	if ix.Rows() != x.Rows {
		panic("nn: BackwardIndexed index does not match x")
	}
	for r := 0; r < x.Rows; r++ {
		dyr := dy.Row(r)
		xr := x.Row(r)
		runs := ix.Row(r)
		for o := lo; o < hi; o++ {
			g := dyr[o]
			if g == 0 {
				continue
			}
			dB[o] += g
			dWo := dW[o*l.In : (o+1)*l.In][:len(xr)]
			for _, run := range runs {
				end := int(run.Hi)
				if end > len(xr) {
					panic("nn: run past the row")
				}
				for k := int(run.Lo); k < end; k++ {
					dWo[k] += g * xr[k]
				}
			}
		}
	}
}
