package nn

import "math"

// The set form of a sparse input. Every MSCN set element is sparse: a table
// element is a one-hot plus a sample bitmap (mostly zeros on selective
// queries, two long runs of ones on unfiltered tables), a join element a
// one-hot, a predicate element three non-zeros. Such an element is its list
// of valued runs and nothing else: a RunIndex holds, per row, the maximal
// column ranges whose elements all hold one non-zero value, with that
// value. The featurizer writes them directly (featurize.EncodeQueryTo), no
// dense row is ever written, and the first layer of each of the three set
// modules reads them forward (Layer.ForwardRuns) and backward
// (BackwardIndexed, bit for bit BackwardParams on the dense rows). Index
// builds the same runs from dense rows; only the dense adapters and tests
// call it.

// Run is a valued run of one row: columns Lo..Hi-1 (half-open) all hold V,
// which is not zero.
type Run struct {
	Lo, Hi uint32
	V      float64
}

// RunIndex is a matrix of Cols columns stored as valued runs: row r's runs
// are runs[off[r]:off[r+1]], ascending and maximal — two runs of a row that
// touch hold values of different bits. Reset, Add and EndRow build it in
// place (amortised growth, like Matrix.Reshape); the kernels only read it,
// so one index may serve concurrent forwards.
type RunIndex struct {
	cols int
	off  []int // len(off)-1 rows are closed; the last entry opens the next
	runs []Run
}

// Rows returns the number of rows ended so far.
//
//deepsketch:zeroalloc
func (ix *RunIndex) Rows() int { return max(len(ix.off)-1, 0) }

// Cols returns the width of the rows, the one Reset set.
//
//deepsketch:zeroalloc
func (ix *RunIndex) Cols() int { return ix.cols }

// Row returns row r's runs, aliasing the index.
//
//deepsketch:zeroalloc
func (ix *RunIndex) Row(r int) []Run { return ix.runs[ix.off[r]:ix.off[r+1]] }

// Reset empties ix and makes its rows cols wide, keeping its buffers.
//
//deepsketch:zeroalloc
func (ix *RunIndex) Reset(cols int) {
	ix.cols = cols
	//deepsketch:ignore zeroalloc the first Reset of an index, then reused
	ix.off = append(ix.off[:0], 0)
	ix.runs = ix.runs[:0]
}

// Add appends columns lo..hi-1, all holding v, to the row being built:
// nothing when v is zero (either sign), else a run, merged into the row's
// last run when that one ends at lo and holds v's bits. Runs must be added
// in ascending column order and within the width; Add panics otherwise.
//
//deepsketch:zeroalloc
func (ix *RunIndex) Add(lo, hi int, v float64) {
	if v == 0 {
		return
	}
	open := ix.off[len(ix.off)-1]
	n := len(ix.runs)
	if lo < 0 || lo >= hi || hi > ix.cols || (n > open && uint32(lo) < ix.runs[n-1].Hi) {
		panic("nn: RunIndex.Add out of order or past the row")
	}
	if n > open && ix.runs[n-1].Hi == uint32(lo) && math.Float64bits(ix.runs[n-1].V) == math.Float64bits(v) {
		ix.runs[n-1].Hi = uint32(hi)
		return
	}
	//deepsketch:ignore zeroalloc amortized growth to the largest batch; steady state never reallocates
	ix.runs = append(ix.runs, Run{uint32(lo), uint32(hi), v})
}

// EndRow closes the row being built; the next Add starts a new one.
//
//deepsketch:zeroalloc
func (ix *RunIndex) EndRow() {
	//deepsketch:ignore zeroalloc amortized growth to the largest batch; steady state never reallocates
	ix.off = append(ix.off, len(ix.runs))
}

// AppendDense appends the dense row x as one row of valued runs: a column
// belongs to a run exactly when its element is not 0 (so NaN does, and −0
// does not). len(x) must be the index's width.
func (ix *RunIndex) AppendDense(x []float64) {
	if len(x) != ix.cols {
		panic("nn: RunIndex.AppendDense row of another width")
	}
	for k, v := range x {
		ix.Add(k, k+1, v)
	}
	ix.EndRow()
}

// Index rebuilds ix as the valued runs of x's rows (AppendDense, which the
// dense adapters call row by row); nothing that estimates or trains calls
// either.
func Index(ix *RunIndex, x Matrix) {
	ix.Reset(x.Cols)
	for r := 0; r < x.Rows; r++ {
		ix.AppendDense(x.Row(r))
	}
}

// BackwardIndexed is BackwardParams(x, dy, lo, hi, dW, dB) on the rows ix
// holds, which it reads as runs: the parameter gradients of a first layer,
// whose input gradient nobody needs. Rows are the outer loop and each run
// adds dy·V to dW[k] for each of its columns, so every dW element receives
// its contributions in the dense kernel's row order; the ones left out are
// dy·0, which change no bit of an accumulator that started at +0 (for
// finite dy).
func (l *Linear) BackwardIndexed(ix *RunIndex, dy Matrix, lo, hi int, dW, dB []float64) {
	if ix.Cols() != l.In {
		panic("nn: BackwardIndexed dimension mismatch")
	}
	l.checkGrads("BackwardIndexed", ix.Rows(), dy, lo, hi, dW, dB)
	for r := 0; r < ix.Rows(); r++ {
		dyr := dy.Row(r)
		runs := ix.Row(r)
		for o := lo; o < hi; o++ {
			g := dyr[o]
			if g == 0 {
				continue
			}
			dB[o] += g
			dWo := dW[o*l.In : (o+1)*l.In]
			for _, run := range runs {
				if int(run.Hi) > len(dWo) {
					panic("nn: run past the row")
				}
				for k := int(run.Lo); k < int(run.Hi); k++ {
					dWo[k] += float64(g * run.V)
				}
			}
		}
	}
}
