package mscn

import (
	"fmt"

	"deepsketch/internal/featurize"
	"deepsketch/internal/nn"
)

// PackedBatch is the padding-free inference representation of a featurized
// query batch. Where Batch pads every set to the batch maximum and masks the
// holes, PackedBatch stores only the valid set elements, contiguously, with
// CSR-style per-query offsets: query i's table vectors occupy rows
// TOff[i]..TOff[i+1] of TX (likewise joins in JX and predicates in PX). A
// mixed-shape batch therefore costs exactly its valid rows — queries of any
// shapes can share one forward pass with no padding waste.
//
// The table rows are a one-hot plus a sample bitmap — a set, written out as
// zeros and ones. Packing also records where their non-zero columns are
// (tidx), and that index is what the table module's first layer reads; TX
// keeps the dense rows it indexes.
//
// A PackedBatch is reusable: Build grows the backing buffers once and then
// rebuilds in place without allocating. It may be read concurrently after
// building but must not be rebuilt while a forward pass reads it.
type PackedBatch struct {
	B                int
	TX, JX, PX       nn.Matrix
	TOff, JOff, POff []int
	tidx             nn.RunIndex // of TX, rebuilt by Build and BuildFrom
}

// sets returns the packed feature rows and CSR offsets of the three sets in
// fixed module order (tables, joins, predicates) — what forwardPacked and
// the packed backward iterate over.
//
//deepsketch:zeroalloc
func (pb *PackedBatch) sets() ([3]nn.Matrix, [3][]int) {
	return [3]nn.Matrix{pb.TX, pb.JX, pb.PX}, [3][]int{pb.TOff, pb.JOff, pb.POff}
}

// BuildPackedBatch packs featurized queries for inference. All Encoded
// values must come from the same encoder (equal widths).
func BuildPackedBatch(encs []featurize.Encoded, tdim, jdim, pdim int) (*PackedBatch, error) {
	pb := &PackedBatch{}
	if err := pb.Build(encs, tdim, jdim, pdim); err != nil {
		return nil, err
	}
	return pb, nil
}

// Build (re)packs encs into pb, reusing the backing buffers from previous
// builds when their capacity suffices.
func (pb *PackedBatch) Build(encs []featurize.Encoded, tdim, jdim, pdim int) error {
	if len(encs) == 0 {
		return fmt.Errorf("mscn: empty batch")
	}
	b := len(encs)
	var nt, nj, np int
	for _, e := range encs {
		nt += len(e.TableVecs)
		nj += len(e.JoinVecs)
		np += len(e.PredVecs)
	}
	pb.B = b
	pb.TX.Reshape(nt, tdim)
	pb.JX.Reshape(nj, jdim)
	pb.PX.Reshape(np, pdim)
	pb.TOff = ensureInts(pb.TOff, b+1)
	pb.JOff = ensureInts(pb.JOff, b+1)
	pb.POff = ensureInts(pb.POff, b+1)
	var tr, jr, pr int
	for i, e := range encs {
		pb.TOff[i], pb.JOff[i], pb.POff[i] = tr, jr, pr
		var err error
		if tr, err = packVecs(pb.TX, tr, e.TableVecs, tdim); err != nil {
			return err
		}
		if jr, err = packVecs(pb.JX, jr, e.JoinVecs, jdim); err != nil {
			return err
		}
		if pr, err = packVecs(pb.PX, pr, e.PredVecs, pdim); err != nil {
			return err
		}
	}
	pb.TOff[b], pb.JOff[b], pb.POff[b] = tr, jr, pr
	nn.Index(&pb.tidx, pb.TX)
	return nil
}

// Rows returns the packed row counts (tables, joins, predicates) — the
// actual work a forward pass over this batch performs.
//
//deepsketch:zeroalloc
func (pb *PackedBatch) Rows() (nt, nj, np int) {
	return pb.TX.Rows, pb.JX.Rows, pb.PX.Rows
}

// BuildFrom (re)packs queries lo..hi of a QuerySource into pb, letting the
// source featurize directly into the packed rows — no intermediate
// per-query vectors. Buffers are reused as in Build. The source's RowCounts
// contract is enforced: consuming a different number of rows than promised
// is an error.
func (pb *PackedBatch) BuildFrom(src QuerySource, lo, hi, tdim, jdim, pdim int) error {
	b := hi - lo
	if b <= 0 {
		return fmt.Errorf("mscn: empty batch")
	}
	var nt, nj, np int
	for i := lo; i < hi; i++ {
		t, j, p := src.RowCounts(i)
		nt += t
		nj += j
		np += p
	}
	pb.B = b
	pb.TX.Reshape(nt, tdim)
	pb.TX.Zero()
	pb.JX.Reshape(nj, jdim)
	pb.JX.Zero()
	pb.PX.Reshape(np, pdim)
	pb.PX.Zero()
	pb.TOff = ensureInts(pb.TOff, b+1)
	pb.JOff = ensureInts(pb.JOff, b+1)
	pb.POff = ensureInts(pb.POff, b+1)
	// A source that consumes more rows than RowCounts promised gets a
	// throwaway spill row rather than a slice-bounds panic; the cursor
	// still advances so the mismatch check below reports it as an error.
	var tr, jr, pr int
	var spill []float64
	overdraw := func(dim int) []float64 {
		if cap(spill) < dim {
			spill = make([]float64, dim)
		}
		return spill[:dim]
	}
	nextT := func() []float64 {
		if tr >= nt {
			tr++
			return overdraw(tdim)
		}
		r := pb.TX.Row(tr)
		tr++
		return r
	}
	nextJ := func() []float64 {
		if jr >= nj {
			jr++
			return overdraw(jdim)
		}
		r := pb.JX.Row(jr)
		jr++
		return r
	}
	nextP := func() []float64 {
		if pr >= np {
			pr++
			return overdraw(pdim)
		}
		r := pb.PX.Row(pr)
		pr++
		return r
	}
	for i := lo; i < hi; i++ {
		pb.TOff[i-lo], pb.JOff[i-lo], pb.POff[i-lo] = tr, jr, pr
		if err := src.EncodeTo(i, nextT, nextJ, nextP); err != nil {
			return err
		}
	}
	pb.TOff[b], pb.JOff[b], pb.POff[b] = tr, jr, pr
	if tr != nt || jr != nj || pr != np {
		return fmt.Errorf("mscn: source consumed %d/%d/%d rows, RowCounts promised %d/%d/%d", tr, jr, pr, nt, nj, np)
	}
	nn.Index(&pb.tidx, pb.TX)
	return nil
}

func packVecs(x nn.Matrix, row int, vecs [][]float64, dim int) (int, error) {
	for _, v := range vecs {
		if len(v) != dim {
			return 0, fmt.Errorf("mscn: element width %d, model expects %d", len(v), dim)
		}
		copy(x.Row(row), v)
		row++
	}
	return row, nil
}

func ensureInts(s []int, n int) []int {
	if cap(s) < n {
		return make([]int, n)
	}
	return s[:n]
}
