package mscn

import (
	"fmt"
	"math"

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
// Every set element is sparse: a table row is a one-hot plus a sample bitmap
// (a set, written out as zeros and ones), a join row a one-hot, a predicate
// row three non-zeros. Packing records, per set, where each row's non-zero
// columns are — the run index every set module's first layer reads — and
// which earlier row of the batch, if any, the row equals (setKeys), so the
// engine can forward each distinct element once. TX, JX and PX keep the
// dense rows they index.
//
// BuildFrom is the only code that fills a PackedBatch. A PackedBatch is
// reusable: BuildFrom grows the backing buffers once and then rebuilds in
// place without allocating. It may be read concurrently after building but
// must not be rebuilt while a forward pass reads it.
type PackedBatch struct {
	B                int
	TX, JX, PX       nn.Matrix
	TOff, JOff, POff []int
	keys             [3]setKeys // of TX, JX, PX; rebuilt by BuildFrom
	slots            []int      // index's hash table, reused across builds

	// BuildFrom's row cursor: the next row of each set, and the functions
	// handed to QuerySource.EncodeTo, bound to pb once (bound) so a rebuild
	// allocates nothing.
	at    [3]int
	spill []float64
	next  [3]func() []float64
	bound *PackedBatch
}

// setKeys is what packing records about one set's rows besides their values:
// the run index of their non-zero columns, a hash of each row's runs and the
// values in them, and rep[r], the first row of the set equal to row r (r
// itself when there is none). Two rows are equal when they have the same
// runs and the same values in them (sameRow) — all the indexed kernel reads
// of a row, so equal rows have equal outputs in every bit.
type setKeys struct {
	runs nn.RunIndex
	hash []uint64
	rep  []int
}

// sets returns the packed feature rows and CSR offsets of the three sets in
// fixed module order (tables, joins, predicates) — what forwardPacked and
// the packed backward iterate over.
//
//deepsketch:zeroalloc
func (pb *PackedBatch) sets() ([3]nn.Matrix, [3][]int) {
	return [3]nn.Matrix{pb.TX, pb.JX, pb.PX}, [3][]int{pb.TOff, pb.JOff, pb.POff}
}

// BuildPackedBatch packs featurized queries through BuildFrom. All Encoded
// values must come from the same encoder (equal widths). It is an adapter
// over dense rows whose only callers are bench/layers.go and tests; nothing
// that estimates or trains builds a featurize.Encoded.
func BuildPackedBatch(encs []featurize.Encoded, tdim, jdim, pdim int) (*PackedBatch, error) {
	pb := &PackedBatch{}
	if err := pb.BuildFrom(encodedSource(encs), 0, len(encs), tdim, jdim, pdim); err != nil {
		return nil, err
	}
	return pb, nil
}

// encodedSource hands already-featurized queries to BuildFrom: the element
// batch of Engine.SetReferenceRows, the dense-row adapters
// (BuildPackedBatch, Engine.Predict) and tests.
type encodedSource []featurize.Encoded

func (s encodedSource) RowCounts(i int) (t, j, p int) {
	return len(s[i].TableVecs), len(s[i].JoinVecs), len(s[i].PredVecs)
}

func (s encodedSource) EncodeTo(i int, nextT, nextJ, nextP func() []float64) error {
	if err := copyRows(s[i].TableVecs, nextT); err != nil {
		return err
	}
	if err := copyRows(s[i].JoinVecs, nextJ); err != nil {
		return err
	}
	return copyRows(s[i].PredVecs, nextP)
}

// copyRows copies vecs into the rows next hands out, refusing a vector whose
// width is not the model's.
func copyRows(vecs [][]float64, next func() []float64) error {
	for _, v := range vecs {
		row := next()
		if len(v) != len(row) {
			return fmt.Errorf("mscn: element width %d, model expects %d", len(v), len(row))
		}
		copy(row, v)
	}
	return nil
}

// indexRuns rebuilds each set's run index and clears the keys dedupe fills,
// so a batch packed without them cannot be read as deduped.
func (pb *PackedBatch) indexRuns() {
	xs, _ := pb.sets()
	for k, x := range xs {
		s := &pb.keys[k]
		nn.Index(&s.runs, x)
		s.hash, s.rep = s.hash[:0], s.rep[:0]
	}
}

// dedupe fills the rest of the keys after indexRuns: each row's hash,
// looked up in an open-addressing table of the set's rows seen so far to
// find its first equal row. Buffers are reused across builds.
func (pb *PackedBatch) dedupe() {
	xs, _ := pb.sets()
	for k, x := range xs {
		s := &pb.keys[k]
		s.hash = ensureLen(s.hash, x.Rows)
		s.rep = ensureLen(s.rep, x.Rows)
		size := 1
		for size < 2*x.Rows {
			size <<= 1
		}
		slots := ensureLen(pb.slots, size)
		pb.slots = slots
		for i := range slots {
			slots[i] = -1
		}
		mask := uint64(size - 1)
		for r := 0; r < x.Rows; r++ {
			s.hash[r] = rowHash(x.Row(r), s.runs.Row(r))
			for i := s.hash[r] & mask; ; i = (i + 1) & mask {
				q := slots[i]
				if q < 0 {
					slots[i], s.rep[r] = r, r
					break
				}
				if pb.sameRow(k, q, pb, r) {
					s.rep[r] = q
					break
				}
			}
		}
	}
}

// rowHash hashes a row by what sameRow compares: its runs and the values in
// them, each run's values summed as bit patterns and mixed in once.
func rowHash(x []float64, runs []nn.Run) uint64 {
	h := uint64(len(runs))
	for _, run := range runs {
		var sum uint64
		for _, v := range x[run.Lo:run.Hi] {
			sum += math.Float64bits(v)
		}
		h = mix(mix(h, uint64(run.Lo)<<32|uint64(run.Hi)), sum)
	}
	return h
}

func mix(h, w uint64) uint64 {
	h = (h ^ w) * 0x9e3779b97f4a7c15
	return h ^ h>>32
}

// sameRow reports whether row r of pb's set k equals row q of o's set k:
// the same runs and the same values in them (compared with ==, so a row
// holding a NaN equals no row).
//
//deepsketch:zeroalloc
func (pb *PackedBatch) sameRow(k, r int, o *PackedBatch, q int) bool {
	a, b := &pb.keys[k], &o.keys[k]
	if a.hash[r] != b.hash[q] {
		return false
	}
	ra, rb := a.runs.Row(r), b.runs.Row(q)
	if len(ra) != len(rb) {
		return false
	}
	xa, xb := pb.set(k).Row(r), o.set(k).Row(q)
	for j, run := range ra {
		if rb[j] != run {
			return false
		}
		for c := run.Lo; c < run.Hi; c++ {
			if xa[c] != xb[c] {
				return false
			}
		}
	}
	return true
}

// set returns set k's packed rows (tables, joins, predicates).
//
//deepsketch:zeroalloc
func (pb *PackedBatch) set(k int) nn.Matrix {
	switch k {
	case 0:
		return pb.TX
	case 1:
		return pb.JX
	}
	return pb.PX
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
// per-query vectors — reusing the backing buffers of previous builds when
// their capacity suffices. The source's RowCounts contract is enforced:
// consuming a different number of rows than promised is an error.
func (pb *PackedBatch) BuildFrom(src QuerySource, lo, hi, tdim, jdim, pdim int) error {
	if err := pb.fill(src, lo, hi, tdim, jdim, pdim); err != nil {
		return err
	}
	pb.dedupe()
	return nil
}

// fill is BuildFrom without the dedupe keys: the rows, their offsets and
// their run indexes — all the trainer reads.
func (pb *PackedBatch) fill(src QuerySource, lo, hi, tdim, jdim, pdim int) error {
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
	pb.TOff = ensureLen(pb.TOff, b+1)
	pb.JOff = ensureLen(pb.JOff, b+1)
	pb.POff = ensureLen(pb.POff, b+1)
	if pb.bound != pb {
		pb.bound = pb
		for k := range pb.next {
			pb.next[k] = func() []float64 { return pb.nextRow(k) }
		}
	}
	pb.at = [3]int{}
	for i := lo; i < hi; i++ {
		pb.TOff[i-lo], pb.JOff[i-lo], pb.POff[i-lo] = pb.at[0], pb.at[1], pb.at[2]
		if err := src.EncodeTo(i, pb.next[0], pb.next[1], pb.next[2]); err != nil {
			return err
		}
	}
	tr, jr, pr := pb.at[0], pb.at[1], pb.at[2]
	pb.TOff[b], pb.JOff[b], pb.POff[b] = tr, jr, pr
	if tr != nt || jr != nj || pr != np {
		return fmt.Errorf("mscn: source consumed %d/%d/%d rows, RowCounts promised %d/%d/%d", tr, jr, pr, nt, nj, np)
	}
	pb.indexRuns()
	return nil
}

// nextRow returns the next destination row of set k for BuildFrom. A
// source that consumes more rows than RowCounts promised gets a throwaway
// spill row rather than a slice-bounds panic; the cursor still advances so
// BuildFrom's mismatch check reports it as an error.
func (pb *PackedBatch) nextRow(k int) []float64 {
	x := pb.set(k)
	r := pb.at[k]
	pb.at[k]++
	if r >= x.Rows {
		if cap(pb.spill) < x.Cols {
			pb.spill = make([]float64, x.Cols)
		}
		return pb.spill[:x.Cols]
	}
	return x.Row(r)
}

func ensureLen[E any](s []E, n int) []E {
	if cap(s) < n {
		return make([]E, n)
	}
	return s[:n]
}
