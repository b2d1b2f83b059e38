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
// CSR-style per-query offsets: query i's table elements are rows
// TOff[i]..TOff[i+1] of the table set (likewise joins with JOff and
// predicates with POff). A mixed-shape batch therefore costs exactly its
// valid rows — queries of any shapes can share one forward pass with no
// padding waste.
//
// Every set element is sparse: a table row is a one-hot plus a sample bitmap
// (a set), a join row a one-hot, a predicate row three non-zeros. A packed
// row is its list of valued runs (nn.Run) and nothing else: each set is an
// nn.RunIndex, which the featurizer writes straight into
// (featurize.EncodeQueryTo) and every set module's first layer reads. Packing
// also records which earlier row of the batch, if any, each row equals
// (setKeys), so the engine and the trainer forward each distinct element
// once.
//
// TX is not a set: only BuildPackedBatch fills it, with the dense table rows
// it was handed, for bench's GEMM rungs (nn.gemm_us, nn.backward_us).
// Nothing forwards it.
//
// BuildFrom is the only code that packs the sets. A PackedBatch is
// reusable: BuildFrom grows the backing buffers once and then rebuilds in
// place without allocating. It may be read concurrently after building but
// must not be rebuilt while a forward pass reads it.
type PackedBatch struct {
	B                int
	TX               nn.Matrix
	TOff, JOff, POff []int
	keys             [3]setKeys // tables, joins, predicates; rebuilt by BuildFrom
	slots            []int      // key's hash table, reused across builds
}

// setKeys is one set's packed rows, as valued runs, and what packing
// records about them: a hash of each row's runs and rep[r], the first row of
// the set equal to row r (r itself when there is none). Two rows are equal
// when they have the same runs with the same values (sameRow, comparing
// values with ==) — all the indexed kernel reads of a row, so equal rows
// have equal outputs in every bit.
type setKeys struct {
	runs nn.RunIndex
	hash []uint64
	rep  []int
}

// sets returns the packed rows and CSR offsets of the three sets in fixed
// module order (tables, joins, predicates) — what forwardPacked and the
// packed backward iterate over.
//
//deepsketch:zeroalloc
func (pb *PackedBatch) sets() ([3]*nn.RunIndex, [3][]int) {
	return [3]*nn.RunIndex{&pb.keys[0].runs, &pb.keys[1].runs, &pb.keys[2].runs}, [3][]int{pb.TOff, pb.JOff, pb.POff}
}

// BuildPackedBatch packs featurized queries through BuildFrom and fills TX
// with their dense table rows. All Encoded values must come from the same
// encoder (equal widths). It is an adapter over dense rows whose only
// callers are bench/layers.go and tests; nothing that estimates or trains
// builds a featurize.Encoded.
func BuildPackedBatch(encs []featurize.Encoded, tdim, jdim, pdim int) (*PackedBatch, error) {
	pb := &PackedBatch{}
	if err := pb.BuildFrom(encodedSource(encs), 0, len(encs), tdim, jdim, pdim); err != nil {
		return nil, err
	}
	nt, _, _ := pb.Rows()
	pb.TX.Reshape(nt, tdim)
	r := 0
	for _, enc := range encs {
		for _, v := range enc.TableVecs {
			copy(pb.TX.Row(r), v)
			r++
		}
	}
	return pb, nil
}

// encodedSource hands already-featurized queries to BuildFrom, each dense
// row indexed into valued runs (nn.RunIndex.AppendDense): the dense-row
// adapters (BuildPackedBatch, Engine.Predict) and tests.
type encodedSource []featurize.Encoded

func (s encodedSource) EncodeTo(i int, t, j, p *nn.RunIndex) error {
	if err := copyRows(s[i].TableVecs, t); err != nil {
		return err
	}
	if err := copyRows(s[i].JoinVecs, j); err != nil {
		return err
	}
	return copyRows(s[i].PredVecs, p)
}

// copyRows appends vecs to ix as rows of valued runs, refusing a vector
// whose width is not the model's.
func copyRows(vecs [][]float64, ix *nn.RunIndex) error {
	for _, v := range vecs {
		if len(v) != ix.Cols() {
			return fmt.Errorf("mscn: element width %d, model expects %d", len(v), ix.Cols())
		}
		ix.AppendDense(v)
	}
	return nil
}

// key rebuilds each set's hashes and reps: each row's hash, looked up in an
// open-addressing table of the set's rows seen so far to find its first
// equal row. Buffers are reused across builds.
func (pb *PackedBatch) key() {
	for k := range pb.keys {
		s := &pb.keys[k]
		rows := s.runs.Rows()
		s.hash = ensureLen(s.hash, rows)
		s.rep = ensureLen(s.rep, rows)
		size := 1
		for size < 2*rows {
			size <<= 1
		}
		slots := ensureLen(pb.slots, size)
		pb.slots = slots
		for i := range slots {
			slots[i] = -1
		}
		mask := uint64(size - 1)
		for r := 0; r < rows; r++ {
			s.hash[r] = rowHash(s.runs.Row(r))
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

// rowHash hashes a row by what sameRow compares, its runs: each run's
// columns and its value's bits, xor-ed into one word, mixed in once.
// Rows that differ in one run differ in that word, so their hashes
// differ; a collision takes runs whose words agree, such as two values
// whose bits differ exactly where their runs' bounds do.
//
//deepsketch:zeroalloc
func rowHash(runs []nn.Run) uint64 {
	h := uint64(len(runs))
	for _, run := range runs {
		h = mix(h, (uint64(run.Lo)<<32|uint64(run.Hi))^math.Float64bits(run.V))
	}
	return h
}

//deepsketch:zeroalloc
func mix(h, w uint64) uint64 {
	h = (h ^ w) * 0x9e3779b97f4a7c15
	return h ^ h>>32
}

// sameRow reports whether row r of pb's set k equals row q of o's set k:
// the same runs with the same values (compared with ==, so a row holding a
// NaN equals no row).
//
//deepsketch:zeroalloc
func (pb *PackedBatch) sameRow(k, r int, o *PackedBatch, q int) bool {
	a, b := &pb.keys[k], &o.keys[k]
	return a.hash[r] == b.hash[q] && sameRuns(a.runs.Row(r), b.runs.Row(q))
}

// sameRuns reports whether two rows' runs are equal run for run, values
// compared with ==.
//
//deepsketch:zeroalloc
func sameRuns(a, b []nn.Run) bool {
	if len(a) != len(b) {
		return false
	}
	for i, run := range a {
		if b[i] != run {
			return false
		}
	}
	return true
}

// Rows returns the packed row counts (tables, joins, predicates) — the
// actual work a forward pass over this batch performs.
//
//deepsketch:zeroalloc
func (pb *PackedBatch) Rows() (nt, nj, np int) {
	return pb.keys[0].runs.Rows(), pb.keys[1].runs.Rows(), pb.keys[2].runs.Rows()
}

// BuildFrom (re)packs queries lo..hi of a QuerySource into pb, letting the
// source featurize straight into the sets' valued runs — no dense row, no
// intermediate per-query vectors — reusing the backing buffers of previous
// builds when their capacity suffices, and then keys the rows (setKeys).
func (pb *PackedBatch) BuildFrom(src QuerySource, lo, hi, tdim, jdim, pdim int) error {
	b := hi - lo
	if b <= 0 {
		return fmt.Errorf("mscn: empty batch")
	}
	pb.B = b
	for k, dim := range [3]int{tdim, jdim, pdim} {
		pb.keys[k].runs.Reset(dim)
	}
	t, j, p := &pb.keys[0].runs, &pb.keys[1].runs, &pb.keys[2].runs
	pb.TOff = ensureLen(pb.TOff, b+1)
	pb.JOff = ensureLen(pb.JOff, b+1)
	pb.POff = ensureLen(pb.POff, b+1)
	for i := lo; i < hi; i++ {
		pb.TOff[i-lo], pb.JOff[i-lo], pb.POff[i-lo] = t.Rows(), j.Rows(), p.Rows()
		if err := src.EncodeTo(i, t, j, p); err != nil {
			return err
		}
	}
	pb.TOff[b], pb.JOff[b], pb.POff[b] = t.Rows(), j.Rows(), p.Rows()
	pb.key()
	return nil
}

func ensureLen[E any](s []E, n int) []E {
	if cap(s) < n {
		return make([]E, n)
	}
	return s[:n]
}
