// Package featurize turns queries into the MSCN model's three input sets,
// following the paper's featurization exactly: "we enumerate tables,
// columns, joins, and predicate types (=, <, and >) and represent them as
// unique one-hot vectors. We represent each literal in a query as a value
// val (val ∈ [0, 1]), normalized using the minimum and maximum values of the
// respective column." Table elements additionally carry the bitmap of
// qualifying materialized-sample tuples.
package featurize

import (
	"encoding/json"
	"fmt"
	"math/bits"
	"sort"

	"deepsketch/internal/db"
	"deepsketch/internal/nn"
	"deepsketch/internal/sample"
)

// Encoder maps queries over a fixed table set to feature vectors. Its
// vocabulary is derived from the schema (not from observed training
// queries), so any valid query over the sketch's tables can be encoded. The
// encoder is part of the serialized sketch.
type Encoder struct {
	// Tables is the sketch's table set, sorted; index = one-hot position.
	Tables []string `json:"tables"`
	// Joins enumerates the possible FK joins within the table set in
	// canonical "table.col=table.col" form, sorted.
	Joins []string `json:"joins"`
	// Columns enumerates predicate-eligible columns as "table.column",
	// sorted.
	Columns []string `json:"columns"`
	// SampleSize is the bitmap width (tuples per base-table sample).
	SampleSize int `json:"sample_size"`
	// ColMin and ColMax hold per-column literal normalization bounds taken
	// from the data, keyed like Columns.
	ColMin map[string]float64 `json:"col_min"`
	ColMax map[string]float64 `json:"col_max"`
	// Norm is the label normalization fitted on training cardinalities.
	Norm nn.LabelNorm `json:"label_norm"`

	tableIdx map[string]int
	joinIdx  map[string]int
	colIdx   map[string]int
}

// NewEncoder builds an encoder for a sketch over the given tables of d.
// tables nil means all tables. sampleSize 0 disables bitmap features
// entirely (the "no runtime sampling" ablation); real sketches always use a
// positive size.
func NewEncoder(d *db.DB, tables []string, sampleSize int) (*Encoder, error) {
	if sampleSize < 0 {
		return nil, fmt.Errorf("featurize: sample size must be non-negative, got %d", sampleSize)
	}
	if tables == nil {
		tables = d.TableNames()
	}
	e := &Encoder{SampleSize: sampleSize, ColMin: map[string]float64{}, ColMax: map[string]float64{}}
	inSet := map[string]bool{}
	for _, t := range tables {
		if d.Table(t) == nil {
			return nil, fmt.Errorf("featurize: unknown table %s", t)
		}
		if inSet[t] {
			return nil, fmt.Errorf("featurize: duplicate table %s", t)
		}
		inSet[t] = true
		e.Tables = append(e.Tables, t)
	}
	sort.Strings(e.Tables)

	for _, fk := range d.FKs {
		if inSet[fk.Table] && inSet[fk.RefTable] {
			e.Joins = append(e.Joins, canonicalJoin(fk.Table, fk.Column, fk.RefTable, fk.RefColumn))
		}
	}
	sort.Strings(e.Joins)

	for _, pc := range d.PredCols {
		if !inSet[pc.Table] {
			continue
		}
		key := pc.Table + "." + pc.Column
		e.Columns = append(e.Columns, key)
		col := d.Table(pc.Table).Column(pc.Column)
		if col.Min <= col.Max {
			e.ColMin[key] = float64(col.Min)
			e.ColMax[key] = float64(col.Max)
		} else { // empty column
			e.ColMin[key] = 0
			e.ColMax[key] = 1
		}
	}
	sort.Strings(e.Columns)

	e.Norm = nn.LabelNorm{MinLog: 0, MaxLog: 1} // refitted by FitLabels
	e.rebuild()
	return e, nil
}

func canonicalJoin(t1, c1, t2, c2 string) string {
	a := t1 + "." + c1
	b := t2 + "." + c2
	if a <= b {
		return a + "=" + b
	}
	return b + "=" + a
}

func (e *Encoder) rebuild() {
	e.tableIdx = make(map[string]int, len(e.Tables))
	for i, t := range e.Tables {
		e.tableIdx[t] = i
	}
	e.joinIdx = make(map[string]int, len(e.Joins))
	for i, j := range e.Joins {
		e.joinIdx[j] = i
	}
	e.colIdx = make(map[string]int, len(e.Columns))
	for i, c := range e.Columns {
		e.colIdx[c] = i
	}
}

// UnmarshalJSON restores the encoder and its lookup tables.
func (e *Encoder) UnmarshalJSON(data []byte) error {
	type plain Encoder
	var p plain
	if err := json.Unmarshal(data, &p); err != nil {
		return err
	}
	*e = Encoder(p)
	e.rebuild()
	return nil
}

// FitLabels fits the label normalization to training cardinalities.
func (e *Encoder) FitLabels(cards []int64) {
	e.Norm = nn.NewLabelNorm(cards)
}

// TableDim is the width of a table-set element: table one-hot plus the
// sample bitmap.
func (e *Encoder) TableDim() int { return len(e.Tables) + e.SampleSize }

// JoinDim is the width of a join-set element (≥ 1 so empty join sets can be
// padded with a zero vector).
func (e *Encoder) JoinDim() int {
	if len(e.Joins) == 0 {
		return 1
	}
	return len(e.Joins)
}

// PredDim is the width of a predicate-set element: column one-hot, operator
// one-hot, normalized literal.
func (e *Encoder) PredDim() int { return len(e.Columns) + db.NumOps + 1 }

// Encoded is a featurized query: variable-length sets of dense element
// vectors. Empty join/predicate sets are represented by a single zero
// vector so that the set modules always see at least one element. Neither
// estimates nor training build one — both featurize through EncodeQueryTo
// into valued runs; it remains for bench/layers.go, mscn's dense-row
// adapters (BuildPackedBatch, Engine.Predict) and tests.
type Encoded struct {
	TableVecs [][]float64
	JoinVecs  [][]float64
	PredVecs  [][]float64
}

// EncodeQuery featurizes a query given its per-alias sample bitmaps (as
// produced by sample.Set.Bitmaps) into dense Encoded vectors: the valued
// runs EncodeQueryTo writes, expanded. A missing bitmap is an error unless
// the encoder was built with SampleSize 0 (bitmap ablation), in which case
// bitmaps are ignored entirely. It is a dense adapter whose only callers
// are bench/layers.go and tests.
func (e *Encoder) EncodeQuery(q db.Query, bitmaps map[string]sample.Bitmap) (Encoded, error) {
	var sets [3]nn.RunIndex
	sets[0].Reset(e.TableDim())
	sets[1].Reset(e.JoinDim())
	sets[2].Reset(e.PredDim())
	if err := e.EncodeQueryTo(q, bitmaps, &sets[0], &sets[1], &sets[2]); err != nil {
		return Encoded{}, err
	}
	return Encoded{TableVecs: dense(&sets[0]), JoinVecs: dense(&sets[1]), PredVecs: dense(&sets[2])}, nil
}

// dense expands each row of ix into a vector of its width.
func dense(ix *nn.RunIndex) [][]float64 {
	vecs := make([][]float64, ix.Rows())
	for r := range vecs {
		v := make([]float64, ix.Cols())
		for _, run := range ix.Row(r) {
			for k := run.Lo; k < run.Hi; k++ {
				v[k] = run.V
			}
		}
		vecs[r] = v
	}
	return vecs
}

// EncodeQueryTo featurizes a query into valued runs (nn.Run), appending
// one row per element to each set's index — t, j and p, TableDim, JoinDim
// and PredDim wide — in order: a row per table, a row per join and per
// predicate, and one empty row for an empty join or predicate set. A table
// row is its one-hot plus the runs of its bitmap's words (bitmapRuns), a
// join row one run, a predicate row at most three (its column's one-hot,
// its operator's, and its literal unless that normalizes to 0); the index
// merges touching runs of one value, so the runs are the maximal ones
// nn.Index finds on the dense row. This is the path of every estimate and
// every training minibatch: no dense row is written. On error some rows
// may already have been appended.
func (e *Encoder) EncodeQueryTo(q db.Query, bitmaps map[string]sample.Bitmap, t, j, p *nn.RunIndex) error {
	// Queries reference at most a handful of tables: RefByAlias's linear
	// scan beats building a map and allocates nothing.
	tableOf := func(alias string) (string, bool) {
		tr, ok := q.RefByAlias(alias)
		return tr.Table, ok
	}

	for _, tr := range q.Tables {
		ti, ok := e.tableIdx[tr.Table]
		if !ok {
			return fmt.Errorf("featurize: table %s not in sketch vocabulary", tr.Table)
		}
		t.Add(ti, ti+1, 1)
		if e.SampleSize > 0 {
			bm, ok := bitmaps[tr.Alias]
			if !ok {
				return fmt.Errorf("featurize: missing bitmap for alias %s", tr.Alias)
			}
			bitmapRuns(t, len(e.Tables), bm, min(bm.N, e.SampleSize))
		}
		t.EndRow()
	}

	for _, jn := range q.Joins {
		lt, ok := tableOf(jn.LeftAlias)
		if !ok {
			return fmt.Errorf("featurize: join references unknown alias %s", jn.LeftAlias)
		}
		rt, ok := tableOf(jn.RightAlias)
		if !ok {
			return fmt.Errorf("featurize: join references unknown alias %s", jn.RightAlias)
		}
		key := canonicalJoin(lt, jn.LeftCol, rt, jn.RightCol)
		ji, ok := e.joinIdx[key]
		if !ok {
			return fmt.Errorf("featurize: join %s not in sketch vocabulary", key)
		}
		j.Add(ji, ji+1, 1)
		j.EndRow()
	}
	if len(q.Joins) == 0 {
		j.EndRow() // empty set: one zero row
	}

	for _, pr := range q.Preds {
		tbl, ok := tableOf(pr.Alias)
		if !ok {
			return fmt.Errorf("featurize: predicate references unknown alias %s", pr.Alias)
		}
		key := tbl + "." + pr.Col
		ci, ok := e.colIdx[key]
		if !ok {
			return fmt.Errorf("featurize: column %s not in sketch vocabulary", key)
		}
		op, lit := len(e.Columns)+int(pr.Op), len(e.Columns)+db.NumOps
		p.Add(ci, ci+1, 1)
		p.Add(op, op+1, 1)
		p.Add(lit, lit+1, e.normalizeLiteral(key, pr.Val))
		p.EndRow()
	}
	if len(q.Preds) == 0 {
		p.EndRow() // empty set: one zero row
	}
	return nil
}

// bitmapRuns adds to ix's open row, at columns base+i, a run of ones for
// each maximal run of set bits i < n of bm, visiting only each word's run
// boundaries: w &^ (w<<1) marks the first bit of each run within the word
// and w &^ (w>>1) its last. A run that reaches a word's top bit continues
// in the next word's bit 0, and the index merges the two.
func bitmapRuns(ix *nn.RunIndex, base int, bm sample.Bitmap, n int) {
	for wi, w := range bm.Bits {
		at := wi * 64
		if at >= n {
			return
		}
		if n-at < 64 {
			w &= 1<<uint(n-at) - 1
		}
		starts, ends := w&^(w<<1), w&^(w>>1)
		for starts != 0 {
			lo, hi := bits.TrailingZeros64(starts), bits.TrailingZeros64(ends)+1
			ix.Add(base+at+lo, base+at+hi, 1)
			starts &= starts - 1
			ends &= ends - 1
		}
	}
}

func (e *Encoder) normalizeLiteral(colKey string, val int64) float64 {
	lo, hi := e.ColMin[colKey], e.ColMax[colKey]
	if hi <= lo {
		return 0
	}
	v := (float64(val) - lo) / (hi - lo)
	if v < 0 {
		return 0
	}
	if v > 1 {
		return 1
	}
	return v
}
