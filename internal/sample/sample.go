// Package sample implements the materialized base-table samples that ship
// inside every Deep Sketch. The paper executes each training query's
// base-table selections "against a set of materialized samples (e.g., 1000
// tuples per base table)", deriving per-table bitmaps of qualifying sample
// tuples that become additional model inputs; at estimation time the same
// samples produce the bitmaps for unseen queries, and template queries draw
// their placeholder literals from them.
package sample

import (
	"fmt"
	"math/bits"

	"deepsketch/internal/datagen"
	"deepsketch/internal/db"
)

// TableSample is a uniform random sample of one table, stored column-wise
// like the base table so predicate evaluation reuses the db machinery.
type TableSample struct {
	Table string
	// Rows is the number of sampled tuples (min(sample size, table rows)).
	Rows int
	// Data holds the sampled tuples as a db.Table (same columns as source).
	Data *db.Table
	// SourceRows is the row count of the sampled table, needed to scale
	// sample selectivities back to cardinalities.
	SourceRows int
}

// Set is the collection of per-table samples belonging to one sketch.
type Set struct {
	// Size is the configured tuples-per-table budget.
	Size    int
	Samples map[string]*TableSample
}

// New draws a seeded uniform sample of up to size tuples from every listed
// table (all tables when names is nil). Sampling is without replacement via
// a partial Fisher-Yates shuffle of row indices, so it is deterministic in
// (seed, size, table order).
func New(d *db.DB, names []string, size int, seed int64) (*Set, error) {
	if size <= 0 {
		return nil, fmt.Errorf("sample: size must be positive, got %d", size)
	}
	if names == nil {
		names = d.TableNames()
	}
	set := &Set{Size: size, Samples: make(map[string]*TableSample, len(names))}
	for _, name := range names {
		t := d.Table(name)
		if t == nil {
			return nil, fmt.Errorf("sample: unknown table %s", name)
		}
		set.Samples[name] = sampleTable(t, size, seed)
	}
	return set, nil
}

func sampleTable(t *db.Table, size int, seed int64) *TableSample {
	n := t.NumRows()
	k := size
	if k > n {
		k = n
	}
	rng := datagen.NewRand(seed ^ int64(len(t.Name))<<32 ^ hashName(t.Name))
	idx := make([]int32, n)
	for i := range idx {
		idx[i] = int32(i)
	}
	// Partial Fisher-Yates: only the first k positions are needed.
	for i := 0; i < k; i++ {
		j := i + int(rng.Int63n(int64(n-i)))
		idx[i], idx[j] = idx[j], idx[i]
	}
	idx = idx[:k]

	cols := make([]*db.Column, len(t.Cols))
	for ci, c := range t.Cols {
		vals := make([]int64, k)
		for ri, r := range idx {
			vals[ri] = c.Vals[r]
		}
		if c.Type == db.ColString {
			cols[ci] = db.NewStringColumn(c.Name, vals, c.Dict)
		} else {
			cols[ci] = db.NewIntColumn(c.Name, vals)
		}
	}
	return &TableSample{
		Table:      t.Name,
		Rows:       k,
		Data:       db.MustNewTable(t.Name, cols...),
		SourceRows: n,
	}
}

func hashName(s string) int64 {
	var h uint64 = 14695981039346656037
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 1099511628211
	}
	return int64(h >> 1)
}

// For returns the sample of one table, or nil.
func (s *Set) For(table string) *TableSample {
	if s == nil {
		return nil
	}
	return s.Samples[table]
}

// Bitmap is a packed bitset over the sampled tuples of one table: bit i set
// means sample tuple i satisfies the query's predicates on that table.
type Bitmap struct {
	Bits []uint64
	N    int // number of valid bits
}

// NewBitmap returns an all-zero bitmap of n bits.
func NewBitmap(n int) Bitmap {
	return Bitmap{Bits: make([]uint64, (n+63)/64), N: n}
}

// Set sets bit i.
func (b Bitmap) Set(i int) { b.Bits[i/64] |= 1 << (uint(i) % 64) }

// Get reports bit i.
func (b Bitmap) Get(i int) bool { return b.Bits[i/64]&(1<<(uint(i)%64)) != 0 }

// Count returns the number of set bits.
func (b Bitmap) Count() int {
	var c int
	for _, w := range b.Bits {
		c += bits.OnesCount64(w)
	}
	return c
}

// Fraction returns set bits over valid bits (the sample selectivity); it is
// 0 for an empty bitmap.
func (b Bitmap) Fraction() float64 {
	if b.N == 0 {
		return 0
	}
	return float64(b.Count()) / float64(b.N)
}

// QualifyingBitmap evaluates a conjunction of predicates against the sample
// of one table and returns the bitmap of qualifying tuples. With no
// predicates every sampled tuple qualifies (the paper feeds all-ones bitmaps
// for unfiltered tables).
func (ts *TableSample) QualifyingBitmap(preds []db.Predicate) (Bitmap, error) {
	b := NewBitmap(ts.Rows)
	rows, all, err := db.FilterTable(ts.Data, preds)
	if err != nil {
		return Bitmap{}, err
	}
	if all {
		for i := range b.Bits {
			b.Bits[i] = ^uint64(0)
		}
		if tail := ts.Rows % 64; tail != 0 {
			b.Bits[len(b.Bits)-1] = 1<<uint(tail) - 1
		}
		return b, nil
	}
	for _, r := range rows {
		b.Set(int(r))
	}
	return b, nil
}

// Bitmaps computes the qualifying bitmap for every table referenced by the
// query, keyed by alias. Tables without a sample yield an error: a sketch
// can only estimate queries over the tables it was built on.
func (s *Set) Bitmaps(q db.Query) (map[string]Bitmap, error) {
	out := make(map[string]Bitmap, len(q.Tables))
	for _, tr := range q.Tables {
		ts := s.For(tr.Table)
		if ts == nil {
			return nil, fmt.Errorf("sample: no sample for table %s", tr.Table)
		}
		b, err := ts.QualifyingBitmap(q.PredsFor(tr.Alias))
		if err != nil {
			return nil, err
		}
		out[tr.Alias] = b
	}
	return out, nil
}

// DistinctValues returns the distinct values of one sampled column in first-
// appearance order. Template instantiation draws placeholder literals from
// this list ("we draw a value from the column sample that is part of the
// sketch").
func (ts *TableSample) DistinctValues(column string) ([]int64, error) {
	c := ts.Data.Column(column)
	if c == nil {
		return nil, fmt.Errorf("sample: table %s has no column %s", ts.Table, column)
	}
	seen := make(map[int64]bool)
	var out []int64
	for _, v := range c.Vals {
		if !seen[v] {
			seen[v] = true
			out = append(out, v)
		}
	}
	return out, nil
}

// MinMax returns the min and max of one sampled column (used for the demo's
// equi-width bucket grouping). ok is false for an empty sample.
func (ts *TableSample) MinMax(column string) (lo, hi int64, ok bool) {
	c := ts.Data.Column(column)
	if c == nil || len(c.Vals) == 0 {
		return 0, 0, false
	}
	return c.Min, c.Max, true
}
