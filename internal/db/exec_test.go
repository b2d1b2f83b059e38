package db

import (
	"math/rand"
	"testing"
)

func count(t *testing.T, d *DB, q Query) int64 {
	t.Helper()
	got, err := d.Count(q)
	if err != nil {
		t.Fatalf("Count(%s): %v", q.SQL(nil), err)
	}
	return got
}

func TestCountSingleTable(t *testing.T) {
	d := testDB(t)
	q := Query{Tables: []TableRef{{Table: "fact", Alias: "f"}}}
	if got := count(t, d, q); got != 6 {
		t.Errorf("count = %d, want 6", got)
	}
	q.Preds = []Predicate{{Alias: "f", Col: "val", Op: OpEq, Val: 100}}
	if got := count(t, d, q); got != 3 {
		t.Errorf("count = %d, want 3", got)
	}
	q.Preds = append(q.Preds, Predicate{Alias: "f", Col: "dim_id", Op: OpGt, Val: 1})
	if got := count(t, d, q); got != 2 {
		t.Errorf("count = %d, want 2", got)
	}
}

func TestCountPKFKJoin(t *testing.T) {
	d := testDB(t)
	q := Query{
		Tables: []TableRef{{Table: "dim", Alias: "d"}, {Table: "fact", Alias: "f"}},
		Joins:  []JoinPred{{LeftAlias: "f", LeftCol: "dim_id", RightAlias: "d", RightCol: "id"}},
	}
	// Every fact row matches exactly one dim row: join size = |fact| = 6.
	if got := count(t, d, q); got != 6 {
		t.Errorf("join count = %d, want 6", got)
	}
	// dim.attr = 10 matches dim ids {1,3}; facts with dim_id in {1,3}: rows 1,2,4,5,6 -> 5.
	q.Preds = []Predicate{{Alias: "d", Col: "attr", Op: OpEq, Val: 10}}
	if got := count(t, d, q); got != 5 {
		t.Errorf("filtered join count = %d, want 5", got)
	}
	// Add fact filter val=100 (rows with dim_id 1,2,3): intersect -> dim_id in {1,3} & val=100 -> rows 1,5 -> 2.
	q.Preds = append(q.Preds, Predicate{Alias: "f", Col: "val", Op: OpEq, Val: 100})
	if got := count(t, d, q); got != 2 {
		t.Errorf("double filtered join count = %d, want 2", got)
	}
}

func TestCountEmptyResult(t *testing.T) {
	d := testDB(t)
	q := Query{
		Tables: []TableRef{{Table: "dim", Alias: "d"}, {Table: "fact", Alias: "f"}},
		Joins:  []JoinPred{{LeftAlias: "f", LeftCol: "dim_id", RightAlias: "d", RightCol: "id"}},
		Preds:  []Predicate{{Alias: "d", Col: "attr", Op: OpGt, Val: 1000}},
	}
	if got := count(t, d, q); got != 0 {
		t.Errorf("count = %d, want 0", got)
	}
}

func TestCountRejectsNonTree(t *testing.T) {
	d := testDB(t)
	q := Query{
		Tables: []TableRef{{Table: "dim", Alias: "d"}, {Table: "fact", Alias: "f"}},
		Joins: []JoinPred{
			{LeftAlias: "f", LeftCol: "dim_id", RightAlias: "d", RightCol: "id"},
			{LeftAlias: "f", LeftCol: "id", RightAlias: "d", RightCol: "id"},
		},
	}
	if _, err := d.Count(q); err == nil {
		t.Error("cyclic join graph should be rejected")
	}
}

// randomStarDB builds a randomized star schema: one fact table and two
// dimension tables, with random values, for cross-checking the Yannakakis
// executor against the brute-force reference.
func randomStarDB(rng *rand.Rand, dimRows, factRows int) *DB {
	d := NewDB("rand")
	mkIDs := func(n int) []int64 {
		ids := make([]int64, n)
		for i := range ids {
			ids[i] = int64(i + 1)
		}
		return ids
	}
	randCol := func(n int, lo, hi int64) []int64 {
		vals := make([]int64, n)
		for i := range vals {
			vals[i] = lo + rng.Int63n(hi-lo+1)
		}
		return vals
	}
	d.MustAddTable(MustNewTable("dim_a",
		NewIntColumn("id", mkIDs(dimRows)),
		NewIntColumn("attr", randCol(dimRows, 0, 9)),
	))
	d.MustAddTable(MustNewTable("dim_b",
		NewIntColumn("id", mkIDs(dimRows)),
		NewIntColumn("attr", randCol(dimRows, 0, 4)),
	))
	d.MustAddTable(MustNewTable("fact",
		NewIntColumn("id", mkIDs(factRows)),
		NewIntColumn("a_id", randCol(factRows, 1, int64(dimRows)+2)), // some dangling FKs
		NewIntColumn("b_id", randCol(factRows, 1, int64(dimRows))),
		NewIntColumn("val", randCol(factRows, 0, 19)),
	))
	d.SetPK("dim_a", "id")
	d.SetPK("dim_b", "id")
	d.SetPK("fact", "id")
	d.AddFK("fact", "a_id", "dim_a", "id")
	d.AddFK("fact", "b_id", "dim_b", "id")
	return d
}

func randomQuery(rng *rand.Rand) Query {
	q := Query{Tables: []TableRef{{Table: "fact", Alias: "f"}}}
	if rng.Intn(2) == 0 {
		q.Tables = append(q.Tables, TableRef{Table: "dim_a", Alias: "da"})
		q.Joins = append(q.Joins, JoinPred{LeftAlias: "f", LeftCol: "a_id", RightAlias: "da", RightCol: "id"})
		if rng.Intn(2) == 0 {
			q.Preds = append(q.Preds, Predicate{Alias: "da", Col: "attr", Op: Op(rng.Intn(3)), Val: rng.Int63n(10)})
		}
	}
	if rng.Intn(2) == 0 {
		q.Tables = append(q.Tables, TableRef{Table: "dim_b", Alias: "db"})
		q.Joins = append(q.Joins, JoinPred{LeftAlias: "f", LeftCol: "b_id", RightAlias: "db", RightCol: "id"})
		if rng.Intn(2) == 0 {
			q.Preds = append(q.Preds, Predicate{Alias: "db", Col: "attr", Op: Op(rng.Intn(3)), Val: rng.Int63n(5)})
		}
	}
	if rng.Intn(2) == 0 {
		q.Preds = append(q.Preds, Predicate{Alias: "f", Col: "val", Op: Op(rng.Intn(3)), Val: rng.Int63n(20)})
	}
	return q
}

// TestCountMatchesBruteForce is the core correctness property of the ground
// truth oracle: on 200 random star queries over random data, the Yannakakis
// executor agrees exactly with nested-loop enumeration.
func TestCountMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 10; trial++ {
		d := randomStarDB(rng, 8+rng.Intn(8), 20+rng.Intn(20))
		for i := 0; i < 20; i++ {
			q := randomQuery(rng)
			want, err := d.countBruteForce(q)
			if err != nil {
				t.Fatalf("brute force: %v", err)
			}
			got, err := d.Count(q)
			if err != nil {
				t.Fatalf("count: %v", err)
			}
			if got != want {
				t.Fatalf("trial %d query %d: Count=%d bruteforce=%d for %s",
					trial, i, got, want, q.SQL(nil))
			}
		}
	}
}

// TestCountMonotonicity: adding a predicate never increases the count.
func TestCountMonotonicity(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	d := randomStarDB(rng, 12, 60)
	for i := 0; i < 50; i++ {
		q := randomQuery(rng)
		base := count(t, d, q)
		q2 := q.Clone()
		q2.Preds = append(q2.Preds, Predicate{Alias: "f", Col: "val", Op: OpLt, Val: rng.Int63n(20)})
		narrowed := count(t, d, q2)
		if narrowed > base {
			t.Fatalf("adding predicate increased count %d -> %d for %s", base, narrowed, q2.SQL(nil))
		}
	}
}

// TestCountJoinRootIndependence: the result must not depend on which table
// comes first in the FROM list (Count roots the join tree at the first).
func TestCountJoinRootIndependence(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	d := randomStarDB(rng, 10, 50)
	q := Query{
		Tables: []TableRef{{Table: "fact", Alias: "f"}, {Table: "dim_a", Alias: "da"}, {Table: "dim_b", Alias: "db"}},
		Joins: []JoinPred{
			{LeftAlias: "f", LeftCol: "a_id", RightAlias: "da", RightCol: "id"},
			{LeftAlias: "f", LeftCol: "b_id", RightAlias: "db", RightCol: "id"},
		},
		Preds: []Predicate{{Alias: "da", Col: "attr", Op: OpGt, Val: 3}},
	}
	want := count(t, d, q)
	perm := Query{
		Tables: []TableRef{q.Tables[2], q.Tables[0], q.Tables[1]},
		Joins:  q.Joins,
		Preds:  q.Preds,
	}
	if got := count(t, d, perm); got != want {
		t.Errorf("root choice changed count: %d vs %d", got, want)
	}
}

func TestFilterTable(t *testing.T) {
	d := testDB(t)
	fact := d.Table("fact")
	rows, all, err := FilterTable(fact, nil)
	if err != nil || !all || rows != nil {
		t.Errorf("no-predicate filter: rows=%v all=%v err=%v", rows, all, err)
	}
	rows, all, err = FilterTable(fact, []Predicate{{Col: "val", Op: OpEq, Val: 100}})
	if err != nil || all || len(rows) != 3 {
		t.Errorf("eq filter: rows=%v all=%v err=%v", rows, all, err)
	}
	// The rows are the caller's: writing them leaves the index intact.
	for i := range rows {
		rows[i] = -1
	}
	if again, _, _ := FilterTable(fact, []Predicate{{Col: "val", Op: OpEq, Val: 100}}); len(again) != 3 || again[0] < 0 {
		t.Errorf("eq filter after writing the first result: %v", again)
	}
	if _, _, err := FilterTable(fact, []Predicate{{Col: "nope", Op: OpEq, Val: 1}}); err == nil {
		t.Error("unknown column should error")
	}
	// A predicate every row satisfies excludes nothing.
	if rows, all, err := FilterTable(fact, []Predicate{{Col: "val", Op: OpGt, Val: 0}}); err != nil || !all || rows != nil {
		t.Errorf("always-true filter: rows=%v all=%v err=%v", rows, all, err)
	}
}

// get is the per-key sum of any kind of aggregate, as multiply reads it.
func (a *weightAgg) get(key int64) float64 {
	switch {
	case a.ix != nil:
		return a.ix.groupSize(key)
	case a.dense != nil:
		return denseSum(a.dense, a.offset, key)
	}
	return a.m[key]
}

// TestWeightAggDenseAndSparse: a child's key sums go to the pooled dense
// array when its join column has an index, and to a map when the column is
// too wide for one; the pooled array is all zeros again after the absorb.
func TestWeightAggDenseAndSparse(t *testing.T) {
	s := new(execScratch)
	// Dense path.
	narrow := NewIntColumn("k", []int64{10, 20, 10, 15})
	child := &execNode{rows: []int32{0, 1, 2}, weights: []float64{1.5, 2, 0.5}}
	a := s.aggregate(child, narrow)
	if a.dense == nil {
		t.Fatalf("expected dense agg for a small range, got %+v", a)
	}
	if got := a.get(10); got != 2 {
		t.Errorf("dense get = %v", got)
	}
	if got := a.get(15); got != 0 {
		t.Errorf("dense get of an absent key = %v", got)
	}
	if got := a.get(999); got != 0 {
		t.Errorf("dense out-of-range get = %v", got)
	}
	clear(s.agg)
	parent := &execNode{table: MustNewTable("p", NewIntColumn("k", []int64{10, 15, 20, 10})), all: true}
	s.absorb(parent, child, parent.table.Column("k"), narrow)
	if len(parent.rows) != 3 || parent.weights[0]+parent.weights[1]+parent.weights[2] != 6 {
		t.Errorf("absorb: rows=%v weights=%v", parent.rows, parent.weights)
	}
	for k, v := range s.agg {
		if v != 0 {
			t.Fatalf("pooled agg slot %d = %v after absorb", k, v)
		}
	}
	// Sparse path: enormous key range.
	wide := NewIntColumn("k", []int64{0, 1 << 39, 1 << 40})
	if wide.index() != nil {
		t.Fatal("a 2^40 span must not be indexed")
	}
	sp := s.aggregate(&execNode{rows: []int32{1, 1}, weights: []float64{1, 2}}, wide)
	if sp.m == nil {
		t.Fatal("expected map agg for huge range")
	}
	if got := sp.get(1 << 39); got != 3 {
		t.Errorf("sparse get = %v", got)
	}
	if got := sp.get(5); got != 0 {
		t.Errorf("sparse missing get = %v", got)
	}
}

// TestIdentityJoin: a join to a whole table whose key holds every value of
// [Min, Max] once, from a parent column inside that range, multiplies every
// parent row by 1, so absorb leaves the parent as it is. Any dangling key,
// gap, duplicate or unindexed key takes the aggregate path.
func TestIdentityJoin(t *testing.T) {
	ids := NewIntColumn("id", []int64{3, 1, 4, 2})
	for _, c := range []struct {
		name   string
		parent []int64
		child  *Column
		want   bool
	}{
		{"inside", []int64{2, 2, 3, 1}, ids, true},
		{"whole range", []int64{1, 2, 3, 4}, ids, true},
		{"below Min", []int64{0, 2, 3}, ids, false},
		{"above Max", []int64{2, 5, 3}, ids, false},
		{"gap", []int64{1, 2}, NewIntColumn("id", []int64{1, 2, 4}), false},
		{"duplicate", []int64{1, 2}, NewIntColumn("id", []int64{1, 2, 2, 3}), false},
		{"too wide to index", []int64{0}, NewIntColumn("id", []int64{0, 1 << 40}), false},
	} {
		pcol := NewIntColumn("fk", c.parent)
		if got := identityJoin(pcol, c.child); got != c.want {
			t.Errorf("%s: identityJoin = %v, want %v", c.name, got, c.want)
		}
		s := new(execScratch)
		parent := &execNode{table: MustNewTable("p", pcol), all: true}
		child := &execNode{table: MustNewTable("c", c.child), all: true}
		s.absorb(parent, child, pcol, c.child)
		if parent.all != c.want {
			t.Errorf("%s: parent whole after absorb = %v, want %v", c.name, parent.all, c.want)
		}
	}
}
