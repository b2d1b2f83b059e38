package workload

import (
	"sync/atomic"
	"testing"

	"deepsketch/internal/datagen"
	"deepsketch/internal/db"
	"deepsketch/internal/pressure"
	"deepsketch/internal/sample"
)

func wlDB(t *testing.T) *db.DB {
	t.Helper()
	return datagen.IMDb(datagen.IMDbConfig{Seed: 21, Titles: 1200, Keywords: 60, Companies: 30, Persons: 200})
}

func TestAliasFor(t *testing.T) {
	cases := map[string]string{
		"title":           "t",
		"movie_keyword":   "mk",
		"movie_info_idx":  "mii",
		"cast_info":       "ci",
		"lineitem":        "l",
		"movie_companies": "mc",
	}
	for in, want := range cases {
		if got := AliasFor(in); got != want {
			t.Errorf("AliasFor(%s) = %s, want %s", in, got, want)
		}
	}
}

func TestGeneratorProducesValidQueries(t *testing.T) {
	d := wlDB(t)
	g, err := NewGenerator(d, GenConfig{Seed: 1, Count: 300, MaxJoins: 3, MaxPreds: 3, Dedup: true})
	if err != nil {
		t.Fatal(err)
	}
	qs := g.Generate()
	if len(qs) < 250 {
		t.Fatalf("generated only %d queries", len(qs))
	}
	var multi, withPreds int
	for i, q := range qs {
		if err := d.ValidateQuery(q); err != nil {
			t.Fatalf("query %d invalid: %v (%s)", i, err, q.SQL(nil))
		}
		if len(q.Joins) != len(q.Tables)-1 {
			t.Fatalf("query %d join graph not a tree", i)
		}
		if len(q.Tables) > 4 {
			t.Fatalf("query %d exceeds MaxJoins: %d tables", i, len(q.Tables))
		}
		if len(q.Tables) > 1 {
			multi++
		}
		if len(q.Preds) > 0 {
			withPreds++
		}
		if _, err := d.Count(q); err != nil {
			t.Fatalf("query %d not executable: %v", i, err)
		}
	}
	if multi == 0 {
		t.Error("no multi-table queries generated")
	}
	if withPreds == 0 {
		t.Error("no predicates generated")
	}
}

func TestGeneratorUniformOps(t *testing.T) {
	d := wlDB(t)
	g, _ := NewGenerator(d, GenConfig{Seed: 5, Count: 500, MaxPreds: 3})
	counts := map[db.Op]int{}
	for _, q := range g.Generate() {
		for _, p := range q.Preds {
			counts[p.Op]++
		}
	}
	// = appears on all columns; < and > only on numeric, so = dominates a
	// little, but all three must be well represented ("uniform distribution
	// between =, <, and > predicates").
	for _, op := range []db.Op{db.OpEq, db.OpLt, db.OpGt} {
		if counts[op] < 50 {
			t.Errorf("operator %s underrepresented: %d", op, counts[op])
		}
	}
}

func TestGeneratorDeterminism(t *testing.T) {
	d := wlDB(t)
	g1, _ := NewGenerator(d, GenConfig{Seed: 9, Count: 50})
	g2, _ := NewGenerator(d, GenConfig{Seed: 9, Count: 50})
	a, b := g1.Generate(), g2.Generate()
	if len(a) != len(b) {
		t.Fatal("lengths differ")
	}
	for i := range a {
		if a[i].Signature() != b[i].Signature() {
			t.Fatalf("query %d differs", i)
		}
	}
}

func TestGeneratorTableSubset(t *testing.T) {
	d := wlDB(t)
	g, err := NewGenerator(d, GenConfig{Seed: 2, Count: 100, Tables: []string{"title", "movie_keyword"}, MaxJoins: 3})
	if err != nil {
		t.Fatal(err)
	}
	for _, q := range g.Generate() {
		for _, tr := range q.Tables {
			if tr.Table != "title" && tr.Table != "movie_keyword" {
				t.Fatalf("query escaped table subset: %s", q.SQL(nil))
			}
		}
	}
	if _, err := NewGenerator(d, GenConfig{Tables: []string{"nope"}}); err == nil {
		t.Error("unknown table should error")
	}
}

func TestLabel(t *testing.T) {
	d := wlDB(t)
	g, _ := NewGenerator(d, GenConfig{Seed: 3, Count: 40})
	qs := g.Generate()
	// Label documents that progress is invoked from multiple goroutines.
	var progressed atomic.Int64
	labeled, err := Label(d, qs, 2, func(done int) { progressed.Add(1) })
	if err != nil {
		t.Fatal(err)
	}
	if len(labeled) != len(qs) {
		t.Fatalf("labeled %d of %d", len(labeled), len(qs))
	}
	if got := progressed.Load(); got != int64(len(qs)) {
		t.Errorf("progress called %d times, want %d", got, len(qs))
	}
	// Spot-check a few labels against direct execution.
	for i := 0; i < 5; i++ {
		want, err := d.Count(labeled[i].Query)
		if err != nil {
			t.Fatal(err)
		}
		if labeled[i].Card != want {
			t.Errorf("label %d = %d, want %d", i, labeled[i].Card, want)
		}
	}
}

func TestSplit(t *testing.T) {
	all := make([]LabeledQuery, 100)
	train, val := Split(all, 0.1)
	if len(train) != 90 || len(val) != 10 {
		t.Errorf("split = %d/%d", len(train), len(val))
	}
	train, val = Split(all, -1)
	if len(train) != 100 || len(val) != 0 {
		t.Errorf("negative frac split = %d/%d", len(train), len(val))
	}
	train, val = Split(all, 5)
	if len(val) != 90 {
		t.Errorf("clamped frac split = %d/%d", len(train), len(val))
	}
}

func TestJOBLight(t *testing.T) {
	d := wlDB(t)
	qs, err := JOBLight(d, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(qs) != 70 {
		t.Fatalf("JOB-light has %d queries, want 70", len(qs))
	}
	joinHist := map[int]int{}
	zeroCards := 0
	for i, q := range qs {
		if err := d.ValidateQuery(q); err != nil {
			t.Fatalf("query %d invalid: %v", i, err)
		}
		nj := len(q.Joins)
		if nj < 1 || nj > 4 {
			t.Fatalf("query %d has %d joins, want 1..4", i, nj)
		}
		joinHist[nj]++
		// Only range predicates allowed: production_year.
		for _, p := range q.Preds {
			if p.Op != db.OpEq && p.Col != "production_year" {
				t.Errorf("query %d has range predicate on %s", i, p.Col)
			}
		}
		card, err := d.Count(q)
		if err != nil {
			t.Fatal(err)
		}
		if card == 0 {
			zeroCards++
		}
	}
	if joinHist[1] != 20 || joinHist[2] != 28 || joinHist[3] != 16 || joinHist[4] != 6 {
		t.Errorf("join mix = %v, want 20/28/16/6", joinHist)
	}
	if zeroCards > 7 {
		t.Errorf("%d/70 queries have empty results; literals should mostly be re-rolled", zeroCards)
	}
}

func TestJOBLightDeterminism(t *testing.T) {
	d := wlDB(t)
	a, _ := JOBLight(d, 4)
	b, _ := JOBLight(d, 4)
	for i := range a {
		if a[i].Signature() != b[i].Signature() {
			t.Fatalf("query %d differs between runs", i)
		}
	}
}

func TestJOBLightNeedsIMDb(t *testing.T) {
	d := datagen.TPCH(datagen.TPCHConfig{Seed: 1, Orders: 200})
	if _, err := JOBLight(d, 0); err == nil {
		t.Error("JOB-light on TPC-H schema should error")
	}
}

func TestYearTemplateInstantiateDistinct(t *testing.T) {
	d := wlDB(t)
	tpl, err := YearTemplate(d, "love")
	if err != nil {
		t.Fatal(err)
	}
	s, err := sample.New(d, nil, 300, 8)
	if err != nil {
		t.Fatal(err)
	}
	insts, err := tpl.Instantiate(s, GroupDistinct, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(insts) < 10 {
		t.Fatalf("expected many distinct years in sample, got %d", len(insts))
	}
	for i := 1; i < len(insts); i++ {
		if insts[i].Lo <= insts[i-1].Lo {
			t.Fatal("instances not ascending")
		}
	}
	// Each instance must be executable and carry the placeholder predicate.
	for _, inst := range insts[:5] {
		found := false
		for _, p := range inst.Query.Preds {
			if p.Alias == "t" && p.Col == "production_year" && p.Op == db.OpEq {
				found = true
			}
		}
		if !found {
			t.Fatalf("instance lacks placeholder predicate: %s", inst.Query.SQL(d))
		}
		if _, err := d.Count(inst.Query); err != nil {
			t.Fatal(err)
		}
	}
}

func TestYearTemplateInstantiateBuckets(t *testing.T) {
	d := wlDB(t)
	tpl, _ := YearTemplate(d, "love")
	s, _ := sample.New(d, nil, 200, 8)
	insts, err := tpl.Instantiate(s, GroupBuckets, 10)
	if err != nil {
		t.Fatal(err)
	}
	if len(insts) != 10 {
		t.Fatalf("want 10 buckets, got %d", len(insts))
	}
	// Buckets must tile the sampled range without gaps.
	for i := 1; i < len(insts); i++ {
		if insts[i].Lo != insts[i-1].Hi+1 {
			t.Fatalf("bucket %d not contiguous: prev hi %d, lo %d", i, insts[i-1].Hi, insts[i].Lo)
		}
	}
	// Sum of bucket counts equals count over the whole sampled range.
	var sum int64
	for _, inst := range insts {
		c, err := d.Count(inst.Query)
		if err != nil {
			t.Fatal(err)
		}
		sum += c
	}
	whole := tpl.Base.Clone()
	whole.Preds = append(whole.Preds,
		db.Predicate{Alias: "t", Col: "production_year", Op: db.OpGt, Val: insts[0].Lo - 1},
		db.Predicate{Alias: "t", Col: "production_year", Op: db.OpLt, Val: insts[len(insts)-1].Hi + 1})
	want, err := d.Count(whole)
	if err != nil {
		t.Fatal(err)
	}
	if sum != want {
		t.Errorf("bucket counts sum to %d, whole range %d", sum, want)
	}
}

func TestTemplateErrors(t *testing.T) {
	d := wlDB(t)
	if _, err := YearTemplate(d, "no-such-keyword"); err == nil {
		t.Error("unknown keyword should error")
	}
	tpl, _ := YearTemplate(d, "love")
	s, _ := sample.New(d, []string{"movie_keyword"}, 10, 0)
	if _, err := tpl.Instantiate(s, GroupDistinct, 0); err == nil {
		t.Error("missing sample should error")
	}
	s2, _ := sample.New(d, nil, 10, 0)
	if _, err := tpl.Instantiate(s2, GroupBuckets, 0); err == nil {
		t.Error("zero buckets should error")
	}
	bad := Template{Base: tpl.Base, Alias: "zz", Col: "production_year"}
	if _, err := bad.Instantiate(s2, GroupDistinct, 0); err == nil {
		t.Error("unknown alias should error")
	}
}

// TestLabelNarrowedBesideServing: while a serving request is in flight
// Label runs one worker fewer, and its labels are the full-width call's.
func TestLabelNarrowedBesideServing(t *testing.T) {
	d := wlDB(t)
	g, err := NewGenerator(d, GenConfig{Seed: 5, Count: 60, MaxJoins: 2, MaxPreds: 2})
	if err != nil {
		t.Fatal(err)
	}
	qs := g.Generate()
	if got := labelWorkers(3, len(qs)); got != 3 {
		t.Fatalf("idle: %d workers, want 3", got)
	}
	full, err := Label(d, qs, 3, nil)
	if err != nil {
		t.Fatal(err)
	}
	pressure.Begin()
	narrowedWorkers := labelWorkers(3, len(qs))
	narrowed, err := Label(d, qs, 3, nil)
	pressure.End()
	if err != nil {
		t.Fatal(err)
	}
	if narrowedWorkers != 2 {
		t.Errorf("beside a serving request: %d workers, want 2", narrowedWorkers)
	}
	for i := range full {
		if full[i].Card != narrowed[i].Card || full[i].Query.Signature() != narrowed[i].Query.Signature() {
			t.Fatalf("query %d: narrowed label %d, full-width %d", i, narrowed[i].Card, full[i].Card)
		}
	}
}
