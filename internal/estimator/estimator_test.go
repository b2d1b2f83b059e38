package estimator

import (
	"context"
	"math"
	"testing"

	"deepsketch/internal/datagen"
	"deepsketch/internal/db"
	"deepsketch/internal/metrics"
	"deepsketch/internal/workload"
)

func estDB(t *testing.T) *db.DB {
	t.Helper()
	return datagen.IMDb(datagen.IMDbConfig{Seed: 61, Titles: 2000, Keywords: 80, Companies: 40, Persons: 300})
}

func TestBuildColStatsUniform(t *testing.T) {
	vals := make([]int64, 1000)
	for i := range vals {
		vals[i] = int64(i % 10) // uniform over 0..9
	}
	c := db.NewIntColumn("u", vals)
	st := BuildColStats(c, 4, 10)
	if st.NDistinct != 10 {
		t.Errorf("NDistinct = %v", st.NDistinct)
	}
	if len(st.MCVs) != 4 {
		t.Errorf("MCVs = %d", len(st.MCVs))
	}
	// Every value has frequency 0.1; MCV and non-MCV estimates should agree.
	if got := st.EqSelectivity(0); math.Abs(got-0.1) > 1e-9 {
		t.Errorf("MCV eq sel = %v", got)
	}
	if got := st.EqSelectivity(9); math.Abs(got-0.1) > 1e-9 {
		t.Errorf("non-MCV eq sel = %v", got)
	}
	// Unseen value: small.
	if got := st.EqSelectivity(99); got > 0.1 {
		t.Errorf("unseen eq sel = %v", got)
	}
}

func TestColStatsRangeSelectivity(t *testing.T) {
	vals := make([]int64, 10000)
	for i := range vals {
		vals[i] = int64(i % 100) // uniform 0..99
	}
	st := BuildColStats(db.NewIntColumn("u", vals), 0, 100)
	cases := []struct {
		v    int64
		want float64
	}{
		{50, 0.50}, {10, 0.10}, {90, 0.90}, {0, 0}, {1000, 1},
	}
	for _, c := range cases {
		if got := st.LtSelectivity(c.v); math.Abs(got-c.want) > 0.03 {
			t.Errorf("P(<%d) = %v, want ~%v", c.v, got, c.want)
		}
	}
	if got := st.GtSelectivity(50); math.Abs(got-0.49) > 0.03 {
		t.Errorf("P(>50) = %v, want ~0.49", got)
	}
	// Complementarity: P(<v) + P(>v) <= 1 + eps.
	for v := int64(0); v < 100; v += 7 {
		if s := st.LtSelectivity(v) + st.GtSelectivity(v); s > 1.01 {
			t.Errorf("P(<%d)+P(>%d) = %v > 1", v, v, s)
		}
	}
}

func TestColStatsSkewedMCV(t *testing.T) {
	// 90% value 1, the rest uniform 2..11.
	vals := make([]int64, 1000)
	for i := range vals {
		if i < 900 {
			vals[i] = 1
		} else {
			vals[i] = int64(2 + i%10)
		}
	}
	st := BuildColStats(db.NewIntColumn("s", vals), 1, 10)
	if got := st.EqSelectivity(1); math.Abs(got-0.9) > 1e-9 {
		t.Errorf("MCV sel = %v, want 0.9", got)
	}
	if got := st.EqSelectivity(5); math.Abs(got-0.01) > 1e-9 {
		t.Errorf("tail sel = %v, want 0.01", got)
	}
}

func TestBuildColStatsEmpty(t *testing.T) {
	st := BuildColStats(db.NewIntColumn("e", nil), 10, 10)
	if st.EqSelectivity(1) != 0 || st.LtSelectivity(1) != 0 || st.GtSelectivity(1) != 0 {
		t.Error("empty column should have zero selectivities")
	}
}

// TestRangeSelectivityIsAFunction: a range selectivity sums its MCVs'
// frequencies in one fixed order, so asking again returns the same bits —
// what lets the daemon cache PostgreSQL's answer. Summed in the MCV map's
// iteration order, a column with 100 MCVs of unequal frequency differed in
// its last bits from call to call.
func TestRangeSelectivityIsAFunction(t *testing.T) {
	d := estDB(t)
	st := BuildColStats(d.Table("title").Column("production_year"), 100, 100)
	if len(st.MCVs) != 100 {
		t.Fatalf("production_year has %d MCVs, want 100", len(st.MCVs))
	}
	for _, v := range []int64{1950, 1990, 2000, 2010} {
		lt, gt := st.LtSelectivity(v), st.GtSelectivity(v)
		for i := 0; i < 200; i++ {
			if l, g := st.LtSelectivity(v), st.GtSelectivity(v); math.Float64bits(l) != math.Float64bits(lt) || math.Float64bits(g) != math.Float64bits(gt) {
				t.Fatalf("v=%d: Lt %v then %v, Gt %v then %v", v, lt, l, gt, g)
			}
		}
	}
}

func TestTruthMatchesCount(t *testing.T) {
	d := estDB(t)
	tr := &Truth{DB: d}
	if tr.Name() == "" {
		t.Error("name empty")
	}
	q := db.Query{
		Tables: []db.TableRef{{Table: "title", Alias: "t"}},
		Preds:  []db.Predicate{{Alias: "t", Col: "production_year", Op: db.OpGt, Val: 2000}},
	}
	want, _ := d.Count(q)
	got, err := tr.Cardinality(q)
	if err != nil {
		t.Fatal(err)
	}
	if got != float64(want) {
		t.Errorf("truth = %v, want %d", got, want)
	}
}

func TestPostgresSingleTableAccuracy(t *testing.T) {
	// On a single-column predicate the histogram/MCV machinery should be
	// quite accurate — errors come from correlations, not marginals.
	d := estDB(t)
	p := NewPostgres(d, PostgresOptions{})
	queries := []db.Query{
		{Tables: []db.TableRef{{Table: "title", Alias: "t"}},
			Preds: []db.Predicate{{Alias: "t", Col: "production_year", Op: db.OpGt, Val: 1990}}},
		{Tables: []db.TableRef{{Table: "title", Alias: "t"}},
			Preds: []db.Predicate{{Alias: "t", Col: "kind_id", Op: db.OpEq, Val: 1}}},
		{Tables: []db.TableRef{{Table: "movie_info", Alias: "mi"}},
			Preds: []db.Predicate{{Alias: "mi", Col: "info_type_id", Op: db.OpEq, Val: 2}}},
	}
	for _, q := range queries {
		truth, _ := d.Count(q)
		est, err := p.Cardinality(q)
		if err != nil {
			t.Fatal(err)
		}
		if qe := metrics.QError(est, float64(truth)); qe > 1.5 {
			t.Errorf("single-column estimate off by %v: %s (est %v true %d)", qe, q.SQL(nil), est, truth)
		}
	}
}

func TestPostgresPKFKJoinExact(t *testing.T) {
	// A bare PK/FK join has cardinality = |fact|; System-R with exact
	// distinct counts gets this right.
	d := estDB(t)
	p := NewPostgres(d, PostgresOptions{})
	q := db.Query{
		Tables: []db.TableRef{{Table: "title", Alias: "t"}, {Table: "movie_keyword", Alias: "mk"}},
		Joins:  []db.JoinPred{{LeftAlias: "mk", LeftCol: "movie_id", RightAlias: "t", RightCol: "id"}},
	}
	truth, _ := d.Count(q)
	est, err := p.Cardinality(q)
	if err != nil {
		t.Fatal(err)
	}
	if qe := metrics.QError(est, float64(truth)); qe > 1.3 {
		t.Errorf("bare FK join estimate off by %v (est %v true %d)", qe, est, truth)
	}
}

func TestPostgresAtLeastOne(t *testing.T) {
	d := estDB(t)
	p := NewPostgres(d, PostgresOptions{})
	q := db.Query{
		Tables: []db.TableRef{{Table: "title", Alias: "t"}},
		Preds: []db.Predicate{
			{Alias: "t", Col: "production_year", Op: db.OpLt, Val: -5},
			{Alias: "t", Col: "kind_id", Op: db.OpEq, Val: 99},
		},
	}
	est, err := p.Cardinality(q)
	if err != nil {
		t.Fatal(err)
	}
	if est < 1 {
		t.Errorf("estimates must be clamped to >= 1, got %v", est)
	}
}

func TestPostgresInvalidQuery(t *testing.T) {
	d := estDB(t)
	p := NewPostgres(d, PostgresOptions{})
	if _, err := p.Cardinality(db.Query{}); err == nil {
		t.Error("invalid query should error")
	}
}

func TestHyperSingleTableAccuracy(t *testing.T) {
	d := estDB(t)
	h, err := NewHyper(d, 500, 3)
	if err != nil {
		t.Fatal(err)
	}
	q := db.Query{
		Tables: []db.TableRef{{Table: "title", Alias: "t"}},
		Preds: []db.Predicate{
			{Alias: "t", Col: "production_year", Op: db.OpGt, Val: 1980},
			{Alias: "t", Col: "kind_id", Op: db.OpEq, Val: 1},
		},
	}
	truth, _ := d.Count(q)
	est, err := h.Cardinality(q)
	if err != nil {
		t.Fatal(err)
	}
	// Sampling captures the year↔kind correlation, unlike independence.
	if qe := metrics.QError(est, float64(truth)); qe > 2.0 {
		t.Errorf("sampled estimate off by %v (est %v true %d)", qe, est, truth)
	}
}

func TestHyperZeroTupleFallback(t *testing.T) {
	d := estDB(t)
	h, err := NewHyper(d, 100, 7)
	if err != nil {
		t.Fatal(err)
	}
	// A very selective predicate: person_id equality on cast_info. With 100
	// sampled tuples and hundreds of persons, specific unpopular ids are
	// likely absent from the sample.
	ci := d.Table("cast_info").Column("person_id")
	var rare int64 = -1
	freq := map[int64]int{}
	for _, v := range ci.Vals {
		freq[v]++
	}
	for v, n := range freq {
		if n == 1 {
			rare = v
			break
		}
	}
	if rare == -1 {
		t.Skip("no rare person in tiny dataset")
	}
	q := db.Query{
		Tables: []db.TableRef{{Table: "cast_info", Alias: "ci"}},
		Preds:  []db.Predicate{{Alias: "ci", Col: "person_id", Op: db.OpEq, Val: rare}},
	}
	zt, err := h.ZeroTuple(q)
	if err != nil {
		t.Fatal(err)
	}
	if !zt {
		t.Skip("rare person happened to be sampled")
	}
	est, err := h.Cardinality(q)
	if err != nil {
		t.Fatal(err)
	}
	wantSel := 1.0 / 100.0 // "assume that one sample tuple qualifies"
	want := wantSel * float64(d.Table("cast_info").NumRows())
	if math.Abs(est-want)/want > 1e-9 {
		t.Errorf("0-tuple estimate = %v, want educated guess %v", est, want)
	}
}

func TestHyperJoinEstimate(t *testing.T) {
	d := estDB(t)
	h, _ := NewHyper(d, 500, 11)
	q := db.Query{
		Tables: []db.TableRef{{Table: "title", Alias: "t"}, {Table: "cast_info", Alias: "ci"}},
		Joins:  []db.JoinPred{{LeftAlias: "ci", LeftCol: "movie_id", RightAlias: "t", RightCol: "id"}},
	}
	truth, _ := d.Count(q)
	est, err := h.Cardinality(q)
	if err != nil {
		t.Fatal(err)
	}
	if qe := metrics.QError(est, float64(truth)); qe > 1.5 {
		t.Errorf("join estimate off by %v (est %v true %d)", qe, est, truth)
	}
}

func TestEstimatorsOnWorkloadProduceFiniteEstimates(t *testing.T) {
	d := estDB(t)
	p := NewPostgres(d, PostgresOptions{})
	h, _ := NewHyper(d, 200, 1)
	g, _ := workload.NewGenerator(d, workload.GenConfig{Seed: 77, Count: 100, MaxJoins: 3, MaxPreds: 3})
	for _, q := range g.Generate() {
		for _, est := range []Estimator{p, h} {
			res, err := est.Estimate(context.Background(), q)
			if err != nil {
				t.Fatalf("%s failed on %s: %v", est.Name(), q.SQL(nil), err)
			}
			v := res.Cardinality
			if v < 1 || math.IsNaN(v) || math.IsInf(v, 0) {
				t.Fatalf("%s produced %v on %s", est.Name(), v, q.SQL(nil))
			}
			if res.Source != est.Name() {
				t.Fatalf("%s reported source %q", est.Name(), res.Source)
			}
		}
	}
}

// TestCorrelationBlindness documents the failure mode Table 1 exposes: on a
// correlated pair of predicates (era-affine keyword + matching year range),
// the independence assumption underestimates badly, while sampling-based
// estimation holds up — exactly the gap Deep Sketches close further.
func TestCorrelationBlindness(t *testing.T) {
	d := estDB(t)
	p := NewPostgres(d, PostgresOptions{})

	kw := d.Table("keyword").Column("keyword")
	code, ok := kw.Lookup("artificial-intelligence")
	if !ok {
		t.Fatal("named keyword missing")
	}
	q := db.Query{
		Tables: []db.TableRef{
			{Table: "title", Alias: "t"},
			{Table: "movie_keyword", Alias: "mk"},
			{Table: "keyword", Alias: "k"},
		},
		Joins: []db.JoinPred{
			{LeftAlias: "mk", LeftCol: "movie_id", RightAlias: "t", RightCol: "id"},
			{LeftAlias: "mk", LeftCol: "keyword_id", RightAlias: "k", RightCol: "id"},
		},
		Preds: []db.Predicate{
			{Alias: "k", Col: "keyword", Op: db.OpEq, Val: code},
			{Alias: "t", Col: "production_year", Op: db.OpGt, Val: 1995},
		},
	}
	truth, _ := d.Count(q)
	if truth == 0 {
		t.Skip("keyword unused at this scale")
	}
	pgEst, err := p.Cardinality(q)
	if err != nil {
		t.Fatal(err)
	}
	pgQ := metrics.QError(pgEst, float64(truth))
	if pgQ < 1.5 {
		t.Logf("note: postgres q-error only %v on correlated query (est %v true %d)", pgQ, pgEst, truth)
	}
}
