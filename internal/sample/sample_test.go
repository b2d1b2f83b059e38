package sample

import (
	"testing"
	"testing/quick"

	"deepsketch/internal/datagen"
	"deepsketch/internal/db"
)

func sampleDB(t *testing.T) *db.DB {
	t.Helper()
	return datagen.IMDb(datagen.IMDbConfig{Seed: 3, Titles: 1500, Keywords: 80, Companies: 40, Persons: 300})
}

func TestNewSampleSizes(t *testing.T) {
	d := sampleDB(t)
	s, err := New(d, nil, 100, 7)
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range d.TableNames() {
		ts := s.For(name)
		if ts == nil {
			t.Fatalf("missing sample for %s", name)
		}
		want := 100
		if n := d.Table(name).NumRows(); n < want {
			want = n
		}
		if ts.Rows != want {
			t.Errorf("sample %s rows = %d, want %d", name, ts.Rows, want)
		}
		if ts.SourceRows != d.Table(name).NumRows() {
			t.Errorf("sample %s source rows mismatch", name)
		}
	}
	if _, err := New(d, []string{"nope"}, 10, 0); err == nil {
		t.Error("unknown table should error")
	}
	if _, err := New(d, nil, 0, 0); err == nil {
		t.Error("zero sample size should error")
	}
}

func TestSampleDeterminism(t *testing.T) {
	d := sampleDB(t)
	a, _ := New(d, []string{"title"}, 50, 11)
	b, _ := New(d, []string{"title"}, 50, 11)
	ca := a.For("title").Data.Column("id").Vals
	cb := b.For("title").Data.Column("id").Vals
	for i := range ca {
		if ca[i] != cb[i] {
			t.Fatal("same seed produced different samples")
		}
	}
	c, _ := New(d, []string{"title"}, 50, 12)
	cc := c.For("title").Data.Column("id").Vals
	same := true
	for i := range ca {
		if ca[i] != cc[i] {
			same = false
			break
		}
	}
	if same {
		t.Error("different seeds produced identical samples")
	}
}

func TestSampleWithoutReplacement(t *testing.T) {
	d := sampleDB(t)
	s, _ := New(d, []string{"title"}, 400, 5)
	ids := s.For("title").Data.Column("id").Vals
	seen := make(map[int64]bool, len(ids))
	for _, id := range ids {
		if seen[id] {
			t.Fatalf("duplicate sampled row id %d", id)
		}
		seen[id] = true
	}
}

func TestBitmapOps(t *testing.T) {
	b := NewBitmap(130)
	if b.Count() != 0 {
		t.Error("fresh bitmap should be empty")
	}
	b.Set(0)
	b.Set(64)
	b.Set(129)
	if !b.Get(0) || !b.Get(64) || !b.Get(129) || b.Get(1) {
		t.Error("Get/Set mismatch")
	}
	if b.Count() != 3 {
		t.Errorf("Count = %d, want 3", b.Count())
	}
	if f := b.Fraction(); f != 3.0/130 {
		t.Errorf("Fraction = %v", f)
	}
	if (Bitmap{}).Fraction() != 0 {
		t.Error("empty bitmap fraction should be 0")
	}
}

func TestBitmapSetGetProperty(t *testing.T) {
	f := func(raw []uint16) bool {
		b := NewBitmap(1024)
		ref := make(map[int]bool)
		for _, v := range raw {
			i := int(v) % 1024
			b.Set(i)
			ref[i] = true
		}
		for i := 0; i < 1024; i++ {
			if b.Get(i) != ref[i] {
				return false
			}
		}
		return b.Count() == len(ref)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestQualifyingBitmap(t *testing.T) {
	d := sampleDB(t)
	s, _ := New(d, []string{"title"}, 200, 3)
	ts := s.For("title")

	all, err := ts.QualifyingBitmap(nil)
	if err != nil {
		t.Fatal(err)
	}
	if all.Count() != ts.Rows {
		t.Errorf("no-predicate bitmap should be all ones: %d/%d", all.Count(), ts.Rows)
	}

	b, err := ts.QualifyingBitmap([]db.Predicate{{Col: "production_year", Op: db.OpGt, Val: 2000}})
	if err != nil {
		t.Fatal(err)
	}
	// Cross-check against direct evaluation.
	years := ts.Data.Column("production_year").Vals
	for i, y := range years {
		if b.Get(i) != (y > 2000) {
			t.Fatalf("bit %d mismatch: year=%d bit=%v", i, y, b.Get(i))
		}
	}

	if _, err := ts.QualifyingBitmap([]db.Predicate{{Col: "nope", Op: db.OpEq, Val: 1}}); err == nil {
		t.Error("unknown column should error")
	}
}

// TestQualifyingBitmapAllOnesIsExact: the no-predicate bitmap is filled a
// word at a time; it must set exactly bits 0..Rows-1 — no stray bit past N
// in the last word — at sample sizes around the word boundaries.
func TestQualifyingBitmapAllOnesIsExact(t *testing.T) {
	d := sampleDB(t)
	for _, size := range []int{1, 63, 64, 65, 127, 128, 200} {
		s, err := New(d, []string{"title"}, size, 3)
		if err != nil {
			t.Fatal(err)
		}
		ts := s.For("title")
		got, err := ts.QualifyingBitmap(nil)
		if err != nil {
			t.Fatal(err)
		}
		want := NewBitmap(ts.Rows)
		for i := 0; i < ts.Rows; i++ {
			want.Set(i)
		}
		if got.N != want.N || len(got.Bits) != len(want.Bits) {
			t.Fatalf("size %d: bitmap N=%d words=%d, want N=%d words=%d", size, got.N, len(got.Bits), want.N, len(want.Bits))
		}
		for i := range want.Bits {
			if got.Bits[i] != want.Bits[i] {
				t.Fatalf("size %d: word %d = %#x, Set loop gives %#x", size, i, got.Bits[i], want.Bits[i])
			}
		}
	}
}

func TestBitmapFractionApproximatesSelectivity(t *testing.T) {
	// Sample selectivity should approximate true selectivity for a common
	// predicate — the statistical foundation the paper's approach builds on.
	d := sampleDB(t)
	s, _ := New(d, []string{"title"}, 800, 9)
	preds := []db.Predicate{{Col: "production_year", Op: db.OpGt, Val: 1990}}
	trueCount, err := d.Count(db.Query{
		Tables: []db.TableRef{{Table: "title", Alias: "t"}},
		Preds:  []db.Predicate{{Alias: "t", Col: "production_year", Op: db.OpGt, Val: 1990}},
	})
	if err != nil {
		t.Fatal(err)
	}
	trueSel := float64(trueCount) / float64(d.Table("title").NumRows())
	b, _ := s.For("title").QualifyingBitmap(preds)
	if diff := b.Fraction() - trueSel; diff > 0.08 || diff < -0.08 {
		t.Errorf("sample selectivity %v too far from true %v", b.Fraction(), trueSel)
	}
}

func TestSetBitmaps(t *testing.T) {
	d := sampleDB(t)
	s, _ := New(d, nil, 100, 1)
	q := db.Query{
		Tables: []db.TableRef{{Table: "title", Alias: "t"}, {Table: "movie_keyword", Alias: "mk"}},
		Joins:  []db.JoinPred{{LeftAlias: "mk", LeftCol: "movie_id", RightAlias: "t", RightCol: "id"}},
		Preds:  []db.Predicate{{Alias: "t", Col: "production_year", Op: db.OpLt, Val: 1950}},
	}
	bms, err := s.Bitmaps(q)
	if err != nil {
		t.Fatal(err)
	}
	if len(bms) != 2 {
		t.Fatalf("want 2 bitmaps, got %d", len(bms))
	}
	if bms["mk"].Count() != s.For("movie_keyword").Rows {
		t.Error("unfiltered table should have all-ones bitmap")
	}
	if bms["t"].Count() >= s.For("title").Rows {
		t.Error("filtered title bitmap should not be all ones")
	}

	q2 := db.Query{Tables: []db.TableRef{{Table: "title", Alias: "t"}}}
	s2, _ := New(d, []string{"movie_keyword"}, 10, 0)
	if _, err := s2.Bitmaps(q2); err == nil {
		t.Error("missing sample should error")
	}
}

func TestDistinctValuesAndMinMax(t *testing.T) {
	d := sampleDB(t)
	s, _ := New(d, []string{"title"}, 300, 2)
	ts := s.For("title")
	vals, err := ts.DistinctValues("kind_id")
	if err != nil {
		t.Fatal(err)
	}
	seen := map[int64]bool{}
	for _, v := range vals {
		if seen[v] {
			t.Fatalf("duplicate distinct value %d", v)
		}
		seen[v] = true
	}
	if len(vals) < 2 {
		t.Errorf("expected several kinds in sample, got %v", vals)
	}
	lo, hi, ok := ts.MinMax("production_year")
	if !ok || lo > hi {
		t.Errorf("MinMax = %d,%d,%v", lo, hi, ok)
	}
	if _, err := ts.DistinctValues("nope"); err == nil {
		t.Error("unknown column should error")
	}
	if _, _, ok := ts.MinMax("nope"); ok {
		t.Error("unknown column MinMax should fail")
	}
}
