package featurize

import (
	"encoding/json"
	"testing"

	"deepsketch/internal/datagen"
	"deepsketch/internal/db"
	"deepsketch/internal/sample"
)

func featDB(t *testing.T) (*db.DB, *sample.Set) {
	t.Helper()
	d := datagen.IMDb(datagen.IMDbConfig{Seed: 31, Titles: 600, Keywords: 50, Companies: 25, Persons: 100})
	s, err := sample.New(d, nil, 64, 3)
	if err != nil {
		t.Fatal(err)
	}
	return d, s
}

func TestNewEncoderVocabulary(t *testing.T) {
	d, _ := featDB(t)
	e, err := NewEncoder(d, nil, 64)
	if err != nil {
		t.Fatal(err)
	}
	if len(e.Tables) != 8 {
		t.Errorf("tables = %v", e.Tables)
	}
	if len(e.Joins) != 7 { // 5 movie_id joins + keyword + company
		t.Errorf("joins = %v", e.Joins)
	}
	if len(e.Columns) != 13 {
		t.Errorf("columns = %v", e.Columns)
	}
	if e.TableDim() != 8+64 {
		t.Errorf("TableDim = %d", e.TableDim())
	}
	if e.JoinDim() != 7 {
		t.Errorf("JoinDim = %d", e.JoinDim())
	}
	if e.PredDim() != 13+3+1 {
		t.Errorf("PredDim = %d", e.PredDim())
	}
	// Bounds present for every column.
	for _, c := range e.Columns {
		if _, ok := e.ColMin[c]; !ok {
			t.Errorf("missing min bound for %s", c)
		}
	}
}

func TestNewEncoderErrors(t *testing.T) {
	d, _ := featDB(t)
	if _, err := NewEncoder(d, []string{"nope"}, 10); err == nil {
		t.Error("unknown table should error")
	}
	if _, err := NewEncoder(d, nil, -1); err == nil {
		t.Error("negative sample size should error")
	}
	if _, err := NewEncoder(d, []string{"title", "title"}, 10); err == nil {
		t.Error("duplicate table should error")
	}
}

func TestEncodeQueryShapes(t *testing.T) {
	d, s := featDB(t)
	e, _ := NewEncoder(d, nil, 64)
	q := db.Query{
		Tables: []db.TableRef{{Table: "title", Alias: "t"}, {Table: "movie_keyword", Alias: "mk"}},
		Joins:  []db.JoinPred{{LeftAlias: "mk", LeftCol: "movie_id", RightAlias: "t", RightCol: "id"}},
		Preds:  []db.Predicate{{Alias: "t", Col: "production_year", Op: db.OpGt, Val: 2000}},
	}
	bms, err := s.Bitmaps(q)
	if err != nil {
		t.Fatal(err)
	}
	enc, err := e.EncodeQuery(q, bms)
	if err != nil {
		t.Fatal(err)
	}
	if len(enc.TableVecs) != 2 || len(enc.JoinVecs) != 1 || len(enc.PredVecs) != 1 {
		t.Fatalf("set sizes = %d/%d/%d", len(enc.TableVecs), len(enc.JoinVecs), len(enc.PredVecs))
	}
	for _, v := range enc.TableVecs {
		if len(v) != e.TableDim() {
			t.Fatal("table vec width wrong")
		}
		// Exactly one table one-hot bit.
		ones := 0
		for i := 0; i < len(e.Tables); i++ {
			if v[i] == 1 {
				ones++
			}
		}
		if ones != 1 {
			t.Fatalf("table one-hot has %d bits", ones)
		}
	}
	// Join vector has exactly one bit.
	ones := 0
	for _, v := range enc.JoinVecs[0] {
		if v == 1 {
			ones++
		}
	}
	if ones != 1 {
		t.Fatalf("join one-hot has %d bits", ones)
	}
	// Predicate vector: one column bit, one op bit, literal in [0,1].
	pv := enc.PredVecs[0]
	lit := pv[len(pv)-1]
	if lit < 0 || lit > 1 {
		t.Errorf("literal %v out of [0,1]", lit)
	}
	opOff := len(e.Columns)
	if pv[opOff+int(db.OpGt)] != 1 {
		t.Error("op one-hot missing")
	}
}

func TestEncodeQueryBitmapMatchesSample(t *testing.T) {
	d, s := featDB(t)
	e, _ := NewEncoder(d, nil, 64)
	q := db.Query{
		Tables: []db.TableRef{{Table: "title", Alias: "t"}},
		Preds:  []db.Predicate{{Alias: "t", Col: "production_year", Op: db.OpLt, Val: 1950}},
	}
	bms, _ := s.Bitmaps(q)
	enc, err := e.EncodeQuery(q, bms)
	if err != nil {
		t.Fatal(err)
	}
	vec := enc.TableVecs[0]
	bm := bms["t"]
	for i := 0; i < bm.N; i++ {
		want := 0.0
		if bm.Get(i) {
			want = 1
		}
		if vec[len(e.Tables)+i] != want {
			t.Fatalf("bitmap bit %d mismatch", i)
		}
	}
}

// TestEncodeBitmapWordWalkMatchesBitLoop: EncodeQueryTo walks the bitmap's
// words; the row it writes must be the one the bit-by-bit loop writes, for
// widths that are and are not multiples of 64, bitmaps shorter and longer
// than SampleSize, and stray bits past N in the last word.
func TestEncodeBitmapWordWalkMatchesBitLoop(t *testing.T) {
	d, _ := featDB(t)
	q := db.Query{Tables: []db.TableRef{{Table: "title", Alias: "t"}}}
	rng := datagen.NewRand(5)
	for _, sampleSize := range []int{1, 63, 64, 65, 100, 128, 130} {
		e, err := NewEncoder(d, nil, sampleSize)
		if err != nil {
			t.Fatal(err)
		}
		for _, n := range []int{0, 1, 5, 63, 64, 65, 127, 128, 129, 200} {
			for trial := 0; trial < 8; trial++ {
				bm := sample.NewBitmap(n)
				for i := range bm.Bits {
					switch trial {
					case 0: // empty
					case 1:
						bm.Bits[i] = ^uint64(0) // all ones, stray bits past N included
					default:
						bm.Bits[i] = rng.Uint64() & rng.Uint64()
					}
				}
				enc, err := e.EncodeQuery(q, map[string]sample.Bitmap{"t": bm})
				if err != nil {
					t.Fatal(err)
				}
				got := enc.TableVecs[0][len(e.Tables):]
				if len(got) != sampleSize {
					t.Fatalf("bitmap block is %d wide, want %d", len(got), sampleSize)
				}
				for i := range got {
					want := 0.0
					if i < n && bm.Get(i) {
						want = 1
					}
					if got[i] != want {
						t.Fatalf("SampleSize %d, N %d, trial %d: column %d = %v, bit loop says %v", sampleSize, n, trial, i, got[i], want)
					}
				}
			}
		}
	}
}

func TestEncodeEmptySetsPadded(t *testing.T) {
	d, s := featDB(t)
	e, _ := NewEncoder(d, nil, 64)
	q := db.Query{Tables: []db.TableRef{{Table: "title", Alias: "t"}}}
	bms, _ := s.Bitmaps(q)
	enc, err := e.EncodeQuery(q, bms)
	if err != nil {
		t.Fatal(err)
	}
	if len(enc.JoinVecs) != 1 || len(enc.PredVecs) != 1 {
		t.Fatal("empty sets must be padded with one element")
	}
	for _, v := range enc.JoinVecs[0] {
		if v != 0 {
			t.Error("empty join pad must be zero vector")
		}
	}
	for _, v := range enc.PredVecs[0] {
		if v != 0 {
			t.Error("empty pred pad must be zero vector")
		}
	}
}

func TestEncodeQueryErrors(t *testing.T) {
	d, s := featDB(t)
	e, _ := NewEncoder(d, []string{"title", "movie_keyword", "keyword"}, 64)
	// Table outside vocabulary.
	q := db.Query{Tables: []db.TableRef{{Table: "cast_info", Alias: "ci"}}}
	bms, _ := s.Bitmaps(q)
	if _, err := e.EncodeQuery(q, bms); err == nil {
		t.Error("out-of-vocabulary table should error")
	}
	// Missing bitmap.
	q2 := db.Query{Tables: []db.TableRef{{Table: "title", Alias: "t"}}}
	if _, err := e.EncodeQuery(q2, map[string]sample.Bitmap{}); err == nil {
		t.Error("missing bitmap should error")
	}
	// Bitmap ablation: SampleSize 0 needs no bitmaps at all.
	e0, err := NewEncoder(d, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	if e0.TableDim() != len(e0.Tables) {
		t.Errorf("ablated TableDim = %d, want %d", e0.TableDim(), len(e0.Tables))
	}
	if _, err := e0.EncodeQuery(q2, nil); err != nil {
		t.Errorf("ablated encoder should not need bitmaps: %v", err)
	}
	// Column outside vocabulary (movie_companies not in set, but also a
	// predicate on a non-pred column of an in-set table).
	q3 := db.Query{
		Tables: []db.TableRef{{Table: "title", Alias: "t"}},
		Preds:  []db.Predicate{{Alias: "t", Col: "id", Op: db.OpEq, Val: 3}},
	}
	bms3, _ := s.Bitmaps(q3)
	if _, err := e.EncodeQuery(q3, bms3); err == nil {
		t.Error("out-of-vocabulary column should error")
	}
}

func TestLiteralNormalization(t *testing.T) {
	d, s := featDB(t)
	e, _ := NewEncoder(d, nil, 64)
	col := d.Table("title").Column("production_year")
	mk := func(v int64) float64 {
		q := db.Query{
			Tables: []db.TableRef{{Table: "title", Alias: "t"}},
			Preds:  []db.Predicate{{Alias: "t", Col: "production_year", Op: db.OpEq, Val: v}},
		}
		bms, _ := s.Bitmaps(q)
		enc, err := e.EncodeQuery(q, bms)
		if err != nil {
			t.Fatal(err)
		}
		pv := enc.PredVecs[0]
		return pv[len(pv)-1]
	}
	if got := mk(col.Min); got != 0 {
		t.Errorf("min literal normalized to %v, want 0", got)
	}
	if got := mk(col.Max); got != 1 {
		t.Errorf("max literal normalized to %v, want 1", got)
	}
	mid := mk((col.Min + col.Max) / 2)
	if mid <= 0.2 || mid >= 0.8 {
		t.Errorf("mid literal normalized to %v", mid)
	}
	// Out-of-range literals clamp.
	if mk(col.Max+100) != 1 || mk(col.Min-100) != 0 {
		t.Error("out-of-range literals should clamp")
	}
}

func TestFitLabels(t *testing.T) {
	d, _ := featDB(t)
	e, _ := NewEncoder(d, nil, 16)
	e.FitLabels([]int64{1, 10, 100})
	if e.Norm.MinLog != 0 || e.Norm.Scale() <= 0 {
		t.Errorf("norm = %+v", e.Norm)
	}
}

func TestEncoderJSONRoundTrip(t *testing.T) {
	d, s := featDB(t)
	e, _ := NewEncoder(d, nil, 64)
	e.FitLabels([]int64{1, 5, 50000})
	blob, err := json.Marshal(e)
	if err != nil {
		t.Fatal(err)
	}
	var e2 Encoder
	if err := json.Unmarshal(blob, &e2); err != nil {
		t.Fatal(err)
	}
	if e2.TableDim() != e.TableDim() || e2.JoinDim() != e.JoinDim() || e2.PredDim() != e.PredDim() {
		t.Fatal("dims differ after round trip")
	}
	if e2.Norm != e.Norm {
		t.Fatal("label norm lost")
	}
	// The restored encoder must encode queries identically.
	q := db.Query{
		Tables: []db.TableRef{{Table: "title", Alias: "t"}, {Table: "movie_keyword", Alias: "mk"}},
		Joins:  []db.JoinPred{{LeftAlias: "mk", LeftCol: "movie_id", RightAlias: "t", RightCol: "id"}},
		Preds:  []db.Predicate{{Alias: "t", Col: "kind_id", Op: db.OpEq, Val: 1}},
	}
	bms, _ := s.Bitmaps(q)
	a, err := e.EncodeQuery(q, bms)
	if err != nil {
		t.Fatal(err)
	}
	b, err := e2.EncodeQuery(q, bms)
	if err != nil {
		t.Fatal(err)
	}
	for i := range a.TableVecs {
		for j := range a.TableVecs[i] {
			if a.TableVecs[i][j] != b.TableVecs[i][j] {
				t.Fatal("table vecs differ after round trip")
			}
		}
	}
	for j := range a.PredVecs[0] {
		if a.PredVecs[0][j] != b.PredVecs[0][j] {
			t.Fatal("pred vecs differ after round trip")
		}
	}
}

func TestJoinDirectionInvariance(t *testing.T) {
	// a.x=b.y and b.y=a.x must hit the same one-hot slot (set semantics).
	d, s := featDB(t)
	e, _ := NewEncoder(d, nil, 64)
	q1 := db.Query{
		Tables: []db.TableRef{{Table: "title", Alias: "t"}, {Table: "movie_keyword", Alias: "mk"}},
		Joins:  []db.JoinPred{{LeftAlias: "mk", LeftCol: "movie_id", RightAlias: "t", RightCol: "id"}},
	}
	q2 := db.Query{
		Tables: q1.Tables,
		Joins:  []db.JoinPred{{LeftAlias: "t", LeftCol: "id", RightAlias: "mk", RightCol: "movie_id"}},
	}
	bms, _ := s.Bitmaps(q1)
	a, err := e.EncodeQuery(q1, bms)
	if err != nil {
		t.Fatal(err)
	}
	b, err := e.EncodeQuery(q2, bms)
	if err != nil {
		t.Fatal(err)
	}
	for j := range a.JoinVecs[0] {
		if a.JoinVecs[0][j] != b.JoinVecs[0][j] {
			t.Fatal("join direction changed encoding")
		}
	}
}
