package core

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"slices"
	"testing"

	"deepsketch/internal/datagen"
	"deepsketch/internal/db"
	"deepsketch/internal/featurize"
	"deepsketch/internal/mscn"
	"deepsketch/internal/workload"
)

// A sketch's engine keeps the h2 of every set element a batch computed in
// an element memo of its weight snapshot, so a row that recurs across
// estimates — a table's all-ones row, a join, a template's predicate — is
// forwarded once per engine, and each distinct element of a
// batch once. That changes what an estimate costs and must change nothing
// else: every test here compares a sketch's estimates, with ==, to a plain
// forward written out row by row (plainForward).

// plainForward is the MSCN forward of one featurized query, one set
// element at a time through both layers of its module, with no batch, no
// element memo and no dedupe, on the model's weights or — with round —
// on the weights rounded through float32, what an F32 engine stores. Each
// output is summed in ascending input order from zero with the bias added
// last, and the pool adds rows in order and scales by 1/n, as the engine's
// kernels do, so these are the bits the engine must return.
func plainForward(m *mscn.Model, enc featurize.Encoded, round bool) float64 {
	ps := m.Params() // layer i's weights at 2i, its bias at 2i+1
	weight := func(v float64) float64 {
		if round {
			return float64(float32(v))
		}
		return v
	}
	layer := func(i int, x []float64, relu bool) []float64 {
		w, b := ps[2*i].Data, ps[2*i+1].Data
		y := make([]float64, len(b))
		for o := range y {
			var a float64
			for k, v := range x {
				a += float64(v * weight(w[o*len(x)+k]))
			}
			a += weight(b[o])
			if relu && !(a > 0) {
				a = 0
			}
			y[o] = a
		}
		return y
	}
	var concat []float64
	for k, vecs := range [][][]float64{enc.TableVecs, enc.JoinVecs, enc.PredVecs} {
		pool := make([]float64, m.Cfg.HiddenUnits)
		for i, v := range vecs {
			h2 := layer(2*k+1, layer(2*k, v, true), true)
			for c := range pool {
				if i == 0 {
					pool[c] = h2[c]
				} else {
					pool[c] += h2[c]
				}
			}
		}
		if n := len(vecs); n > 1 {
			inv := 1 / float64(n)
			for c := range pool {
				pool[c] *= inv
			}
		}
		concat = append(concat, pool...)
	}
	y := layer(7, layer(6, concat, true), false)[0]
	return 1.0 / (1.0 + math.Exp(-y))
}

// plainCardinalities estimates qs through plainForward as an engine at
// precision p must.
func plainCardinalities(t *testing.T, s *Sketch, qs []db.Query, p mscn.Precision) []float64 {
	t.Helper()
	out := make([]float64, len(qs))
	for i, q := range qs {
		bms, err := s.Samples.Bitmaps(q)
		if err != nil {
			t.Fatal(err)
		}
		enc, err := s.Encoder.EncodeQuery(q, bms)
		if err != nil {
			t.Fatal(err)
		}
		out[i] = s.Encoder.Norm.Denormalize(plainForward(s.Model, enc, p == mscn.F32))
	}
	return out
}

// checkMemoChangesNothing: on s, whose engine is at precision p, the
// batched path (EstimateBatch) over all of qs and the single path over a
// prefix of it equal the plain engine bit for bit.
func checkMemoChangesNothing(t *testing.T, what string, s *Sketch, qs []db.Query, p mscn.Precision) {
	t.Helper()
	want := plainCardinalities(t, s, qs, p)
	got, err := s.EstimateBatch(context.Background(), qs)
	if err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if math.Float64bits(got[i].Cardinality) != math.Float64bits(want[i]) {
			t.Fatalf("%s (precision %d): batched query %d (%s) = %v, plain engine %v", what, p, i, qs[i].SQL(nil), got[i].Cardinality, want[i])
		}
	}
	for i, q := range qs[:min(len(qs), 150)] {
		one, err := s.Cardinality(q)
		if err != nil {
			t.Fatal(err)
		}
		if math.Float64bits(one) != math.Float64bits(want[i]) {
			t.Fatalf("%s (precision %d): single query %d (%s) = %v, plain forward %v", what, p, i, q.SQL(nil), one, want[i])
		}
	}
}

// precisions is a sketch at F64 and a clone of it at F32: one engine, and
// one memo, per precision.
type precisions [2]*Sketch

// bothPrecisions pairs s, at F64, with a clone of it whose engine stores
// its weights at F32.
func bothPrecisions(s *Sketch) precisions {
	c := s.Clone()
	c.SetEnginePrecision(mscn.F32)
	return precisions{mscn.F64: s, mscn.F32: c}
}

// check runs checkMemoChangesNothing on both sketches, each at its
// precision; each memo stays warm from one check to the next.
func (ps precisions) check(t *testing.T, what string, qs []db.Query) {
	t.Helper()
	for p, s := range ps {
		checkMemoChangesNothing(t, what, s, qs, mscn.Precision(p))
	}
}

// memoQueries is the bench's cold set in small (signature-distinct queries
// from the training distribution, up to 4 joins and 3 predicates), the
// JOB-light draw the benchmark grades, and a year-template expansion (one
// statement, one literal varying — the rows that repeat within a batch).
func memoQueries(t *testing.T, d *db.DB, s *Sketch, n int) []db.Query {
	t.Helper()
	g, err := workload.NewGenerator(d, workload.GenConfig{Seed: 7, Count: n, MaxJoins: 4, MaxPreds: 3, Dedup: true})
	if err != nil {
		t.Fatal(err)
	}
	qs := g.Generate()
	if len(qs) != n {
		t.Fatalf("generated %d distinct queries, want %d", len(qs), n)
	}
	jl, err := workload.JOBLight(d, 1)
	if err != nil {
		t.Fatal(err)
	}
	return append(append(qs, jl...), templateQueries(t, d, s)...)
}

// templateQueries expands the paper's year template over s's samples.
func templateQueries(t *testing.T, d *db.DB, s *Sketch) []db.Query {
	t.Helper()
	tpl, err := workload.YearTemplate(d, "love")
	if err != nil {
		t.Fatal(err)
	}
	insts, err := tpl.Instantiate(s.Samples, workload.GroupDistinct, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(insts) < 10 {
		t.Fatalf("the template expands to %d instances", len(insts))
	}
	qs := make([]db.Query, len(insts))
	for i, inst := range insts {
		qs[i] = inst.Query
	}
	return qs
}

// referenceRows returns, per table of the sketch, the row an unfiltered
// reference to it encodes to: its one-hot plus an all-ones bitmap of the
// table's actual sample size (shorter than SampleSize for small tables),
// through the Bitmaps → EncodeQueryTo path every estimate takes. These are
// the table rows that recur most across estimates.
func referenceRows(t *testing.T, s *Sketch) [][]float64 {
	t.Helper()
	enc := s.Encoder
	rows := make([][]float64, len(enc.Tables))
	for i, name := range enc.Tables {
		q := db.Query{Tables: []db.TableRef{{Table: name, Alias: name}}}
		bms, err := s.Samples.Bitmaps(q)
		if err != nil {
			t.Fatal(err)
		}
		e, err := enc.EncodeQuery(q, bms)
		if err != nil {
			t.Fatal(err)
		}
		rows[i] = e.TableVecs[0]
	}
	return rows
}

// referenceShare counts the table rows of qs that equal one of s's
// reference rows — table rows that recur from query to query, so the memo
// answers all but their first.
func referenceShare(t *testing.T, s *Sketch, qs []db.Query) (hits, rows int) {
	t.Helper()
	refs := referenceRows(t, s)
	for _, q := range qs {
		bms, err := s.Samples.Bitmaps(q)
		if err != nil {
			t.Fatal(err)
		}
		enc, err := s.Encoder.EncodeQuery(q, bms)
		if err != nil {
			t.Fatal(err)
		}
		for _, v := range enc.TableVecs {
			rows++
			for _, ref := range refs {
				if slices.Equal(v, ref) {
					hits++
					break
				}
			}
		}
	}
	return hits, rows
}

func TestReferenceRowMemoChangesNoEstimate(t *testing.T) {
	d, shared := getSketch(t)
	s := shared.Clone() // the estimates below must not fill the shared sketch's memo
	qs := memoQueries(t, d, s, 2000)

	// The property that makes the memo worth having, measured rather than
	// assumed: a large share of this traffic's table rows are reference
	// rows, which recur. (If this reads 0 the memo is not exercised across
	// batches.)
	hits, rows := referenceShare(t, s, qs)
	if hits*5 < rows {
		t.Fatalf("only %d of %d table rows equal a reference row", hits, rows)
	}
	t.Logf("%d of %d table rows (%.1f %%) equal a reference row", hits, rows, 100*float64(hits)/float64(rows))

	built := bothPrecisions(s)
	built.check(t, "built sketch", qs)

	// Refresh = clone + warm-start training: a new Sketch value, a new
	// model, a new engine, new weights.
	refreshed, err := Refresh(context.Background(), s, deltaWorkload(t, s, 403, 150), RefreshOptions{Epochs: 1}, nil)
	if err != nil {
		t.Fatal(err)
	}
	bothPrecisions(refreshed).check(t, "refreshed sketch", qs)
	built.check(t, "the sketch a refresh was taken from", qs)

	// ReadWeights under a serving engine whose memo is warm is refused
	// and changes no estimate.
	before, err := s.BatchCardinalities(context.Background(), qs[:50])
	if err != nil {
		t.Fatal(err)
	}
	var w bytes.Buffer
	if err := refreshed.Model.WriteWeights(&w); err != nil {
		t.Fatal(err)
	}
	if err := s.Model.ReadWeights(&w); err == nil {
		t.Fatal("ReadWeights on a serving sketch's model succeeded")
	}
	after, err := s.BatchCardinalities(context.Background(), qs[:50])
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(before, after) {
		t.Fatal("a refused ReadWeights changed an estimate")
	}
	other, err := refreshed.BatchCardinalities(context.Background(), qs[:50])
	if err != nil {
		t.Fatal(err)
	}
	if slices.Equal(before, other) {
		t.Fatal("the refreshed sketch estimates as the one it was taken from — the test is vacuous")
	}

	bothPrecisions(s.Clone()).check(t, "clone", qs)

	var file bytes.Buffer
	if err := s.Save(&file); err != nil {
		t.Fatal(err)
	}
	loaded, err := Load(&file)
	if err != nil {
		t.Fatal(err)
	}
	bothPrecisions(loaded).check(t, "loaded sketch", qs)

	// Each precision on its own cold clone, half the queries first: the
	// second half is then served partly from the first half's rows.
	half := len(qs) / 2
	cold := bothPrecisions(s.Clone())
	cold.check(t, "first half", qs[:half])
	cold.check(t, "second half", qs[half:])

	// The same queries in the opposite order, on a warm memo: rows come
	// from slots other batches filled.
	rev := slices.Clone(qs)
	slices.Reverse(rev)
	built.check(t, "reversed, warm memo", rev)
}

// TestServingMemoLeavesSketchBytes: serving fills the engine's memo and
// nothing else; the sketch file written after serving, at either
// precision (a clone each), is the one written before.
func TestServingMemoLeavesSketchBytes(t *testing.T) {
	d, shared := getSketch(t)
	s := shared.Clone()
	var before bytes.Buffer
	if err := s.Save(&before); err != nil {
		t.Fatal(err)
	}
	qs := memoQueries(t, d, s, 300)
	for p, c := range bothPrecisions(s) {
		for range 2 {
			if _, err := c.BatchCardinalities(context.Background(), qs); err != nil {
				t.Fatal(err)
			}
		}
		var after bytes.Buffer
		if err := c.Save(&after); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(before.Bytes(), after.Bytes()) {
			t.Fatalf("precision %d: the sketch file changed after serving: %d bytes, then %d", p, before.Len(), after.Len())
		}
	}
}

// TestTemplatesHeldInMemo: 32 year templates, the keyword varying as in
// the benchmark's template set, estimated once fill the memo so that a
// second pass finds every distinct row of every template in it — no two of
// their rows evict each other — and estimates the same bits.
func TestTemplatesHeldInMemo(t *testing.T) {
	_, shared := getSketch(t)
	s := shared.Clone() // the estimates below must not fill the shared sketch's memo
	ctx := context.Background()
	var first [][]TemplateResult
	for k := 1; k <= 32; k++ {
		sql := fmt.Sprintf("SELECT COUNT(*) FROM title t, movie_keyword mk WHERE mk.movie_id=t.id AND mk.keyword_id=%d AND t.production_year=?", k)
		res, err := s.EstimateTemplateSQL(ctx, sql, workload.GroupDistinct, 0)
		if err != nil {
			t.Fatal(err)
		}
		first = append(first, res)
	}
	distinctRows := 0
	for i, res := range first {
		qs := make([]db.Query, len(res))
		for j, r := range res {
			qs[j] = r.Query
		}
		misses, distinct, err := s.Model.Engine().MemoMisses(&querySource{enc: s.Encoder, samples: s.Samples, qs: qs}, len(qs))
		if err != nil {
			t.Fatal(err)
		}
		if misses != 0 {
			t.Fatalf("template %d: the memo lacks %d of its %d distinct rows on the second pass", i+1, misses, distinct)
		}
		distinctRows += distinct
		again, err := s.BatchCardinalities(ctx, qs)
		if err != nil {
			t.Fatal(err)
		}
		for j, r := range res {
			if math.Float64bits(again[j]) != math.Float64bits(r.Estimate) {
				t.Fatalf("template %d instance %d: %v, first pass %v", i+1, j, again[j], r.Estimate)
			}
		}
	}
	if distinctRows < 32*10 {
		t.Fatalf("32 templates have %d distinct rows in all — the test is vacuous", distinctRows)
	}
}

// TestReferenceRowsOfSmallTables: a table smaller than the sample size has a
// short all-ones bitmap (TPC-H's nation: 25 rows), and every unfiltered
// reference to it encodes to that short row — built from the table's actual
// sample, not from SampleSize — so after its first it is a memo hit.
func TestReferenceRowsOfSmallTables(t *testing.T) {
	d := datagen.TPCH(datagen.TPCHConfig{Seed: 3, Orders: 600})
	s, err := Build(d, Config{
		SampleSize: 64, TrainQueries: 200, MaxJoins: 3, MaxPreds: 2, Seed: 2,
		Model: mscn.Config{HiddenUnits: 16, Epochs: 2, BatchSize: 32, Seed: 2},
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	refs := referenceRows(t, s)
	if len(refs) != len(s.Encoder.Tables) {
		t.Fatalf("%d reference rows for %d tables", len(refs), len(s.Encoder.Tables))
	}
	small := 0
	for ti, name := range s.Encoder.Tables {
		n := s.Samples.For(name).Rows
		if n < s.Encoder.SampleSize {
			small++
		}
		for c, v := range refs[ti] {
			want := 0.0
			if c == ti || (c >= len(s.Encoder.Tables) && c < len(s.Encoder.Tables)+n) {
				want = 1
			}
			if v != want {
				t.Fatalf("reference row of %s (sample of %d): column %d = %v, want %v", name, n, c, v, want)
			}
		}
	}
	if n := s.Samples.For("nation").Rows; n != 25 || small == 0 {
		t.Fatalf("nation's sample has %d rows and %d tables are smaller than the sample size; the fixture no longer has a short bitmap", n, small)
	}

	g, err := workload.NewGenerator(d, workload.GenConfig{Seed: 9, Count: 400, MaxJoins: 3, MaxPreds: 2, Dedup: true})
	if err != nil {
		t.Fatal(err)
	}
	qs := g.Generate()
	// An unfiltered reference to nation encodes to nation's reference row.
	nationRef := refs[slices.Index(s.Encoder.Tables, "nation")]
	var nation int
	for _, q := range qs {
		if _, ok := q.RefByAlias("n"); !ok || len(q.PredsFor("n")) > 0 {
			continue
		}
		nation++
		bms, err := s.Samples.Bitmaps(q)
		if err != nil {
			t.Fatal(err)
		}
		enc, err := s.Encoder.EncodeQuery(q, bms)
		if err != nil {
			t.Fatal(err)
		}
		found := false
		for _, v := range enc.TableVecs {
			found = found || slices.Equal(v, nationRef)
		}
		if !found {
			t.Fatalf("%s: no table row equals nation's reference row", q.SQL(nil))
		}
	}
	if nation == 0 {
		t.Fatal("no query references nation unfiltered")
	}
	hits, rows := referenceShare(t, s, qs)
	if hits == 0 {
		t.Fatalf("none of %d table rows equals a reference row", rows)
	}
	t.Logf("%d of %d table rows equal a reference row; %d queries reference nation unfiltered", hits, rows, nation)
	bothPrecisions(s).check(t, "tpch sketch", qs)
}

// TestReferenceRowsWithoutBitmaps: the SampleSize-0 ablation's table rows
// are the one-hot alone, so every table row equals a reference row and
// recurs; its sketch still estimates what a plain engine estimates.
func TestReferenceRowsWithoutBitmaps(t *testing.T) {
	d, shared := getSketch(t)
	enc, err := featurize.NewEncoder(d, shared.Cfg.Tables, 0)
	if err != nil {
		t.Fatal(err)
	}
	enc.Norm = shared.Encoder.Norm
	s := &Sketch{
		Cfg: shared.Cfg, Encoder: enc, Samples: shared.Samples, DBName: shared.DBName,
		Model: mscn.New(shared.Cfg.Model, enc.TableDim(), enc.JoinDim(), enc.PredDim()),
	}
	qs := memoQueries(t, d, s, 200)
	if hits, rows := referenceShare(t, s, qs); hits != rows {
		t.Fatalf("%d of %d one-hot table rows equal a reference row, want all", hits, rows)
	}
	bothPrecisions(s).check(t, "no-bitmap sketch", qs)
	for _, q := range qs[:20] {
		if v, err := s.Cardinality(q); err != nil || v < 1 || math.IsNaN(v) {
			t.Fatalf("no-bitmap estimate %v, %v", v, err)
		}
	}
}
