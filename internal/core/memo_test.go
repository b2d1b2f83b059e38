package core

import (
	"bytes"
	"context"
	"math"
	"slices"
	"testing"

	"deepsketch/internal/datagen"
	"deepsketch/internal/db"
	"deepsketch/internal/featurize"
	"deepsketch/internal/mscn"
	"deepsketch/internal/workload"
)

// A sketch hands its engine the all-ones row of every table once
// (Sketch.engine); the engine keeps their h2, with the join and zero rows',
// in its element table and forwards each distinct element of a batch once.
// That changes what an estimate costs and must change nothing else: every
// test here compares a sketch's estimates, with ==, to a plain forward
// written out row by row (plainForward).

// plainForward is the MSCN forward of one featurized query, one set
// element at a time through both layers of its module, with no batch, no
// element table and no dedupe, on the model's weights or — with round —
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
				a += v * weight(w[o*len(x)+k])
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

// checkMemoChangesNothing switches s to precision p; then the batched
// path (EstimateBatch) over all of qs and the single path over a prefix of
// it equal the plain engine bit for bit.
func checkMemoChangesNothing(t *testing.T, what string, s *Sketch, qs []db.Query, p mscn.Precision) {
	t.Helper()
	s.SetEnginePrecision(p)
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

// atBothPrecisions runs the check at F64, F32 and F64 again (each switch
// replaces the engine's snapshot and its table), leaving s at F64.
func atBothPrecisions(t *testing.T, what string, s *Sketch, qs []db.Query) {
	t.Helper()
	for _, p := range []mscn.Precision{mscn.F64, mscn.F32, mscn.F64} {
		checkMemoChangesNothing(t, what, s, qs, p)
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

// referenceShare counts the table rows of qs that equal one of s's
// reference rows — the table rows the element table answers.
func referenceShare(t *testing.T, s *Sketch, qs []db.Query) (hits, rows int) {
	t.Helper()
	refs := s.referenceRows()
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
	s := shared.Clone() // precision flips and ReadWeights below must not reach the shared sketch
	qs := memoQueries(t, d, s, 2000)

	// The property that makes the table worth having, measured rather than
	// assumed: a large share of this traffic's table rows are reference
	// rows. (If this reads 0 the comparisons below compare nothing.)
	hits, rows := referenceShare(t, s, qs)
	if hits*5 < rows {
		t.Fatalf("only %d of %d table rows equal a reference row", hits, rows)
	}
	t.Logf("%d of %d table rows (%.1f %%) equal a reference row", hits, rows, 100*float64(hits)/float64(rows))

	atBothPrecisions(t, "built sketch", s, qs)

	// Refresh = clone + warm-start training: a new Sketch value, a new
	// model, a new engine, new weights.
	refreshed, err := Refresh(context.Background(), s, deltaWorkload(t, s, 403, 150), RefreshOptions{Epochs: 1, Workers: 2}, nil)
	if err != nil {
		t.Fatal(err)
	}
	atBothPrecisions(t, "refreshed sketch", refreshed, qs)
	atBothPrecisions(t, "the sketch a refresh was taken from", s, qs)

	// ReadWeights under a serving engine whose tables are warm: the old
	// generation's rows must not survive.
	before, err := s.BatchCardinalities(context.Background(), qs[:50])
	if err != nil {
		t.Fatal(err)
	}
	var w bytes.Buffer
	if err := refreshed.Model.WriteWeights(&w); err != nil {
		t.Fatal(err)
	}
	if err := s.Model.ReadWeights(&w); err != nil {
		t.Fatal(err)
	}
	atBothPrecisions(t, "after ReadWeights", s, qs)
	after, err := s.BatchCardinalities(context.Background(), qs[:50])
	if err != nil {
		t.Fatal(err)
	}
	if slices.Equal(before, after) {
		t.Fatal("ReadWeights changed no estimate — the test is vacuous")
	}

	atBothPrecisions(t, "clone", s.Clone(), qs)

	var file bytes.Buffer
	if err := s.Save(&file); err != nil {
		t.Fatal(err)
	}
	loaded, err := Load(&file)
	if err != nil {
		t.Fatal(err)
	}
	atBothPrecisions(t, "loaded sketch", loaded, qs)

	// A precision flip mid-stream: each half is served by its own snapshot.
	half := len(qs) / 2
	checkMemoChangesNothing(t, "first half", s, qs[:half], mscn.F64)
	checkMemoChangesNothing(t, "second half after the flip", s, qs[half:], mscn.F32)
	checkMemoChangesNothing(t, "second half flipped back", s, qs[half:], mscn.F64)

	// Another reference set under the same weights: the table must follow.
	s.engine().SetReferenceRows(s.referenceRows()[1:])
	atBothPrecisions(t, "replaced reference rows", s, qs)
}

// TestReferenceRowsOfSmallTables: a table smaller than the sample size has a
// short all-ones bitmap (TPC-H's nation: 25 rows), and its reference row is
// that short row — built from the table's actual sample, not from
// SampleSize — so unfiltered references to it are element-table hits.
func TestReferenceRowsOfSmallTables(t *testing.T) {
	d := datagen.TPCH(datagen.TPCHConfig{Seed: 3, Orders: 600})
	s, err := Build(d, Config{
		SampleSize: 64, TrainQueries: 200, MaxJoins: 3, MaxPreds: 2, Seed: 2, Workers: 2,
		Model: mscn.Config{HiddenUnits: 16, Epochs: 2, BatchSize: 32, Seed: 2},
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	refs := s.referenceRows()
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
	atBothPrecisions(t, "tpch sketch", s, qs)
}

// TestReferenceRowsWithoutBitmaps: the SampleSize-0 ablation's table rows
// are the one-hot alone; its sketch still builds reference rows (which every
// table row then equals) and still estimates what a plain engine estimates.
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
	atBothPrecisions(t, "no-bitmap sketch", s, qs)
	for _, q := range qs[:20] {
		if v, err := s.Cardinality(q); err != nil || v < 1 || math.IsNaN(v) {
			t.Fatalf("no-bitmap estimate %v, %v", v, err)
		}
	}
}
