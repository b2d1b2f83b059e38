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
// (Sketch.engine) and the engine memoises their first layer. That changes
// what an estimate costs and must change nothing else: every test here
// compares a sketch's estimates, with ==, to those of an engine over the
// same model that was never given a reference row.

// plainCardinalities estimates qs on a fresh engine over s.Model with no
// reference rows, at the model's current precision.
func plainCardinalities(t *testing.T, s *Sketch, qs []db.Query) []float64 {
	t.Helper()
	out := make([]float64, len(qs))
	src := &querySource{s: s, qs: qs}
	if err := mscn.NewEngine(s.Model).PredictSourceInto(context.Background(), src, len(qs), out); err != nil {
		t.Fatal(err)
	}
	for i, y := range out {
		out[i] = s.Encoder.Norm.Denormalize(y)
	}
	return out
}

// checkMemoChangesNothing: the batched path over all of qs and the single
// path over a prefix of it equal the plain engine bit for bit.
func checkMemoChangesNothing(t *testing.T, what string, s *Sketch, qs []db.Query) {
	t.Helper()
	want := plainCardinalities(t, s, qs)
	got, err := s.BatchCardinalities(context.Background(), qs)
	if err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("%s (%v): batched query %d (%s) = %v, plain engine %v", what, s.EnginePrecision(), i, qs[i].SQL(nil), got[i], want[i])
		}
	}
	for i, q := range qs[:min(len(qs), 150)] {
		one, err := s.Cardinality(q)
		if err != nil {
			t.Fatal(err)
		}
		if math.Float64bits(one) != math.Float64bits(want[i]) {
			t.Fatalf("%s (%v): single query %d (%s) = %v, plain engine %v", what, s.EnginePrecision(), i, q.SQL(nil), one, want[i])
		}
	}
}

// atBothPrecisions runs the check at f64, f32 and f64 again (the second f64
// pass reads a memo that an f32 pass ran beside).
func atBothPrecisions(t *testing.T, what string, s *Sketch, qs []db.Query) {
	t.Helper()
	was := s.EnginePrecision()
	for _, p := range []mscn.Precision{mscn.F64, mscn.F32, mscn.F64} {
		s.SetEnginePrecision(p)
		checkMemoChangesNothing(t, what, s, qs)
	}
	s.SetEnginePrecision(was)
}

// memoQueries is the bench's cold set in small (signature-distinct queries
// from the training distribution, up to 4 joins and 3 predicates) plus the
// JOB-light draw the benchmark grades.
func memoQueries(t *testing.T, d *db.DB, n int) []db.Query {
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
	return append(qs, jl...)
}

// referenceShare counts the table rows of qs that equal one of s's
// reference rows — the rows the memo answers.
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
	qs := memoQueries(t, d, 2000)
	s := shared.Clone() // precision flips and ReadWeights below must not reach the shared sketch

	// The property that makes the memo worth having, measured rather than
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

	// ReadWeights under a serving engine whose memos are warm: the old
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

	// A precision flip mid-stream: each half is served by its own memo.
	half := len(qs) / 2
	s.SetEnginePrecision(mscn.F64)
	checkMemoChangesNothing(t, "first half", s, qs[:half])
	s.SetEnginePrecision(mscn.F32)
	checkMemoChangesNothing(t, "second half after the flip", s, qs[half:])
	s.SetEnginePrecision(mscn.F64)
	checkMemoChangesNothing(t, "second half flipped back", s, qs[half:])
}

// TestReferenceRowsOfSmallTables: a table smaller than the sample size has a
// short all-ones bitmap (TPC-H's nation: 25 rows), and its reference row is
// that short row — built from the table's actual sample, not from
// SampleSize — so unfiltered references to it are memo hits.
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
	qs := memoQueries(t, d, 200)
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
