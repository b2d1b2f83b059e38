package core

import (
	"bytes"
	"context"
	"math"
	"testing"

	"deepsketch/internal/datagen"
	"deepsketch/internal/db"
	"deepsketch/internal/metrics"
	"deepsketch/internal/mscn"
	"deepsketch/internal/trainmon"
	"deepsketch/internal/workload"
)

// buildTestSketch trains a small sketch once and shares it across tests.
func buildTestSketch(t testing.TB) (*db.DB, *Sketch) {
	t.Helper()
	d := datagen.IMDb(datagen.IMDbConfig{Seed: 81, Titles: 1200, Keywords: 60, Companies: 30, Persons: 200})
	cfg := Config{
		Name: "test-sketch", SampleSize: 64, TrainQueries: 600, MaxJoins: 2, MaxPreds: 2,
		Seed: 5, Workers: 2,
		Model: mscn.Config{HiddenUnits: 24, Epochs: 10, BatchSize: 32, Seed: 5},
	}
	s, err := Build(d, cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	return d, s
}

var sharedSketch *Sketch
var sharedDB *db.DB

func getSketch(t testing.TB) (*db.DB, *Sketch) {
	t.Helper()
	if sharedSketch == nil {
		sharedDB, sharedSketch = buildTestSketch(t)
	}
	return sharedDB, sharedSketch
}

func TestBuildPipelineStages(t *testing.T) {
	d := datagen.IMDb(datagen.IMDbConfig{Seed: 82, Titles: 400, Keywords: 40, Companies: 20, Persons: 100})
	mon := trainmon.New()
	cfg := Config{
		SampleSize: 32, TrainQueries: 100, MaxJoins: 2, MaxPreds: 2, Seed: 1,
		Model: mscn.Config{HiddenUnits: 8, Epochs: 2, BatchSize: 32, Seed: 1},
	}
	s, err := Build(d, cfg, mon)
	if err != nil {
		t.Fatal(err)
	}
	snap := mon.Snapshot()
	if !snap.Finished {
		t.Error("monitor should report finished")
	}
	for _, stage := range []trainmon.Stage{trainmon.StageDefine, trainmon.StageGenerate,
		trainmon.StageExecute, trainmon.StageFeaturize, trainmon.StageTrain} {
		if _, ok := snap.StageTimes[stage]; !ok {
			t.Errorf("missing stage time for %s", stage)
		}
	}
	if len(s.Epochs) != 2 {
		t.Errorf("epochs recorded = %d", len(s.Epochs))
	}
	if s.Name() != "imdb" {
		t.Errorf("default name = %q, want db name", s.Name())
	}
}

func TestBuildValidation(t *testing.T) {
	d := datagen.IMDb(datagen.IMDbConfig{Seed: 83, Titles: 200})
	if _, err := Build(d, Config{Tables: []string{"nope"}, SampleSize: 8, TrainQueries: 50}, nil); err == nil {
		t.Error("unknown table should fail")
	}
	if _, err := Build(d, Config{SampleSize: -1, TrainQueries: 50}, nil); err == nil {
		t.Error("negative sample size should fail")
	}
	if _, err := Build(d, Config{SampleSize: 8, TrainQueries: 5}, nil); err == nil {
		t.Error("too few training queries should fail")
	}
}

func TestSketchEstimateSanity(t *testing.T) {
	d, s := getSketch(t)
	// The sketch should beat wild guessing on simple queries: check the
	// median q-error over a held-out uniform workload is modest.
	g, err := workload.NewGenerator(d, workload.GenConfig{Seed: 999, Count: 80, MaxJoins: 2, MaxPreds: 2})
	if err != nil {
		t.Fatal(err)
	}
	qs := g.Generate()
	labeled, err := workload.Label(d, qs, 2, nil)
	if err != nil {
		t.Fatal(err)
	}
	var qerrs []float64
	for _, lq := range labeled {
		est, err := s.Cardinality(lq.Query)
		if err != nil {
			t.Fatal(err)
		}
		if est < 1 || math.IsNaN(est) || math.IsInf(est, 0) {
			t.Fatalf("estimate %v invalid for %s", est, lq.Query.SQL(nil))
		}
		qerrs = append(qerrs, metrics.QError(est, float64(lq.Card)))
	}
	sum := metrics.Summarize(qerrs)
	if sum.Median > 15 {
		t.Errorf("median q-error %v too high for a trained sketch", sum.Median)
	}
}

func TestSketchEstimateBatchMatchesEstimate(t *testing.T) {
	d, s := getSketch(t)
	g, _ := workload.NewGenerator(d, workload.GenConfig{Seed: 55, Count: 20, MaxJoins: 2, MaxPreds: 2})
	qs := g.Generate()
	batch, err := s.BatchCardinalities(context.Background(), qs)
	if err != nil {
		t.Fatal(err)
	}
	for i, q := range qs {
		single, err := s.Cardinality(q)
		if err != nil {
			t.Fatal(err)
		}
		if single != batch[i] {
			t.Fatalf("query %d: batch %v vs single %v", i, batch[i], single)
		}
	}
}

func TestSketchEstimateSQL(t *testing.T) {
	_, s := getSketch(t)
	ctx := context.Background()
	est, err := s.EstimateSQL(ctx, "SELECT COUNT(*) FROM title t WHERE t.production_year>2000")
	if err != nil {
		t.Fatal(err)
	}
	if est.Cardinality < 1 {
		t.Errorf("estimate = %v", est.Cardinality)
	}
	if est.Source != s.Name() {
		t.Errorf("source = %q, want %q", est.Source, s.Name())
	}
	if _, err := s.EstimateSQL(ctx, "SELECT COUNT(*) FROM title t WHERE t.production_year=?"); err == nil {
		t.Error("placeholder query should be rejected by EstimateSQL")
	}
	if _, err := s.EstimateSQL(ctx, "garbage"); err == nil {
		t.Error("garbage SQL should error")
	}
	// String literal via the embedded dictionary (no database needed).
	est2, err := s.EstimateSQL(ctx, "SELECT COUNT(*) FROM title t, movie_keyword mk, keyword k WHERE mk.movie_id=t.id AND mk.keyword_id=k.id AND k.keyword='love'")
	if err != nil {
		t.Fatal(err)
	}
	if est2.Cardinality < 1 {
		t.Errorf("estimate = %v", est2.Cardinality)
	}
}

func TestSketchTemplateSQL(t *testing.T) {
	_, s := getSketch(t)
	res, err := s.EstimateTemplateSQL(context.Background(),
		"SELECT COUNT(*) FROM title t, movie_keyword mk, keyword k WHERE mk.movie_id=t.id AND mk.keyword_id=k.id AND k.keyword='love' AND t.production_year=?",
		workload.GroupDistinct, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(res) < 5 {
		t.Fatalf("template instances = %d", len(res))
	}
	for i := 1; i < len(res); i++ {
		if res[i].Lo <= res[i-1].Lo {
			t.Error("template results not ascending")
		}
	}
	for _, r := range res {
		if r.Estimate < 1 {
			t.Errorf("instance %s estimate %v", r.Label, r.Estimate)
		}
	}
	// Bucketed grouping.
	res2, err := s.EstimateTemplateSQL(context.Background(),
		"SELECT COUNT(*) FROM title t WHERE t.production_year=?",
		workload.GroupBuckets, 8)
	if err != nil {
		t.Fatal(err)
	}
	if len(res2) != 8 {
		t.Errorf("buckets = %d", len(res2))
	}
}

// BenchmarkEstimateTemplate estimates a year template on the shared small
// sketch, end to end as the daemon's template route does: parse, expand
// over the sample's years, bitmaps, featurize into valued runs, one packed
// forward. After the first op the element memo holds most rows.
func BenchmarkEstimateTemplate(b *testing.B) {
	_, s := getSketch(b)
	const sql = "SELECT COUNT(*) FROM title t, movie_keyword mk WHERE mk.movie_id=t.id AND mk.keyword_id=3 AND t.production_year=?"
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := s.EstimateTemplateSQL(ctx, sql, workload.GroupDistinct, 0)
		if err != nil || len(res) < 5 {
			b.Fatalf("%d instances, %v", len(res), err)
		}
	}
}

func TestSketchSaveLoadRoundTrip(t *testing.T) {
	d, s := getSketch(t)
	var buf bytes.Buffer
	if err := s.Save(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if loaded.Name() != s.Name() || loaded.DBName != s.DBName {
		t.Error("metadata lost")
	}
	if len(loaded.Epochs) != len(s.Epochs) {
		t.Error("epoch stats lost")
	}
	// Identical estimates without the database.
	g, _ := workload.NewGenerator(d, workload.GenConfig{Seed: 77, Count: 25, MaxJoins: 2, MaxPreds: 2})
	for _, q := range g.Generate() {
		a, err := s.Cardinality(q)
		if err != nil {
			t.Fatal(err)
		}
		b, err := loaded.Cardinality(q)
		if err != nil {
			t.Fatal(err)
		}
		if a != b {
			t.Fatalf("estimates differ after round trip: %v vs %v", a, b)
		}
	}
	// SQL still parses against the embedded schema.
	if _, err := loaded.EstimateSQL(context.Background(), "SELECT COUNT(*) FROM title t WHERE t.kind_id=1"); err != nil {
		t.Fatal(err)
	}
}

func TestLoadRejectsGarbage(t *testing.T) {
	if _, err := Load(bytes.NewReader([]byte("not a sketch"))); err == nil {
		t.Error("garbage should be rejected")
	}
	if _, err := Load(bytes.NewReader([]byte("DSKB\xff\xff\xff\xff"))); err == nil {
		t.Error("bad version should be rejected")
	}
	if _, err := Load(bytes.NewReader(nil)); err == nil {
		t.Error("empty stream should be rejected")
	}
}

func TestFootprint(t *testing.T) {
	_, s := getSketch(t)
	fb, err := s.Footprint()
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := s.Save(&buf); err != nil {
		t.Fatal(err)
	}
	if fb.Total != int64(buf.Len()) {
		t.Errorf("footprint %d != serialized size %d", fb.Total, buf.Len())
	}
	if fb.Weights <= 0 || fb.Samples <= 0 || fb.Header <= 0 {
		t.Errorf("breakdown has empty component: %+v", fb)
	}
}

// TestSketchDeterministicBuild: a sketch file is a pure function of its
// inputs, the database, config and seed. Builds from the same ones save the
// same bytes at 1, 2 and 3 workers, and so do refreshes of one parent on
// one delta workload — with no field zeroed, so nothing clock- or
// core-count-dependent may enter the file.
func TestSketchDeterministicBuild(t *testing.T) {
	d := datagen.IMDb(datagen.IMDbConfig{Seed: 84, Titles: 400, Keywords: 40, Companies: 20, Persons: 100})
	cfg := Config{
		SampleSize: 32, TrainQueries: 120, MaxJoins: 2, MaxPreds: 2, Seed: 9, Workers: 2,
		Model: mscn.Config{HiddenUnits: 8, Epochs: 3, BatchSize: 32, Seed: 9},
	}
	saved := func(s *Sketch) []byte {
		t.Helper()
		var buf bytes.Buffer
		if err := s.Save(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	build := func(workers int) *Sketch {
		t.Helper()
		c := cfg
		c.Workers = workers
		s, err := Build(d, c, nil)
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	parent := build(2)
	want := saved(parent)
	for _, workers := range []int{1, 2, 3} {
		if got := saved(build(workers)); !bytes.Equal(got, want) {
			t.Fatalf("a build at %d workers saved a different file than one at 2 (%d and %d bytes)", workers, len(got), len(want))
		}
	}

	g, err := workload.NewGenerator(d, workload.GenConfig{Seed: 85, Count: 60, MaxJoins: 2, MaxPreds: 2, Dedup: true})
	if err != nil {
		t.Fatal(err)
	}
	labeled, err := workload.Label(d, g.Generate(), 2, nil)
	if err != nil {
		t.Fatal(err)
	}
	refresh := func(workers int) []byte {
		t.Helper()
		ns, err := Refresh(context.Background(), parent, labeled, RefreshOptions{Epochs: 2, Workers: workers}, nil)
		if err != nil {
			t.Fatal(err)
		}
		return saved(ns)
	}
	want = refresh(2)
	for _, workers := range []int{1, 2, 3} {
		if got := refresh(workers); !bytes.Equal(got, want) {
			t.Fatalf("a refresh at %d workers saved a different file than one at 2 (%d and %d bytes)", workers, len(got), len(want))
		}
	}
}
