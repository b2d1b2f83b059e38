package deepsketch_test

import (
	"bytes"
	"context"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"deepsketch"
	"deepsketch/internal/workload"
)

// Shared tiny fixture: building a sketch is the expensive part, do it once.
var (
	fixtureOnce   sync.Once
	fixtureDB     *deepsketch.DB
	fixtureSketch *deepsketch.Sketch
	fixtureErr    error
)

func fixture(t *testing.T) (*deepsketch.DB, *deepsketch.Sketch) {
	t.Helper()
	fixtureOnce.Do(func() {
		fixtureDB = deepsketch.NewIMDb(deepsketch.IMDbConfig{
			Seed: 11, Titles: 1200, Keywords: 60, Companies: 30, Persons: 200,
		})
		fixtureSketch, fixtureErr = deepsketch.Build(fixtureDB, deepsketch.Config{
			Name: "api-test", SampleSize: 64, TrainQueries: 500, MaxJoins: 2, MaxPreds: 2, Seed: 4,
			Model: deepsketch.ModelConfig{HiddenUnits: 24, Epochs: 8, BatchSize: 32, Seed: 4},
		}, nil)
	})
	if fixtureErr != nil {
		t.Fatal(fixtureErr)
	}
	return fixtureDB, fixtureSketch
}

func TestPublicAPIQuickstartFlow(t *testing.T) {
	d, s := fixture(t)

	est, err := s.EstimateSQL(context.Background(), "SELECT COUNT(*) FROM title t, movie_keyword mk WHERE mk.movie_id=t.id AND t.production_year>2000")
	if err != nil {
		t.Fatal(err)
	}
	if est.Source != "api-test" {
		t.Errorf("estimate source = %q, want the sketch name", est.Source)
	}
	q, err := deepsketch.ParseSQL(d, "SELECT COUNT(*) FROM title t, movie_keyword mk WHERE mk.movie_id=t.id AND t.production_year>2000")
	if err != nil {
		t.Fatal(err)
	}
	truth, err := deepsketch.TrueCardinality(d, q)
	if err != nil {
		t.Fatal(err)
	}
	if truth <= 0 {
		t.Fatal("expected non-empty result")
	}
	if qe := deepsketch.QError(est.Cardinality, float64(truth)); qe > 50 {
		t.Errorf("quickstart estimate off by %v (est %v, truth %d)", qe, est.Cardinality, truth)
	}
}

func TestPublicAPISaveLoadFile(t *testing.T) {
	_, s := fixture(t)
	ctx := context.Background()
	path := filepath.Join(t.TempDir(), "sketch.dsk")
	if err := deepsketch.SaveFile(s, path); err != nil {
		t.Fatal(err)
	}
	loaded, err := deepsketch.LoadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	a, _ := s.EstimateSQL(ctx, "SELECT COUNT(*) FROM title t WHERE t.kind_id=1")
	b, _ := loaded.EstimateSQL(ctx, "SELECT COUNT(*) FROM title t WHERE t.kind_id=1")
	if a.Cardinality != b.Cardinality {
		t.Errorf("estimates differ after file round trip: %v vs %v", a.Cardinality, b.Cardinality)
	}
	fi, _ := os.Stat(path)
	fb, err := s.Footprint()
	if err != nil {
		t.Fatal(err)
	}
	if fb.Total != fi.Size() {
		t.Errorf("footprint %d != file size %d", fb.Total, fi.Size())
	}
}

func TestPublicAPICompare(t *testing.T) {
	d, s := fixture(t)
	qs, err := deepsketch.GenerateWorkload(d, deepsketch.GenConfig{Seed: 101, Count: 40, MaxJoins: 2, MaxPreds: 2})
	if err != nil {
		t.Fatal(err)
	}
	labeled, err := deepsketch.LabelWorkload(d, qs)
	if err != nil {
		t.Fatal(err)
	}
	hyper, err := deepsketch.HyperEstimator(d, 64, 1)
	if err != nil {
		t.Fatal(err)
	}
	rows, err := deepsketch.Compare(context.Background(), labeled, []deepsketch.Estimator{
		s,
		hyper,
		deepsketch.PostgresEstimator(d),
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("rows = %d", len(rows))
	}
	report := deepsketch.FormatReport(rows)
	for _, name := range []string{"api-test", "HyPer", "PostgreSQL", "median"} {
		if !strings.Contains(report, name) {
			t.Errorf("report missing %q:\n%s", name, report)
		}
	}
}

// TestPublicAPIServeStack drives the daemon's serving stack shape —
// fallback(clamp(sketch), postgres) behind a cache — against a real sketch
// from concurrent clients and checks it returns the bare sketch's estimates
// bit for bit.
func TestPublicAPIServeStack(t *testing.T) {
	d, s := fixture(t)
	ctx := context.Background()

	serving := deepsketch.WithCache(
		deepsketch.Fallback(
			deepsketch.Clamp(s, deepsketch.MaxCardinality(d)),
			deepsketch.PostgresEstimator(d)),
		128)

	qs, err := deepsketch.GenerateWorkload(d, deepsketch.GenConfig{Seed: 303, Count: 24, MaxJoins: 2, MaxPreds: 2})
	if err != nil {
		t.Fatal(err)
	}

	// Concurrent clients through the stack: results must match the
	// sequential bare-sketch path.
	var wg sync.WaitGroup
	got := make([]deepsketch.Estimate, len(qs))
	errs := make([]error, len(qs))
	for i := range qs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			got[i], errs[i] = serving.Estimate(ctx, qs[i])
		}(i)
	}
	wg.Wait()
	for i, q := range qs {
		if errs[i] != nil {
			t.Fatalf("query %d: %v", i, errs[i])
		}
		want, err := s.Cardinality(q)
		if err != nil {
			t.Fatal(err)
		}
		if want < 1 {
			want = 1 // the stack clamps
		}
		if got[i].Cardinality != want {
			t.Errorf("query %d: served %v, sequential %v", i, got[i].Cardinality, want)
		}
	}

	// The fixture sketch covers every table, so nothing should have fallen
	// through to PostgreSQL.
	for i := range got {
		if got[i].Source != "api-test" {
			t.Errorf("query %d answered by %q, want api-test", i, got[i].Source)
		}
	}

	// Cache: repeating a query must hit.
	again, err := serving.Estimate(ctx, qs[0])
	if err != nil {
		t.Fatal(err)
	}
	if !again.CacheHit {
		t.Error("repeated query should be a cache hit")
	}

	// A query outside any sketch's coverage cannot exist here (full cover),
	// but an invalid one still errors cleanly through the whole stack.
	bad := deepsketch.Query{Tables: []deepsketch.TableRef{{Table: "nope", Alias: "n"}}}
	if _, err := serving.Estimate(ctx, bad); err == nil {
		t.Error("invalid query should error through the stack")
	}
}

// TestPublicAPIFallbackToPostgres: a router with a partial sketch falls
// through to PostgreSQL for uncovered queries instead of erroring.
func TestPublicAPIFallbackToPostgres(t *testing.T) {
	d, _ := fixture(t)
	sub, err := deepsketch.Build(d, deepsketch.Config{
		Name: "titles-only", Tables: []string{"title"}, SampleSize: 32,
		TrainQueries: 60, MaxJoins: 1, MaxPreds: 1, Seed: 9,
		Model: deepsketch.ModelConfig{HiddenUnits: 8, Epochs: 1, BatchSize: 16, Seed: 9},
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	reg := deepsketch.NewSketchRegistry()
	if _, err := reg.Publish("titles-only", sub); err != nil {
		t.Fatal(err)
	}
	r := reg.Router()
	chain := deepsketch.Fallback(r, deepsketch.PostgresEstimator(d))
	ctx := context.Background()

	covered, err := deepsketch.ParseSQL(d, "SELECT COUNT(*) FROM title t WHERE t.kind_id=1")
	if err != nil {
		t.Fatal(err)
	}
	est, err := chain.Estimate(ctx, covered)
	if err != nil {
		t.Fatal(err)
	}
	if est.Source != "titles-only" {
		t.Errorf("covered query answered by %q, want titles-only", est.Source)
	}

	uncovered, err := deepsketch.ParseSQL(d, "SELECT COUNT(*) FROM cast_info ci WHERE ci.role_id=1")
	if err != nil {
		t.Fatal(err)
	}
	est, err = chain.Estimate(ctx, uncovered)
	if err != nil {
		t.Fatalf("uncovered query must fall through, got error: %v", err)
	}
	if est.Source != "PostgreSQL" {
		t.Errorf("uncovered query answered by %q, want PostgreSQL", est.Source)
	}
}

func TestPublicAPIJOBLight(t *testing.T) {
	d, _ := fixture(t)
	qs, err := deepsketch.JOBLight(d, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(qs) != 70 {
		t.Errorf("JOB-light = %d queries", len(qs))
	}
}

func TestPublicAPITemplate(t *testing.T) {
	d, s := fixture(t)
	tpl, err := workload.YearTemplate(d, "love")
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.EstimateTemplate(context.Background(), tpl, deepsketch.GroupDistinct, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(res) < 5 {
		t.Errorf("instances = %d", len(res))
	}
	// Template SQL round trip through ParseTemplateSQL.
	tpl2, err := deepsketch.ParseTemplateSQL(d,
		"SELECT COUNT(*) FROM title t WHERE t.production_year=?")
	if err != nil {
		t.Fatal(err)
	}
	if tpl2.Col != "production_year" {
		t.Errorf("template col = %s", tpl2.Col)
	}
}

func TestPublicAPISketchRoundTripBuffer(t *testing.T) {
	_, s := fixture(t)
	var buf bytes.Buffer
	if err := s.Save(&buf); err != nil {
		t.Fatal(err)
	}
	if _, err := deepsketch.Load(&buf); err != nil {
		t.Fatal(err)
	}
}

func TestPublicAPIParseErrors(t *testing.T) {
	d, _ := fixture(t)
	if _, err := deepsketch.ParseSQL(d, "SELECT COUNT(*) FROM title t WHERE t.production_year=?"); err == nil {
		t.Error("ParseSQL should reject placeholders")
	}
	if _, err := deepsketch.ParseTemplateSQL(d, "SELECT COUNT(*) FROM title t"); err == nil {
		t.Error("ParseTemplateSQL should require a placeholder")
	}
}
