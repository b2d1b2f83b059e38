package drift

import (
	"context"
	"math"
	"os"
	"path/filepath"
	"testing"

	"deepsketch/internal/datagen"
	"deepsketch/internal/db"
	"deepsketch/internal/workload"
)

// cardFunc adapts a per-query function into a CardinalityEstimator.
type cardFunc func(db.Query) (float64, error)

func (f cardFunc) BatchCardinalities(_ context.Context, qs []db.Query) ([]float64, error) {
	out := make([]float64, len(qs))
	for i, q := range qs {
		c, err := f(q)
		if err != nil {
			return nil, err
		}
		out[i] = c
	}
	return out, nil
}

// pinnedFixture is a small labeled set with known cardinalities.
func pinnedFixture(n int) []workload.LabeledQuery {
	out := make([]workload.LabeledQuery, n)
	for i := range out {
		out[i] = workload.LabeledQuery{Query: probeQuery(1900 + i), Card: int64(100 + i)}
	}
	return out
}

// exactCard answers every pinned query with its true label scaled by k.
func exactCard(labeled []workload.LabeledQuery, k float64) cardFunc {
	bySig := make(map[string]float64, len(labeled))
	for _, lq := range labeled {
		bySig[lq.Query.Signature()] = float64(lq.Card)
	}
	return func(q db.Query) (float64, error) { return bySig[q.Signature()] * k, nil }
}

func TestPinnedJudgeVerdicts(t *testing.T) {
	labeled := pinnedFixture(20)
	pb := NewPinnedBenchmark(labeled)
	if pb.Len() != 20 {
		t.Fatalf("Len = %d, want 20", pb.Len())
	}
	ctx := context.Background()
	live := exactCard(labeled, 1) // q-error 1 everywhere

	cases := []struct {
		name       string
		candScale  float64
		maxRegress float64
		wantPass   bool
	}{
		{"identical candidate passes", 1, 1.5, true},
		{"mild regression within tolerance", 1.4, 1.5, true},
		{"regression beyond tolerance rejected", 10, 1.5, false},
		{"strict tolerance rejects mild regression", 1.4, 1.05, false},
		{"zero tolerance uses the default", 1.4, 0, true},
		{"improvement always passes", 1, 1.01, true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			res, err := pb.Judge(ctx, live, exactCard(labeled, tc.candScale), tc.maxRegress)
			if err != nil {
				t.Fatal(err)
			}
			if res.Pass != tc.wantPass {
				t.Errorf("Pass = %v, want %v (candidate median %.3g vs live %.3g, tolerance %g)",
					res.Pass, tc.wantPass, res.Candidate.Median, res.Live.Median, res.MaxRegress)
			}
			if res.Size != 20 {
				t.Errorf("Size = %d, want 20", res.Size)
			}
			if tc.maxRegress == 0 && res.MaxRegress != DefaultPinnedMaxRegress {
				t.Errorf("MaxRegress = %g, want default %g", res.MaxRegress, DefaultPinnedMaxRegress)
			}
		})
	}
}

// A p95 collapse must fail the rail even when the median holds: an
// adaptive adversary concentrating damage on a small query region moves
// the tail first.
func TestPinnedJudgeP95Collapse(t *testing.T) {
	labeled := pinnedFixture(40)
	pb := NewPinnedBenchmark(labeled)
	live := exactCard(labeled, 1)
	truth := exactCard(labeled, 1)
	// Candidate exact on 36/40 queries, 100× off on 4 (10% — past p95).
	bad := map[string]bool{}
	for _, lq := range labeled[:4] {
		bad[lq.Query.Signature()] = true
	}
	cand := cardFunc(func(q db.Query) (float64, error) {
		c, _ := truth(q)
		if bad[q.Signature()] {
			return c * 100, nil
		}
		return c, nil
	})
	res, err := pb.Judge(context.Background(), live, cand, 1.5)
	if err != nil {
		t.Fatal(err)
	}
	if res.Pass {
		t.Fatalf("tail collapse passed the rail: candidate median %.3g p95 %.3g vs live p95 %.3g",
			res.Candidate.Median, res.Candidate.P95, res.Live.P95)
	}
	if res.Candidate.Median > res.Live.Median*1.5 {
		t.Fatalf("fixture broken: median %.3g should be within tolerance, only the p95 should trip", res.Candidate.Median)
	}
}

// A candidate that emits NaN on a pinned query must count maximally
// against itself, not vanish from the distribution.
func TestPinnedEvaluateNonFiniteCandidate(t *testing.T) {
	labeled := pinnedFixture(10)
	pb := NewPinnedBenchmark(labeled)
	cand := cardFunc(func(db.Query) (float64, error) { return math.NaN(), nil })
	sum, err := pb.Evaluate(context.Background(), cand)
	if err != nil {
		t.Fatal(err)
	}
	if sum.Median != math.MaxFloat64 {
		t.Errorf("NaN candidate median = %g, want MaxFloat64", sum.Median)
	}
	res, err := pb.Judge(context.Background(), exactCard(labeled, 1), cand, 1.5)
	if err != nil {
		t.Fatal(err)
	}
	if res.Pass {
		t.Error("NaN-emitting candidate passed the rail")
	}
}

func TestPinnedBenchmarkFileRoundTrip(t *testing.T) {
	d := datagen.IMDb(datagen.IMDbConfig{Seed: 3, Titles: 200})
	labeled := pinnedFixture(15)
	dir := t.TempDir()
	path := filepath.Join(dir, "imdb.workload")

	if err := WritePinnedBenchmarkFile(path, labeled); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(path + ".tmp"); !os.IsNotExist(err) {
		t.Errorf("temp file left behind after atomic write: %v", err)
	}
	pb, err := LoadPinnedBenchmarkFile(d, path)
	if err != nil {
		t.Fatal(err)
	}
	got := pb.Queries()
	if len(got) != len(labeled) {
		t.Fatalf("loaded %d queries, want %d", len(got), len(labeled))
	}
	for i := range got {
		if got[i].Query.Signature() != labeled[i].Query.Signature() || got[i].Card != labeled[i].Card {
			t.Errorf("query %d: (%s, %d) != (%s, %d)", i,
				got[i].Query.Signature(), got[i].Card, labeled[i].Query.Signature(), labeled[i].Card)
		}
	}

	// Overwrite is atomic too: the second benchmark fully replaces the first.
	if err := WritePinnedBenchmarkFile(path, labeled[:5]); err != nil {
		t.Fatal(err)
	}
	pb2, err := LoadPinnedBenchmarkFile(d, path)
	if err != nil {
		t.Fatal(err)
	}
	if pb2.Len() != 5 {
		t.Fatalf("after overwrite: %d queries, want 5", pb2.Len())
	}

	// An empty benchmark is a load error, not a silent no-op rail.
	empty := filepath.Join(dir, "empty.workload")
	if err := os.WriteFile(empty, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadPinnedBenchmarkFile(d, empty); err == nil {
		t.Error("loading an empty pinned benchmark succeeded, want error")
	}
}
