//go:build !race

// Under -race, sync.Pool drops a share of what is put back on purpose, so
// the engine's pooled scratch is reallocated there by design.

package core

import (
	"context"
	"runtime"
	"runtime/debug"
	"testing"

	"deepsketch/internal/datagen"
	"deepsketch/internal/mscn"
	"deepsketch/internal/workload"
)

// TestEstimateAllocatesNoFeatureRows: a single estimate featurizes straight
// into the engine's pooled packed batch, so in steady state it allocates
// less than one dense table row (TableDim float64s): bitmaps and the result
// envelope, never a feature row. The samples have 1000 rows, so a table row
// is about 8 KB.
func TestEstimateAllocatesNoFeatureRows(t *testing.T) {
	d := datagen.IMDb(datagen.IMDbConfig{Seed: 86, Titles: 1500, Keywords: 60, Companies: 30, Persons: 200})
	s, err := Build(d, Config{
		SampleSize: 1000, TrainQueries: 100, MaxJoins: 2, MaxPreds: 2, Seed: 3, Workers: 2,
		Model: mscn.Config{HiddenUnits: 8, Epochs: 1, BatchSize: 32, Seed: 3},
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	g, err := workload.NewGenerator(d, workload.GenConfig{Seed: 31, Count: 64, MaxJoins: 2, MaxPreds: 2})
	if err != nil {
		t.Fatal(err)
	}
	qs := g.Generate()
	ctx := context.Background()
	next := 0
	estimate := func() {
		if _, err := s.Estimate(ctx, qs[next%len(qs)]); err != nil {
			t.Fatal(err)
		}
		next++
	}

	// A collection empties sync.Pool, and with it the engine's scratch; keep
	// the collector off so warm-up grows one scratch that every measured
	// estimate reuses.
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	for range qs {
		estimate()
	}
	const runs = 256
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		estimate()
	}
	runtime.ReadMemStats(&after)
	perEstimate := float64(after.TotalAlloc-before.TotalAlloc) / runs
	row := float64(8 * s.Encoder.TableDim())
	t.Logf("%.0f B in %.1f allocations per estimate; a dense table row is %.0f B",
		perEstimate, testing.AllocsPerRun(runs, estimate), row)
	if perEstimate >= row {
		t.Fatalf("an estimate allocates %.0f B, at least one dense table row (%.0f B): it materialises feature rows", perEstimate, row)
	}
}
