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
		SampleSize: 1000, TrainQueries: 100, MaxJoins: 2, MaxPreds: 2, Seed: 3,
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

// TestTrainingDataHoldsNoFeatureRows: prepared training data keeps each
// labeled query as the query, and the trainer featurizes a minibatch only
// when it packs it. So the heap PrepareTrainingData retains grows by less
// than one dense table row (TableDim float64s, about 8 KB at 1000-row
// samples) per additional training query — the slope between two workload
// sizes, so fixed costs such as the samples cancel.
func TestTrainingDataHoldsNoFeatureRows(t *testing.T) {
	d := datagen.IMDb(datagen.IMDbConfig{Seed: 87, Titles: 1500, Keywords: 60, Companies: 30, Persons: 200})
	prepare := func(n int) *TrainingData {
		td, err := PrepareTrainingData(d, Config{
			SampleSize: 1000, TrainQueries: n, MaxJoins: 2, MaxPreds: 2, Seed: 4,
		}, nil)
		if err != nil {
			t.Fatal(err)
		}
		return td
	}
	// Two collections: the first moves sync.Pool contents to the victim
	// cache, the second frees them.
	heap := func() float64 {
		runtime.GC()
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return float64(ms.HeapAlloc)
	}
	const small, large = 150, 600
	// The database and every prepared set stay reachable until the end, so
	// no measurement is credited with freeing what an earlier one kept.
	var kept []*TrainingData
	// retained returns the training queries one more prepared set holds and
	// the heap it adds.
	retained := func(n int) (queries int, bytes float64) {
		before := heap()
		kept = append(kept, prepare(n))
		return len(kept[len(kept)-1].Labeled), heap() - before
	}
	// The database builds its value indexes on first use and keeps them; a
	// warm-up run pays for them before anything is measured.
	retained(large)
	n1, b1 := retained(small)
	n2, b2 := retained(large)
	row := float64(8 * kept[0].Encoder.TableDim())
	perQuery := (b2 - b1) / float64(n2-n1)
	t.Logf("%.0f B retained at %d queries, %.0f B at %d: %.0f B per query; a dense table row is %.0f B",
		b1, n1, b2, n2, perQuery, row)
	if perQuery >= row {
		t.Fatalf("training data retains %.0f B per query, at least one dense table row (%.0f B): it keeps feature rows", perQuery, row)
	}
	runtime.KeepAlive(d)
}
