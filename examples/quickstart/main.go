// Quickstart: build a Deep Sketch over the synthetic IMDb dataset, estimate
// SQL queries through the unified Estimator interface, stand up a serving
// stack (cache + clamp + PostgreSQL fallback), round-trip the
// sketch through its serialized form, and refresh it in place — warm-start
// fine-tune on a drift-delta workload, then atomically swap the new version
// into the live registry.
//
//	go run ./examples/quickstart
package main

import (
	"bytes"
	"context"
	"fmt"
	"log"

	"deepsketch"
)

func main() {
	ctx := context.Background()

	// 1. Generate the dataset (deterministic in the seed). Real deployments
	// would point the builder at their own tables instead.
	fmt.Println("generating synthetic IMDb...")
	d := deepsketch.NewIMDb(deepsketch.IMDbConfig{Seed: 1, Titles: 5000})
	fmt.Printf("  %d tables, %d total rows\n\n", len(d.TableNames()), d.TotalRows())

	// 2. Build the sketch: generate + execute training queries, train MSCN.
	// Small settings so the example runs in seconds; see cmd/experiments for
	// paper-scale runs.
	fmt.Println("building sketch (2000 training queries, 15 epochs)...")
	cfg := deepsketch.Config{
		Name:         "quickstart",
		SampleSize:   256,
		TrainQueries: 2000,
		Seed:         42,
		Model: deepsketch.ModelConfig{
			HiddenUnits: 32,
			Epochs:      15,
			Seed:        42,
		},
	}
	sketch, err := deepsketch.Build(d, cfg, nil)
	if err != nil {
		log.Fatal(err)
	}
	last := sketch.Epochs[len(sketch.Epochs)-1]
	fmt.Printf("  trained: validation mean q-error %.2f, median %.2f\n\n", last.ValMeanQ, last.ValMedQ)

	// 3. Ask the sketch for estimates. A sketch implements the Estimator
	// interface — context-aware, with an Estimate result carrying the
	// cardinality, the answering backend and the latency — and needs no
	// database access: it evaluates predicates on its embedded samples and
	// runs one MSCN forward pass.
	queries := []string{
		"SELECT COUNT(*) FROM title t WHERE t.production_year>2010",
		"SELECT COUNT(*) FROM title t, movie_keyword mk WHERE mk.movie_id=t.id AND t.production_year>2000",
		"SELECT COUNT(*) FROM title t, cast_info ci WHERE ci.movie_id=t.id AND ci.role_id=1 AND t.kind_id=1",
		"SELECT COUNT(*) FROM title t, movie_keyword mk, keyword k WHERE mk.movie_id=t.id AND mk.keyword_id=k.id AND k.keyword='love'",
	}
	fmt.Printf("%-11s %12s %8s %10s  query\n", "estimate", "true", "q-error", "latency")
	for _, sql := range queries {
		est, err := sketch.EstimateSQL(ctx, sql)
		if err != nil {
			log.Fatal(err)
		}
		q, err := deepsketch.ParseSQL(d, sql)
		if err != nil {
			log.Fatal(err)
		}
		truth, err := deepsketch.TrueCardinality(d, q)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-11.1f %12d %8.2f %10v  %s\n",
			est.Cardinality, truth, deepsketch.QError(est.Cardinality, float64(truth)), est.Latency, sql)
	}

	// 4. Production-shaped serving: stack the middleware onto the sketch,
	// the shape deepsketchd serves. Clamp bounds estimates into [1, |DB|],
	// the PostgreSQL fallback answers anything the sketch cannot, and the
	// LRU cache shortcuts repeats. Each estimate runs on the caller's
	// goroutine; a caller with many queries batches them via EstimateBatch.
	serving := deepsketch.WithCache(
		deepsketch.Fallback(
			deepsketch.Clamp(sketch, deepsketch.MaxCardinality(d)),
			deepsketch.PostgresEstimator(d)),
		1024)
	q, err := deepsketch.ParseSQL(d, queries[0])
	if err != nil {
		log.Fatal(err)
	}
	first, err := serving.Estimate(ctx, q)
	if err != nil {
		log.Fatal(err)
	}
	again, err := serving.Estimate(ctx, q)
	if err != nil {
		log.Fatal(err)
	}
	hits, misses := serving.Stats()
	fmt.Printf("\nserving stack: first %.1f (%v, source %s), repeat %.1f (cache hit: %v, %v); %d hits / %d misses\n",
		first.Cardinality, first.Latency, first.Source,
		again.Cardinality, again.CacheHit, again.Latency, hits, misses)

	// 5. Serialize: a sketch is a self-contained few-hundred-KiB artifact.
	var buf bytes.Buffer
	if err := sketch.Save(&buf); err != nil {
		log.Fatal(err)
	}
	loaded, err := deepsketch.Load(&buf)
	if err != nil {
		log.Fatal(err)
	}
	est, err := loaded.EstimateSQL(ctx, queries[0])
	if err != nil {
		log.Fatal(err)
	}
	fb, err := sketch.Footprint()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nserialized sketch: %.2f MiB (weights %.2f MiB, samples %.2f MiB)\n",
		float64(fb.Total)/(1<<20), float64(fb.Weights)/(1<<20), float64(fb.Samples)/(1<<20))
	fmt.Printf("loaded sketch reproduces estimate: %.1f\n", est.Cardinality)

	// 6. Refreshing a live sketch. A long-lived deployment serves sketches
	// from a versioned registry; when the data drifts, Refresh fine-tunes
	// the live model on a freshly labeled delta workload — resuming the
	// Adam optimizer state persisted in the sketch file, so a couple of
	// epochs suffice where a rebuild needs a full run — and swaps the new
	// version in atomically. Traffic never stops: in-flight requests finish
	// on the old version, later ones see the new one, and a cache keyed by
	// the router's version-aware CacheKey never serves the old version's
	// answer after the swap.
	reg := deepsketch.NewSketchRegistry()
	if _, err := reg.Publish("quickstart", sketch); err != nil {
		log.Fatal(err)
	}
	live := deepsketch.WithCache(
		deepsketch.Clamp(reg.Router(), deepsketch.MaxCardinality(d)),
		1024).KeyFunc(reg.Router().CacheKey)
	if _, err := live.Estimate(ctx, q); err != nil {
		log.Fatal(err)
	}

	deltaQs, err := deepsketch.GenerateWorkload(d, deepsketch.GenConfig{Seed: 7, Count: 500, Dedup: true})
	if err != nil {
		log.Fatal(err)
	}
	delta, err := deepsketch.LabelWorkload(d, deltaQs, 0)
	if err != nil {
		log.Fatal(err)
	}
	ver, refreshed, err := reg.Refresh(ctx, deepsketch.RegistryRefreshOptions{
		Name: "quickstart", Workload: delta,
		Epochs: 3, StopAtValQ: last.ValMeanQ, // stop as soon as it is as good as the old sketch
	})
	if err != nil {
		log.Fatal(err)
	}
	tuned := refreshed.Epochs[len(refreshed.Epochs)-1]
	postSwap, err := live.Estimate(ctx, q)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nrefreshed to version %d on %d delta queries (%d fine-tune epochs, val mean-q %.2f)\n",
		ver, len(delta), len(refreshed.Epochs)-len(sketch.Epochs), tuned.ValMeanQ)
	fmt.Printf("post-swap estimate (new version, old cache line unreachable): %.1f (cache hit: %v)\n",
		postSwap.Cardinality, postSwap.CacheHit)
}
