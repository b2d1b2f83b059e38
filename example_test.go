package deepsketch_test

import (
	"bytes"
	"context"
	"fmt"

	"deepsketch"
)

// Example demonstrates the minimal end-to-end flow: generate a dataset,
// build a sketch, estimate a query. Outputs are structural (not raw
// estimates) so the example is stable across architectures.
func Example() {
	d := deepsketch.NewIMDb(deepsketch.IMDbConfig{Seed: 1, Titles: 600, Keywords: 40, Companies: 20, Persons: 100})
	sketch, err := deepsketch.Build(d, deepsketch.Config{
		SampleSize:   32,
		TrainQueries: 100,
		MaxJoins:     2,
		Seed:         1,
		Model:        deepsketch.ModelConfig{HiddenUnits: 8, Epochs: 2, Seed: 1},
	}, nil)
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	est, err := sketch.EstimateSQL(context.Background(), "SELECT COUNT(*) FROM title t WHERE t.production_year>2000")
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	fmt.Println("got an estimate:", est.Cardinality >= 1)
	// Output: got an estimate: true
}

// ExampleParseSQL shows the supported SQL dialect, including the demo's
// auto-generated join predicates and dictionary-encoded string literals.
func ExampleParseSQL() {
	d := deepsketch.NewIMDb(deepsketch.IMDbConfig{Seed: 1, Titles: 600, Keywords: 40, Companies: 20, Persons: 100})
	q, err := deepsketch.ParseSQL(d,
		"SELECT COUNT(*) FROM title t, movie_keyword mk, keyword k "+
			"WHERE mk.movie_id=t.id AND mk.keyword_id=k.id AND k.keyword='love' AND t.production_year>=1990")
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	fmt.Println("tables:", len(q.Tables))
	fmt.Println("joins:", len(q.Joins))
	fmt.Println("predicates:", len(q.Preds))
	// Output:
	// tables: 3
	// joins: 2
	// predicates: 2
}

// ExampleSketch_Save shows that sketches are self-contained artifacts:
// serialize, load, and estimate without the database.
func ExampleSketch_Save() {
	d := deepsketch.NewIMDb(deepsketch.IMDbConfig{Seed: 2, Titles: 500, Keywords: 30, Companies: 15, Persons: 80})
	sketch, err := deepsketch.Build(d, deepsketch.Config{
		SampleSize: 16, TrainQueries: 80, MaxJoins: 1, MaxPreds: 1, Seed: 2,
		Model: deepsketch.ModelConfig{HiddenUnits: 8, Epochs: 1, Seed: 2},
	}, nil)
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	var buf bytes.Buffer
	if err := sketch.Save(&buf); err != nil {
		fmt.Println("error:", err)
		return
	}
	loaded, err := deepsketch.Load(&buf)
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	a, _ := sketch.EstimateSQL(context.Background(), "SELECT COUNT(*) FROM title t WHERE t.kind_id=1")
	b, _ := loaded.EstimateSQL(context.Background(), "SELECT COUNT(*) FROM title t WHERE t.kind_id=1")
	fmt.Println("loaded sketch matches:", a.Cardinality == b.Cardinality)
	// Output: loaded sketch matches: true
}

// ExampleCompare runs the Table-1-style comparison harness.
func ExampleCompare() {
	d := deepsketch.NewIMDb(deepsketch.IMDbConfig{Seed: 3, Titles: 500, Keywords: 30, Companies: 15, Persons: 80})
	qs, _ := deepsketch.GenerateWorkload(d, deepsketch.GenConfig{Seed: 4, Count: 10, MaxJoins: 1, MaxPreds: 1})
	labeled, _ := deepsketch.LabelWorkload(d, qs)
	rows, err := deepsketch.Compare(context.Background(), labeled, []deepsketch.Estimator{deepsketch.PostgresEstimator(d)})
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	fmt.Println("systems compared:", len(rows))
	fmt.Println("queries evaluated:", rows[0].Summary.Count)
	// Output:
	// systems compared: 1
	// queries evaluated: 10
}
