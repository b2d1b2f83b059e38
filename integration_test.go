package deepsketch_test

import (
	"bytes"
	"context"
	"math"
	"testing"

	"deepsketch"
)

// TestIntegrationTPCHPipeline runs the complete pipeline on the second
// (TPC-H) schema: generate data, build a sketch, evaluate against both
// baselines and the truth, exercise SQL and template paths, and round-trip
// serialization. This is the cross-module integration test; the IMDb
// equivalent lives in deepsketch_test.go.
func TestIntegrationTPCHPipeline(t *testing.T) {
	d := deepsketch.NewTPCH(deepsketch.TPCHConfig{Seed: 2, Orders: 1200})
	if got := len(d.TableNames()); got != 6 {
		t.Fatalf("tpch tables = %d", got)
	}

	sketch, err := deepsketch.Build(d, deepsketch.Config{
		Name: "tpch-int", SampleSize: 64, TrainQueries: 400, MaxJoins: 3, MaxPreds: 2, Seed: 6,
		Model: deepsketch.ModelConfig{HiddenUnits: 16, Epochs: 6, BatchSize: 64, Seed: 6},
	}, nil)
	if err != nil {
		t.Fatal(err)
	}

	// SQL estimation with a dictionary literal.
	est, err := sketch.EstimateSQL(context.Background(), "SELECT COUNT(*) FROM customer c, orders o WHERE o.cust_id=c.id AND c.mktsegment='BUILDING'")
	if err != nil {
		t.Fatal(err)
	}
	if est.Cardinality < 1 || math.IsNaN(est.Cardinality) {
		t.Fatalf("estimate = %v", est.Cardinality)
	}

	// Template over a numeric column with buckets.
	res, err := sketch.EstimateTemplateSQL(context.Background(),
		"SELECT COUNT(*) FROM orders o, lineitem l WHERE l.order_id=o.id AND l.shipdate=?",
		deepsketch.GroupBuckets, 6)
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 6 {
		t.Fatalf("template instances = %d", len(res))
	}

	// Comparison harness over a held-out workload.
	qs, err := deepsketch.GenerateWorkload(d, deepsketch.GenConfig{Seed: 31, Count: 30, MaxJoins: 2, MaxPreds: 2})
	if err != nil {
		t.Fatal(err)
	}
	labeled, err := deepsketch.LabelWorkload(d, qs)
	if err != nil {
		t.Fatal(err)
	}
	hyper, err := deepsketch.HyperEstimator(d, 64, 2)
	if err != nil {
		t.Fatal(err)
	}
	rows, err := deepsketch.Compare(context.Background(), labeled, []deepsketch.Estimator{
		sketch, hyper, deepsketch.PostgresEstimator(d),
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		if r.Summary.Count != len(labeled) || r.Summary.Median < 1 {
			t.Errorf("row %s malformed: %+v", r.Name, r.Summary)
		}
	}

	// Serialization round trip on the TPC-H schema.
	var buf bytes.Buffer
	if err := sketch.Save(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := deepsketch.Load(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	a, _ := sketch.Cardinality(labeled[0].Query)
	b, _ := loaded.Cardinality(labeled[0].Query)
	if a != b {
		t.Errorf("estimates differ after round trip: %v vs %v", a, b)
	}
}

// TestIntegrationCrossSchemaSketchRejectsForeignQueries: a sketch built on
// one schema must cleanly reject queries from another.
func TestIntegrationCrossSchemaSketchRejectsForeignQueries(t *testing.T) {
	imdb := deepsketch.NewIMDb(deepsketch.IMDbConfig{Seed: 4, Titles: 400, Keywords: 30, Companies: 15, Persons: 60})
	tpch := deepsketch.NewTPCH(deepsketch.TPCHConfig{Seed: 4, Orders: 300})
	s, err := deepsketch.Build(imdb, deepsketch.Config{
		SampleSize: 16, TrainQueries: 60, MaxJoins: 1, MaxPreds: 1, Seed: 1,
		Model: deepsketch.ModelConfig{HiddenUnits: 8, Epochs: 1, BatchSize: 16, Seed: 1},
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	q, err := deepsketch.ParseSQL(tpch, "SELECT COUNT(*) FROM lineitem l WHERE l.quantity>10")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Cardinality(q); err == nil {
		t.Error("imdb sketch should reject tpch query")
	}
	if _, err := s.EstimateSQL(context.Background(), "SELECT COUNT(*) FROM lineitem l WHERE l.quantity>10"); err == nil {
		t.Error("imdb sketch should fail to parse tpch SQL")
	}
}
