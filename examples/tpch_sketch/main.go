// TPC-H sketch: the demo's second dataset. Builds a Deep Sketch over the
// synthetic TPC-H-like schema and compares it against the traditional
// estimators on a held-out uniform workload and on hand-written queries
// with correlated date predicates (shipdate is generated to follow
// orderdate, which independence-based estimation cannot exploit).
//
//	go run ./examples/tpch_sketch
package main

import (
	"context"
	"fmt"
	"log"

	"deepsketch"
)

func main() {
	fmt.Println("generating synthetic TPC-H...")
	d := deepsketch.NewTPCH(deepsketch.TPCHConfig{Seed: 3, Orders: 6000})
	fmt.Printf("  %d tables, %d total rows\n\n", len(d.TableNames()), d.TotalRows())

	fmt.Println("building sketch...")
	sketch, err := deepsketch.Build(d, deepsketch.Config{
		Name:         "tpch",
		SampleSize:   256,
		TrainQueries: 3000,
		Seed:         11,
		Model:        deepsketch.ModelConfig{HiddenUnits: 32, Epochs: 15, Seed: 11},
	}, nil)
	if err != nil {
		log.Fatal(err)
	}

	// Hand-written queries, including the correlated orderdate/shipdate
	// combination.
	queries := []string{
		"SELECT COUNT(*) FROM lineitem l WHERE l.quantity>40",
		"SELECT COUNT(*) FROM orders o, lineitem l WHERE l.order_id=o.id AND o.orderdate<400 AND l.shipdate>1300",
		"SELECT COUNT(*) FROM orders o, lineitem l WHERE l.order_id=o.id AND o.orderdate>2000 AND l.shipdate>2100",
		"SELECT COUNT(*) FROM customer c, orders o WHERE o.cust_id=c.id AND c.mktsegment='AUTOMOBILE'",
		"SELECT COUNT(*) FROM part p, lineitem l WHERE l.part_id=p.id AND p.brand=1 AND l.discount>8",
	}
	hyper, err := deepsketch.HyperEstimator(d, 256, 11)
	if err != nil {
		log.Fatal(err)
	}
	pg := deepsketch.PostgresEstimator(d)
	ctx := context.Background()

	fmt.Printf("%-10s %-10s %-10s %-10s  query\n", "sketch", "hyper", "postgres", "true")
	for _, sql := range queries {
		q, err := deepsketch.ParseSQL(d, sql)
		if err != nil {
			log.Fatal(err)
		}
		est, err := sketch.Estimate(ctx, q)
		if err != nil {
			log.Fatal(err)
		}
		he, err := hyper.Estimate(ctx, q)
		if err != nil {
			log.Fatal(err)
		}
		pe, err := pg.Estimate(ctx, q)
		if err != nil {
			log.Fatal(err)
		}
		truth, err := deepsketch.TrueCardinality(d, q)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-10.1f %-10.1f %-10.1f %-10d  %s\n", est.Cardinality, he.Cardinality, pe.Cardinality, truth, sql)
	}

	// Held-out uniform workload comparison (Table-1-style report).
	fmt.Println("\nheld-out uniform workload (150 queries):")
	qs, err := deepsketch.GenerateWorkload(d, deepsketch.GenConfig{
		Seed: 99, Count: 150, MaxJoins: 3, MaxPreds: 3, Dedup: true,
	})
	if err != nil {
		log.Fatal(err)
	}
	labeled, err := deepsketch.LabelWorkload(d, qs)
	if err != nil {
		log.Fatal(err)
	}
	rows, err := deepsketch.Compare(ctx, labeled, []deepsketch.Estimator{
		sketch, hyper, pg,
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Print(deepsketch.FormatReport(rows))
}
