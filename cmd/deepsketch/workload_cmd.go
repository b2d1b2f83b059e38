package main

import (
	"flag"
	"fmt"
	"os"

	"deepsketch"
	"deepsketch/internal/workload"
)

// cmdWorkload generates a labeled training workload and writes it in the
// original learnedcardinalities artifact format (tables#joins#predicates#
// cardinality), decoupling the expensive execution step from training runs:
//
//	deepsketch workload -db imdb -count 10000 -out train.csv
//	deepsketch build -db imdb -fromworkload train.csv -out imdb.dsk
func cmdWorkload(args []string) error {
	fs := flag.NewFlagSet("workload", flag.ExitOnError)
	dbf := addDBFlags(fs)
	out := fs.String("out", "workload.csv", "output file")
	count := fs.Int("count", 10000, "number of queries")
	maxJoins := fs.Int("maxjoins", 4, "max joins per query")
	maxPreds := fs.Int("maxpreds", 3, "max predicates per query")
	seed := fs.Int64("seed", 1, "generation seed")
	kind := fs.String("kind", "uniform", "workload kind: uniform or joblight")
	if err := fs.Parse(args); err != nil {
		return err
	}
	d, err := dbf.make()
	if err != nil {
		return err
	}
	var qs []deepsketch.Query
	switch *kind {
	case "uniform":
		qs, err = deepsketch.GenerateWorkload(d, deepsketch.GenConfig{
			Seed: *seed, Count: *count, MaxJoins: *maxJoins, MaxPreds: *maxPreds, Dedup: true,
		})
	case "joblight":
		qs, err = deepsketch.JOBLight(d, *seed)
	default:
		err = fmt.Errorf("unknown workload kind %q", *kind)
	}
	if err != nil {
		return err
	}
	fmt.Printf("executing %d queries for true cardinalities...\n", len(qs))
	labeled, err := deepsketch.LabelWorkload(d, qs)
	if err != nil {
		return err
	}
	f, err := os.Create(*out)
	if err != nil {
		return err
	}
	if err := workload.WriteCSV(f, labeled); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	fmt.Printf("wrote %d labeled queries to %s\n", len(labeled), *out)
	return nil
}
