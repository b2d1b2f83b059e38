package main

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
)

// contract is BENCHMARK.json.
type contract struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

func readContract(path string) (*contract, error) {
	blob, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var c contract
	if err := json.Unmarshal(blob, &c); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &c, nil
}

// worseBy is how much worse b is than a, as a share of a, for a metric
// whose better direction is given; negative when b is better.
func worseBy(a, b float64, better string) float64 {
	if better == "higher" {
		return (a - b) / a
	}
	return (b - a) / a
}

// runAA runs every workload twice on the same build and seed and holds the
// second run against the first with the bounds of BENCHMARK.json: what a
// later change will be held to, applied to no change at all.
func runAA(ctx context.Context, e *env, specs []workloadSpec, seed int64, seconds int) error {
	c, err := readContract("BENCHMARK.json")
	if err != nil {
		return err
	}
	type row struct {
		workload, metric string
		a, b, worse      float64
		bound            float64
	}
	var rows []row
	breaches, failed := 0, false
	for _, w := range specs {
		var runs [2]*runResult
		for i := range runs {
			fmt.Fprintf(e.out, "== A/A run %d of 2\n", i+1)
			if runs[i], err = runWorkload(ctx, e, w, seed, seconds); err != nil {
				return err
			}
			failed = failed || !runs[i].Correct
		}
		for _, m := range c.EndToEnd {
			a, b := runs[0].values[m.Name], runs[1].values[m.Name]
			r := row{w.name, m.Name, a, b, worseBy(a, b, m.Better), m.Bound}
			if r.worse > r.bound {
				breaches++
			}
			rows = append(rows, r)
		}
	}
	fmt.Fprintf(e.out, "\n%-14s %-16s %14s %14s %9s %7s\n", "workload", "metric", "first", "second", "worse by", "bound")
	for _, r := range rows {
		mark := ""
		if r.worse > r.bound {
			mark = "  BREACH"
		}
		fmt.Fprintf(e.out, "%-14s %-16s %14.6g %14.6g %+8.2f%% %6.0f%%%s\n", r.workload, r.metric, r.a, r.b, 100*r.worse, 100*r.bound, mark)
	}
	switch {
	case failed:
		return errFailedOperations
	case breaches > 0:
		return fmt.Errorf("%d metrics moved by more than their bound between two runs of the same code", breaches)
	}
	return nil
}
