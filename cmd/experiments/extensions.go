package main

import (
	"fmt"

	"deepsketch/internal/core"
	"deepsketch/internal/db"
	"deepsketch/internal/featurize"
	"deepsketch/internal/metrics"
	"deepsketch/internal/mscn"
	"deepsketch/internal/nn"
	"deepsketch/internal/optimizer"
	"deepsketch/internal/sample"
)

// runSampleSize sweeps the number of materialized sample tuples per table —
// the "e.g., 1000 tuples per base table" knob of §2 and a creation-time
// parameter of step 1. The bitmap width is the model's main input, so this
// extends the bitmap ablation (E8) into a full curve: 0 (static features
// only) up to the paper's 1000.
func runSampleSize(c *ctx) error {
	td, err := c.trainingData()
	if err != nil {
		return err
	}
	labeled, err := c.jobLightLabeled()
	if err != nil {
		return err
	}
	epochs := c.sc.epochs * 3 / 5
	if epochs < 2 {
		epochs = 2
	}
	sizes := []int{0, c.sc.samples / 16, c.sc.samples / 4, c.sc.samples}
	fmt.Printf("\nJOB-light q-error vs sample size (bitmap width; %d epochs each):\n", epochs)
	fmt.Printf("  %8s %10s %10s %10s %10s\n", "samples", "median", "mean", "95th", "max")
	for _, size := range sizes {
		if size < 0 {
			size = 0
		}
		// Re-sample, re-encode, re-train; queries and labels are reused.
		var samples *sample.Set
		if size > 0 {
			samples, err = sample.New(c.db(), td.Cfg.Tables, size, c.seed)
			if err != nil {
				return err
			}
		}
		enc, err := featurize.NewEncoder(c.db(), td.Cfg.Tables, size)
		if err != nil {
			return err
		}
		cards := make([]int64, len(td.Labeled))
		for i, lq := range td.Labeled {
			cards[i] = lq.Card
		}
		enc.FitLabels(cards)
		examples := make([]mscn.Example, len(td.Labeled))
		for i, lq := range td.Labeled {
			var bms map[string]sample.Bitmap
			if samples != nil {
				bms, err = samples.Bitmaps(lq.Query)
				if err != nil {
					return err
				}
			}
			e, err := enc.EncodeQuery(lq.Query, bms)
			if err != nil {
				return err
			}
			examples[i] = mscn.Example{Enc: e, Card: lq.Card}
		}
		mcfg := td.Cfg.Model
		mcfg.Epochs = epochs
		if mcfg.Seed == 0 {
			mcfg.Seed = c.seed
		}
		model := mscn.New(mcfg, enc.TableDim(), enc.JoinDim(), enc.PredDim())
		if _, err := model.Train(examples, enc.Norm, nil); err != nil {
			return err
		}
		qs := make([]float64, 0, len(labeled))
		for _, lq := range labeled {
			var bms map[string]sample.Bitmap
			if samples != nil {
				bms, err = samples.Bitmaps(lq.Query)
				if err != nil {
					return err
				}
			}
			e, err := enc.EncodeQuery(lq.Query, bms)
			if err != nil {
				return err
			}
			y, err := model.Predict(e)
			if err != nil {
				return err
			}
			qs = append(qs, metrics.QError(enc.Norm.Denormalize(y), float64(lq.Card)))
		}
		sum := metrics.Summarize(qs)
		fmt.Printf("  %8d %10s %10s %10s %10s\n", size,
			metrics.Sig3(sum.Median), metrics.Sig3(sum.Mean), metrics.Sig3(sum.P95), metrics.Sig3(sum.Max))
	}
	fmt.Println("\nshape check: errors fall monotonically-ish as samples grow, with diminishing returns.")
	return nil
}

// runOptimizer demonstrates the paper's motivating use case end to end:
// feed each estimator's cardinalities into the same DP join enumerator
// (C_out cost model) and compare the true cost of the chosen plans against
// the optimal plan — the methodology of the JOB papers the demo cites.
// This goes beyond the demo's own evaluation (which shows estimates only):
// it is an extension, not a reproduction.
func runOptimizer(c *ctx) error {
	s, err := c.mainSketch()
	if err != nil {
		return err
	}
	labeled, err := c.jobLightLabeled()
	if err != nil {
		return err
	}
	hyper, pg, err := c.baselines()
	if err != nil {
		return err
	}
	truth := func(q db.Query) (float64, error) {
		card, err := c.db().Count(q)
		return float64(card), err
	}
	systems := []struct {
		name string
		est  optimizer.CardinalityEstimator
	}{
		{"Deep Sketch", s.Cardinality},
		{"HyPer", hyper.Cardinality},
		{"PostgreSQL", pg.Cardinality},
	}
	names := make([]string, len(systems))
	ratios := make([][]float64, len(systems))
	var optimalAll int
	for i, sys := range systems {
		names[i] = sys.name
		for _, lq := range labeled {
			if len(lq.Query.Tables) < 2 {
				continue
			}
			ratio, _, _, err := optimizer.PlanQuality(lq.Query, sys.est, truth)
			if err != nil {
				return fmt.Errorf("%s on %s: %w", sys.name, lq.Query.SQL(nil), err)
			}
			ratios[i] = append(ratios[i], ratio)
			if i == 0 && ratio <= 1+1e-9 {
				optimalAll++
			}
		}
	}
	fmt.Printf("\nplan quality on JOB-light (true C_out cost of chosen plan / optimal plan):\n\n")
	fmt.Print(optimizer.FormatComparison(names, ratios))
	fmt.Printf("\nDeep Sketch found the optimal join order for %d/%d queries\n", optimalAll, len(ratios[0]))
	fmt.Println("shape check: better estimates -> plans closer to optimal; the sketch should lead mean and tail.")
	return nil
}

// runLossAblation compares the paper's mean q-error objective against L1 in
// log space on identical data — a design-choice ablation for the loss
// function.
func runLossAblation(c *ctx) error {
	td, err := c.trainingData()
	if err != nil {
		return err
	}
	labeled, err := c.jobLightLabeled()
	if err != nil {
		return err
	}
	fmt.Println("\nJOB-light q-errors by training objective (identical data and budget):")
	rows := []metrics.Row{}
	for _, loss := range []struct {
		name string
		kind nn.LossKind
	}{
		{"mean q-error (paper)", nn.LossQError},
		{"L1 in log space", nn.LossL1Log},
	} {
		cfg := td.Cfg
		cfg.Model.Epochs = c.sc.epochs
		cfg.Model.Loss = loss.kind
		td2 := *td
		td2.Cfg = cfg
		sk, err := core.BuildFromData(&td2, nil)
		if err != nil {
			return err
		}
		qs, err := qerrsOf(labeled, sk.Cardinality)
		if err != nil {
			return err
		}
		rows = append(rows, metrics.Row{Name: loss.name, Summary: metrics.Summarize(qs)})
	}
	fmt.Print(metrics.FormatTable(rows))
	fmt.Println("\nshape check: both objectives train; the q-error loss targets the evaluation metric directly.")
	return nil
}
