package main

import (
	"context"
	"fmt"
	"time"

	"deepsketch/internal/core"
	"deepsketch/internal/datagen"
	"deepsketch/internal/db"
	"deepsketch/internal/estimator"
	"deepsketch/internal/featurize"
	"deepsketch/internal/metrics"
	"deepsketch/internal/mscn"
	"deepsketch/internal/trainmon"
	"deepsketch/internal/workload"
)

// runTable1 reproduces Table 1: estimation errors (q-errors) on the
// JOB-light workload for Deep Sketch, HyPer, and PostgreSQL.
func runTable1(c *ctx) error {
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
	rows := []metrics.Row{}
	sketchQ, err := qerrsOf(labeled, s.Cardinality)
	if err != nil {
		return err
	}
	hyperQ, err := qerrsOf(labeled, hyper.Cardinality)
	if err != nil {
		return err
	}
	pgQ, err := qerrsOf(labeled, pg.Cardinality)
	if err != nil {
		return err
	}
	rows = append(rows,
		metrics.Row{Name: "Deep Sketch", Summary: metrics.Summarize(sketchQ)},
		metrics.Row{Name: "HyPer", Summary: metrics.Summarize(hyperQ)},
		metrics.Row{Name: "PostgreSQL", Summary: metrics.Summarize(pgQ)},
	)
	fmt.Printf("\nTable 1: estimation errors on the JOB-light workload (%d queries)\n\n", len(labeled))
	fmt.Print(metrics.FormatTable(rows))
	fmt.Println("\npaper's Table 1 (real IMDb, PyTorch MSCN, HyPer, PostgreSQL 10.3):")
	fmt.Print(metrics.FormatTable([]metrics.Row{
		{Name: "Deep Sketch", Summary: metrics.Summary{Median: 3.82, P90: 78.4, P95: 362, P99: 927, Max: 1110, Mean: 57.9}},
		{Name: "HyPer", Summary: metrics.Summary{Median: 14.6, P90: 454, P95: 1208, P99: 2764, Max: 4228, Mean: 224}},
		{Name: "PostgreSQL", Summary: metrics.Summary{Median: 7.93, P90: 164, P95: 1104, P99: 2912, Max: 3477, Mean: 174}},
	}))
	fmt.Println("\nshape check: Deep Sketch should lead every statistic, with the gap widening in the tail.")

	// Breakdown by join count (the underlying MSCN paper reports this):
	// deeper joins compound correlation errors for the baselines.
	fmt.Println("\nq-error by number of joins (median | mean), plus under-estimation fraction:")
	fmt.Printf("  %-14s", "joins (n)")
	systems := []struct {
		name string
		est  func(db.Query) (float64, error)
	}{
		{"Deep Sketch", s.Cardinality},
		{"HyPer", hyper.Cardinality},
		{"PostgreSQL", pg.Cardinality},
	}
	for _, sys := range systems {
		fmt.Printf(" %22s", sys.name)
	}
	fmt.Println()
	byJoins := map[int][]workload.LabeledQuery{}
	for _, lq := range labeled {
		byJoins[len(lq.Query.Joins)] = append(byJoins[len(lq.Query.Joins)], lq)
	}
	for joins := 1; joins <= 4; joins++ {
		group := byJoins[joins]
		if len(group) == 0 {
			continue
		}
		fmt.Printf("  %-2d (%2d)       ", joins, len(group))
		for _, sys := range systems {
			qs := make([]float64, 0, len(group))
			ests := make([]float64, 0, len(group))
			truths := make([]float64, 0, len(group))
			for _, lq := range group {
				v, err := sys.est(lq.Query)
				if err != nil {
					return err
				}
				qs = append(qs, metrics.QError(v, float64(lq.Card)))
				ests = append(ests, v)
				truths = append(truths, float64(lq.Card))
			}
			sum := metrics.Summarize(qs)
			fmt.Printf(" %7s |%7s u=%.2f", metrics.Sig3(sum.Median), metrics.Sig3(sum.Mean),
				metrics.UnderFrac(ests, truths))
		}
		fmt.Println()
	}
	return nil
}

// runFig1a reproduces Figure 1a's pipeline view plus §3's training-cost
// observations: stage timings, and the (linear) scaling of training time
// with the number of epochs and training queries.
func runFig1a(c *ctx) error {
	s, err := c.mainSketch()
	if err != nil {
		return err
	}
	fmt.Println("\nsketch creation pipeline (Figure 1a stages):")
	order := []trainmon.Stage{trainmon.StageDefine, trainmon.StageGenerate,
		trainmon.StageExecute, trainmon.StageFeaturize, trainmon.StageTrain}
	for _, st := range order {
		if ms, ok := s.StageMillis[st]; ok {
			fmt.Printf("  %-10s %8d ms\n", st, ms)
		}
	}

	td, err := c.trainingData()
	if err != nil {
		return err
	}

	fmt.Println("\ntraining time vs epochs (same data; paper: \"training time decreases linearly with fewer epochs\"):")
	epochSteps := []int{c.sc.epochs / 5, c.sc.epochs / 2, c.sc.epochs}
	fmt.Printf("  %8s %12s %14s\n", "epochs", "train time", "ms per epoch")
	for _, ep := range epochSteps {
		if ep < 1 {
			ep = 1
		}
		cfg := td.Cfg
		cfg.Model.Epochs = ep
		t0 := time.Now()
		td2 := *td
		td2.Cfg = cfg
		if _, err := core.BuildFromData(&td2, nil); err != nil {
			return err
		}
		el := time.Since(t0)
		fmt.Printf("  %8d %12v %14.1f\n", ep, el.Round(time.Millisecond), float64(el.Milliseconds())/float64(ep))
	}

	fmt.Println("\ntraining time vs training-set size (epochs fixed):")
	fmt.Printf("  %8s %12s %16s\n", "queries", "train time", "µs per query-epoch")
	fixedEp := c.sc.epochs / 2
	if fixedEp < 1 {
		fixedEp = 1
	}
	for _, n := range c.sc.sweepQ {
		if n > len(td.Examples) {
			n = len(td.Examples)
		}
		cfg := td.Cfg
		cfg.Model.Epochs = fixedEp
		td2 := *td
		td2.Cfg = cfg
		td2.Examples = td.Examples[:n]
		t0 := time.Now()
		if _, err := core.BuildFromData(&td2, nil); err != nil {
			return err
		}
		el := time.Since(t0)
		fmt.Printf("  %8d %12v %16.1f\n", n, el.Round(time.Millisecond),
			float64(el.Microseconds())/float64(n*fixedEp))
	}
	fmt.Println("\nshape check: both sweeps should be close to linear (constant per-epoch / per-query cost).")
	return nil
}

// runFig1b reproduces Figure 1b's usage-side claims: estimation within
// milliseconds from a sketch of a few MiBs.
func runFig1b(c *ctx) error {
	s, err := c.mainSketch()
	if err != nil {
		return err
	}
	queries, err := c.jobLightLabeled()
	if err != nil {
		return err
	}
	t0 := time.Now()
	for _, lq := range queries {
		if _, err := s.Cardinality(lq.Query); err != nil {
			return err
		}
	}
	el := time.Since(t0)
	per := el / time.Duration(len(queries))

	fb, err := s.Footprint()
	if err != nil {
		return err
	}
	fmt.Printf("\nestimation latency: %v per query (%d JOB-light queries in %v)\n",
		per.Round(time.Microsecond), len(queries), el.Round(time.Millisecond))
	fmt.Printf("sketch footprint:   %.2f MiB total\n", float64(fb.Total)/(1<<20))
	fmt.Printf("  header   %8.2f KiB (config, vocabulary, normalizers)\n", float64(fb.Header)/1024)
	fmt.Printf("  weights  %8.2f KiB (%d MSCN parameters)\n", float64(fb.Weights)/1024, s.Model.NumParams())
	fmt.Printf("  samples  %8.2f KiB (%d tuples x %d tables)\n", float64(fb.Samples)/1024,
		s.Cfg.SampleSize, len(s.Cfg.Tables))
	fmt.Println("\nshape check: latency within milliseconds, footprint within a few MiBs (paper §1).")
	return nil
}

// runFig2 reproduces the demo's Figure 2 flow: the keyword-over-years
// template with Deep Sketch / HyPer / PostgreSQL / truth overlays.
func runFig2(c *ctx) error {
	s, err := c.mainSketch()
	if err != nil {
		return err
	}
	hyper, pg, err := c.baselines()
	if err != nil {
		return err
	}
	tpl, err := workload.YearTemplate(c.db(), "artificial-intelligence")
	if err != nil {
		return err
	}
	res, err := s.EstimateTemplate(context.Background(), tpl, workload.GroupBuckets, 14)
	if err != nil {
		return err
	}
	fmt.Println("\npopularity of keyword 'artificial-intelligence' over production years")
	fmt.Printf("%-11s %10s %10s %10s %10s\n", "years", "sketch", "hyper", "postgres", "true")
	var qSketch, qHyper, qPG []float64
	for _, r := range res {
		truth, err := c.db().Count(r.Query)
		if err != nil {
			return err
		}
		he, err := hyper.Cardinality(r.Query)
		if err != nil {
			return err
		}
		pe, err := pg.Cardinality(r.Query)
		if err != nil {
			return err
		}
		fmt.Printf("%-11s %10.1f %10.1f %10.1f %10d\n", r.Label, r.Estimate, he, pe, truth)
		qSketch = append(qSketch, metrics.QError(r.Estimate, float64(truth)))
		qHyper = append(qHyper, metrics.QError(he, float64(truth)))
		qPG = append(qPG, metrics.QError(pe, float64(truth)))
	}
	fmt.Printf("\nmean q-error over the series: Deep Sketch %.2f, HyPer %.2f, PostgreSQL %.2f\n",
		metrics.Summarize(qSketch).Mean, metrics.Summarize(qHyper).Mean, metrics.Summarize(qPG).Mean)
	fmt.Println("shape check: the sketch's series should rise with the true era trend; the baselines track only the year marginal.")
	return nil
}

// runZeroTuple reproduces §2's robustness claim: on queries where no
// sampled tuple qualifies, the sampling estimator must guess while the
// sketch still uses the query's static features.
//
// The experiment uses a dedicated sketch with deliberately small samples.
// The paper's samples cover ~0.003% of the 36M-row cast_info table, so
// 0-tuple situations there span selectivities over four orders of
// magnitude; at this reproduction's table sizes, the main sketch's samples
// cover >1% and a 0-tuple situation pins the selectivity into a narrow
// band where any guess is adequate. Shrinking the samples restores the
// paper's coverage regime.
func runZeroTuple(c *ctx) error {
	ssize := c.sc.samples / 8
	if ssize < 48 {
		ssize = 48
	}
	fmt.Printf("building dedicated small-sample sketch (%d tuples/table) for the 0-tuple regime...\n", ssize)
	cfg := c.sketchCfg()
	cfg.Name = "zero-tuple"
	cfg.SampleSize = ssize
	cfg.MaxJoins = 2
	s, err := core.Build(c.db(), cfg, nil)
	if err != nil {
		return err
	}
	// Share the sketch's samples so both see identical 0-tuple situations.
	hyper, err := estimator.NewHyperWithSamples(c.db(), s.Samples)
	if err != nil {
		return err
	}
	pg := estimator.NewPostgres(c.db(), estimator.PostgresOptions{})

	gen, err := workload.NewGenerator(c.db(), workload.GenConfig{
		Seed: c.seed + 1000, Count: c.sc.queries, MaxJoins: 2, MaxPreds: 3, Dedup: true,
	})
	if err != nil {
		return err
	}
	// Mine all 0-tuple situations regardless of the true result size, like
	// the underlying MSCN evaluation: the sample carries no signal, so the
	// spread of true cardinalities (from empty to hundreds) is what the
	// estimators must cope with.
	var mined []workload.LabeledQuery
	for _, q := range gen.Generate() {
		zt, err := hyper.ZeroTuple(q)
		if err != nil {
			return err
		}
		if !zt {
			continue
		}
		card, err := c.db().Count(q)
		if err != nil {
			return err
		}
		mined = append(mined, workload.LabeledQuery{Query: q, Card: card})
		if len(mined) >= 400 {
			break
		}
	}
	if len(mined) == 0 {
		fmt.Println("\nno 0-tuple situations found (samples too large relative to data); rerun with -samples lowered")
		return nil
	}
	sketchQ, err := qerrsOf(mined, s.Cardinality)
	if err != nil {
		return err
	}
	hyperQ, err := qerrsOf(mined, hyper.Cardinality)
	if err != nil {
		return err
	}
	pgQ, err := qerrsOf(mined, pg.Cardinality)
	if err != nil {
		return err
	}
	fmt.Printf("\nq-errors on %d 0-tuple queries (no qualifying sample tuples on some table):\n\n", len(mined))
	fmt.Print(metrics.FormatTable([]metrics.Row{
		{Name: "Deep Sketch", Summary: metrics.Summarize(sketchQ)},
		{Name: "HyPer (sampling)", Summary: metrics.Summarize(hyperQ)},
		{Name: "PostgreSQL", Summary: metrics.Summarize(pgQ)},
	}))
	fmt.Println("\nshape check: the sketch should dominate the sampling estimator, whose educated guess produces heavy tails.")
	return nil
}

// runTrainSize reproduces §3's "for a small number of tables, 10,000
// queries will already be sufficient": JOB-light q-error vs training-set
// size, with diminishing returns.
func runTrainSize(c *ctx) error {
	td, err := c.trainingData()
	if err != nil {
		return err
	}
	labeled, err := c.jobLightLabeled()
	if err != nil {
		return err
	}
	fmt.Println("\nJOB-light q-error vs number of training queries:")
	fmt.Printf("  %8s %10s %10s %10s\n", "queries", "median", "mean", "95th")
	for _, n := range c.sc.sweepQ {
		if n > len(td.Examples) {
			n = len(td.Examples)
		}
		cfg := td.Cfg
		cfg.Model.Epochs = c.sc.epochs
		td2 := *td
		td2.Cfg = cfg
		td2.Examples = td.Examples[:n]
		sk, err := core.BuildFromData(&td2, nil)
		if err != nil {
			return err
		}
		qs, err := qerrsOf(labeled, sk.Cardinality)
		if err != nil {
			return err
		}
		sum := metrics.Summarize(qs)
		fmt.Printf("  %8d %10s %10s %10s\n", n, metrics.Sig3(sum.Median), metrics.Sig3(sum.Mean), metrics.Sig3(sum.P95))
	}
	fmt.Println("\nshape check: errors fall with more training queries and flatten toward the full set.")
	return nil
}

// runEpochs reproduces §3's "25 epochs are usually enough to achieve a
// reasonable mean q-error on a separate validation set".
func runEpochs(c *ctx) error {
	td, err := c.trainingData()
	if err != nil {
		return err
	}
	cfg := td.Cfg
	cfg.Model.Epochs = c.sc.sweepEp
	td2 := *td
	td2.Cfg = cfg
	mon := trainmon.New()
	mon.AddSink(func(e trainmon.Event) {
		if e.Kind == trainmon.KindTrainStart {
			fmt.Printf("  %s\n", e.Msg)
		}
	})
	sk, err := core.BuildFromData(&td2, mon)
	if err != nil {
		return err
	}
	fmt.Printf("\nvalidation q-error per epoch (1..%d):\n", c.sc.sweepEp)
	fmt.Printf("  %6s %12s %12s\n", "epoch", "val mean-q", "val median-q")
	means := make([]float64, 0, len(sk.Epochs))
	for _, e := range sk.Epochs {
		means = append(means, e.ValMeanQ)
		if e.Epoch == 1 || e.Epoch%5 == 0 {
			fmt.Printf("  %6d %12.2f %12.2f\n", e.Epoch, e.ValMeanQ, e.ValMedQ)
		}
	}
	fmt.Printf("\n  trajectory: %s\n", trainmon.Sparkline(means))
	// Where does the curve flatten? Report the first epoch within 20% of
	// the final value.
	final := means[len(means)-1]
	plateau := len(means)
	for i, m := range means {
		if m <= final*1.2 {
			plateau = i + 1
			break
		}
	}
	fmt.Printf("  plateau (within 20%% of final): epoch %d of %d\n", plateau, len(means))
	fmt.Println("\nshape check: the curve should flatten well before the horizon (paper: ~25 epochs).")
	return nil
}

// runAblation isolates the paper's differentiating design choice: feeding
// qualifying-sample bitmaps into the model ("besides this integration of
// (runtime) sampling...").
func runAblation(c *ctx) error {
	td, err := c.trainingData()
	if err != nil {
		return err
	}
	labeled, err := c.jobLightLabeled()
	if err != nil {
		return err
	}

	// With bitmaps: the main sketch.
	withSketch, err := c.mainSketch()
	if err != nil {
		return err
	}
	withQ, err := qerrsOf(labeled, withSketch.Cardinality)
	if err != nil {
		return err
	}

	// Without bitmaps: re-encode with a bitmap-free encoder (SampleSize 0),
	// same training labels, same hyperparameters.
	fmt.Println("\ntraining bitmap-free MSCN (static query features only)...")
	encNo, err := featurize.NewEncoder(c.db(), td.Cfg.Tables, 0)
	if err != nil {
		return err
	}
	cards := make([]int64, len(td.Labeled))
	for i, lq := range td.Labeled {
		cards[i] = lq.Card
	}
	encNo.FitLabels(cards)
	examples := make([]mscn.Example, len(td.Labeled))
	for i, lq := range td.Labeled {
		e, err := encNo.EncodeQuery(lq.Query, nil)
		if err != nil {
			return err
		}
		examples[i] = mscn.Example{Enc: e, Card: lq.Card}
	}
	cfg := td.Cfg.Model
	cfg.Epochs = c.sc.epochs
	if cfg.Seed == 0 {
		cfg.Seed = c.seed
	}
	model := mscn.New(cfg, encNo.TableDim(), encNo.JoinDim(), encNo.PredDim())
	if _, err := model.Train(examples, encNo.Norm, nil); err != nil {
		return err
	}
	noQ := make([]float64, 0, len(labeled))
	for _, lq := range labeled {
		e, err := encNo.EncodeQuery(lq.Query, nil)
		if err != nil {
			return err
		}
		y, err := model.Predict(e)
		if err != nil {
			return err
		}
		noQ = append(noQ, metrics.QError(encNo.Norm.Denormalize(y), float64(lq.Card)))
	}

	fmt.Println("\nJOB-light q-errors, MSCN with vs without sample bitmaps:")
	fmt.Print(metrics.FormatTable([]metrics.Row{
		{Name: "MSCN + bitmaps", Summary: metrics.Summarize(withQ)},
		{Name: "MSCN static only", Summary: metrics.Summarize(noQ)},
	}))
	fmt.Println("\nshape check: bitmaps should strictly help — they carry the per-table sample selectivities.")
	return nil
}

// runTPCH exercises the demo's second dataset: a sketch over the synthetic
// TPC-H schema evaluated on a held-out uniform workload.
func runTPCH(c *ctx) error {
	fmt.Printf("generating synthetic TPC-H (%d orders)...\n", c.sc.tpchOrder)
	d := datagen.TPCH(datagen.TPCHConfig{Seed: c.seed, Orders: c.sc.tpchOrder})
	cfg := c.sketchCfg()
	cfg.Name = "tpch"
	cfg.MaxJoins = 3
	fmt.Println("building TPC-H sketch...")
	sk, err := core.Build(d, cfg, nil)
	if err != nil {
		return err
	}
	gen, err := workload.NewGenerator(d, workload.GenConfig{
		Seed: c.seed + 500, Count: 300, MaxJoins: 3, MaxPreds: 3, Dedup: true,
	})
	if err != nil {
		return err
	}
	labeled, err := workload.Label(d, gen.Generate(), 0, nil)
	if err != nil {
		return err
	}
	hyper, err := estimator.NewHyper(d, c.sc.samples, c.seed)
	if err != nil {
		return err
	}
	pg := estimator.NewPostgres(d, estimator.PostgresOptions{})
	sketchQ, err := qerrsOf(labeled, sk.Cardinality)
	if err != nil {
		return err
	}
	hyperQ, err := qerrsOf(labeled, hyper.Cardinality)
	if err != nil {
		return err
	}
	pgQ, err := qerrsOf(labeled, pg.Cardinality)
	if err != nil {
		return err
	}
	fmt.Printf("\nq-errors on a held-out uniform TPC-H workload (%d queries):\n\n", len(labeled))
	fmt.Print(metrics.FormatTable([]metrics.Row{
		{Name: "Deep Sketch", Summary: metrics.Summarize(sketchQ)},
		{Name: "HyPer", Summary: metrics.Summarize(hyperQ)},
		{Name: "PostgreSQL", Summary: metrics.Summarize(pgQ)},
	}))
	fmt.Println("\nshape check: TPC-H is more uniform than IMDb, so all systems do better; the sketch still leads the tail.")
	return nil
}
