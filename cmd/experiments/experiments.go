package main

import (
	"context"
	"fmt"
	"slices"
	"time"

	"deepsketch/internal/core"
	"deepsketch/internal/datagen"
	"deepsketch/internal/estimator"
	"deepsketch/internal/metrics"
	"deepsketch/internal/trainmon"
	"deepsketch/internal/workload"
)

// runTable1 reproduces Table 1: estimation errors (q-errors) on the
// JOB-light workload for Deep Sketch, HyPer, and PostgreSQL.
func runTable1(c *ctx) ([]claim, error) {
	s, err := c.mainSketch()
	if err != nil {
		return nil, err
	}
	labeled, err := c.jobLightLabeled()
	if err != nil {
		return nil, err
	}
	hyper, pg, err := c.baselines()
	if err != nil {
		return nil, err
	}
	systems := []system{{"Deep Sketch", s.Cardinality}, {"HyPer", hyper.Cardinality}, {"PostgreSQL", pg.Cardinality}}
	rows, err := compare(labeled, systems)
	if err != nil {
		return nil, err
	}
	fmt.Fprintf(c.out, "\nTable 1: estimation errors on the JOB-light workload (%d queries)\n\n", len(labeled))
	fmt.Fprint(c.out, metrics.FormatTable(rows))
	fmt.Fprintln(c.out, "\npaper's Table 1 (real IMDb, PyTorch MSCN, HyPer, PostgreSQL 10.3):")
	fmt.Fprint(c.out, metrics.FormatTable([]metrics.Row{
		{Name: "Deep Sketch", Summary: metrics.Summary{Median: 3.82, P90: 78.4, P95: 362, P99: 927, Max: 1110, Mean: 57.9}},
		{Name: "HyPer", Summary: metrics.Summary{Median: 14.6, P90: 454, P95: 1208, P99: 2764, Max: 4228, Mean: 224}},
		{Name: "PostgreSQL", Summary: metrics.Summary{Median: 7.93, P90: 164, P95: 1104, P99: 2912, Max: 3477, Mean: 174}},
	}))

	// Breakdown by join count (the underlying MSCN paper reports this):
	// deeper joins compound correlation errors for the baselines.
	fmt.Fprintln(c.out, "\nq-error by number of joins (median | mean), plus under-estimation fraction:")
	fmt.Fprintf(c.out, "  %-14s", "joins (n)")
	for _, sys := range systems {
		fmt.Fprintf(c.out, " %22s", sys.name)
	}
	fmt.Fprintln(c.out)
	byJoins := map[int][]workload.LabeledQuery{}
	for _, lq := range labeled {
		byJoins[len(lq.Query.Joins)] = append(byJoins[len(lq.Query.Joins)], lq)
	}
	for joins := 1; joins <= 4; joins++ {
		group := byJoins[joins]
		if len(group) == 0 {
			continue
		}
		fmt.Fprintf(c.out, "  %-2d (%2d)       ", joins, len(group))
		for _, sys := range systems {
			qs := make([]float64, 0, len(group))
			ests := make([]float64, 0, len(group))
			truths := make([]float64, 0, len(group))
			for _, lq := range group {
				v, err := sys.est(lq.Query)
				if err != nil {
					return nil, err
				}
				qs = append(qs, metrics.QError(v, float64(lq.Card)))
				ests = append(ests, v)
				truths = append(truths, float64(lq.Card))
			}
			sum := metrics.Summarize(qs)
			fmt.Fprintf(c.out, " %7s |%7s u=%.2f", metrics.Sig3(sum.Median), metrics.Sig3(sum.Mean),
				metrics.UnderFrac(ests, truths))
		}
		fmt.Fprintln(c.out)
	}
	sk, hy, po := rows[0].Summary, rows[1].Summary, rows[2].Summary
	return []claim{
		atMost(gatePaper, "on JOB-light Deep Sketch's median q-error is no worse than HyPer's and PostgreSQL's", sk.Median, 1, hy.Median, po.Median),
		atMost(gatePaper, "on JOB-light Deep Sketch's 95th-percentile q-error is no worse than HyPer's and PostgreSQL's", sk.P95, 1, hy.P95, po.P95),
		atMost(gatePaper, "on JOB-light Deep Sketch's mean q-error is no worse than HyPer's and PostgreSQL's", sk.Mean, 1, hy.Mean, po.Mean),
	}, nil
}

// runFig1a reproduces Figure 1a's pipeline view plus §3's training-cost
// observations: stage timings, and the (linear) scaling of training time
// with the number of epochs and training queries.
func runFig1a(c *ctx) ([]claim, error) {
	if _, err := c.mainSketch(); err != nil {
		return nil, err
	}
	fmt.Fprintln(c.out, "\nsketch creation pipeline (Figure 1a stages; train includes per-minibatch bitmaps and featurization):")
	order := []trainmon.Stage{trainmon.StageDefine, trainmon.StageGenerate,
		trainmon.StageExecute, trainmon.StageFeaturize, trainmon.StageTrain}
	// The data preparation's monitor holds stages 1–4a, the main sketch's
	// training monitor stage 4b.
	for _, mon := range []*trainmon.Monitor{c.tdMon, c.sketchMon} {
		times := mon.Snapshot().StageTimes
		for _, st := range order {
			if ms, ok := times[st]; ok {
				fmt.Fprintf(c.out, "  %-10s %8d ms\n", st, ms)
			}
		}
	}

	td, err := c.trainingData()
	if err != nil {
		return nil, err
	}
	// trainTime times one training run over the first n examples.
	trainTime := func(n, epochs int) (time.Duration, error) {
		td2 := *td
		td2.Cfg.Model.Epochs = epochs
		td2.Examples = td.Examples[:n]
		t0 := time.Now()
		_, err := core.BuildFromData(&td2, nil)
		return time.Since(t0), err
	}

	fmt.Fprintln(c.out, "\ntraining time vs epochs (same data; paper: \"training time decreases linearly with fewer epochs\"):")
	fmt.Fprintf(c.out, "  %8s %12s %14s\n", "epochs", "train time", "ms per epoch")
	var perEpoch, perQuery []float64
	for _, ep := range []int{c.sc.epochs / 5, c.sc.epochs / 2, c.sc.epochs} {
		ep = max(ep, 1)
		el, err := trainTime(len(td.Examples), ep)
		if err != nil {
			return nil, err
		}
		perEpoch = append(perEpoch, float64(el.Milliseconds())/float64(ep))
		fmt.Fprintf(c.out, "  %8d %12v %14.1f\n", ep, el.Round(time.Millisecond), perEpoch[len(perEpoch)-1])
	}

	fmt.Fprintln(c.out, "\ntraining time vs training-set size (epochs fixed):")
	fmt.Fprintf(c.out, "  %8s %12s %16s\n", "queries", "train time", "µs per query-epoch")
	fixedEp := max(c.sc.epochs/2, 1)
	for _, n := range c.sc.sweepQ {
		n = min(n, len(td.Examples))
		el, err := trainTime(n, fixedEp)
		if err != nil {
			return nil, err
		}
		perQuery = append(perQuery, float64(el.Microseconds())/float64(n*fixedEp))
		fmt.Fprintf(c.out, "  %8d %12v %16.1f\n", n, el.Round(time.Millisecond), perQuery[len(perQuery)-1])
	}
	// Linear means a constant unit cost. It is wall clock, which wanders
	// from run to run on a shared machine, so the spread is printed and
	// judged by no verdict.
	spread := func(unit []float64) float64 { return slices.Max(unit) / slices.Min(unit) }
	fmt.Fprintf(c.out, "\ntraining time is linear in epochs: per-epoch cost max/min %.2f across the sweep\n", spread(perEpoch))
	fmt.Fprintf(c.out, "training time is linear in training-set size: per-query cost max/min %.2f across the sweep\n", spread(perQuery))
	return nil, nil
}

// runFig1b reproduces Figure 1b's usage-side claims: estimation within
// milliseconds from a sketch of a few MiBs.
func runFig1b(c *ctx) ([]claim, error) {
	s, err := c.mainSketch()
	if err != nil {
		return nil, err
	}
	queries, err := c.jobLightLabeled()
	if err != nil {
		return nil, err
	}
	t0 := time.Now()
	for _, lq := range queries {
		if _, err := s.Cardinality(lq.Query); err != nil {
			return nil, err
		}
	}
	el := time.Since(t0)
	per := el / time.Duration(len(queries))

	fb, err := s.Footprint()
	if err != nil {
		return nil, err
	}
	mib := float64(fb.Total) / (1 << 20)
	fmt.Fprintf(c.out, "\nestimation latency: %v per query (%d JOB-light queries in %v)\n",
		per.Round(time.Microsecond), len(queries), el.Round(time.Millisecond))
	fmt.Fprintf(c.out, "sketch footprint:   %.2f MiB total\n", mib)
	fmt.Fprintf(c.out, "  header   %8.2f KiB (config, vocabulary, normalizers)\n", float64(fb.Header)/1024)
	fmt.Fprintf(c.out, "  weights  %8.2f KiB (%d MSCN parameters)\n", float64(fb.Weights)/1024, s.Model.NumParams())
	fmt.Fprintf(c.out, "  samples  %8.2f KiB (%d tuples x %d tables)\n", float64(fb.Samples)/1024,
		s.Cfg.SampleSize, len(s.Cfg.Tables))
	return []claim{
		{text: "an estimate takes milliseconds at most (paper §1; under 5 ms per query)", holds: per < 5*time.Millisecond,
			got: per.Round(time.Microsecond).String(), gate: gateNever},
		{text: "the sketch's footprint is a few MiB (paper §1; at most 4 MiB)", holds: mib <= 4,
			got: fmt.Sprintf("%.2f MiB", mib), gate: gateBoth},
	}, nil
}

// runFig2 reproduces the demo's Figure 2 flow: the keyword-over-years
// template with Deep Sketch / HyPer / PostgreSQL / truth overlays.
func runFig2(c *ctx) ([]claim, error) {
	s, err := c.mainSketch()
	if err != nil {
		return nil, err
	}
	hyper, pg, err := c.baselines()
	if err != nil {
		return nil, err
	}
	tpl, err := workload.YearTemplate(c.db(), "artificial-intelligence")
	if err != nil {
		return nil, err
	}
	res, err := s.EstimateTemplate(context.Background(), tpl, workload.GroupBuckets, 14)
	if err != nil {
		return nil, err
	}
	fmt.Fprintln(c.out, "\npopularity of keyword 'artificial-intelligence' over production years")
	fmt.Fprintf(c.out, "%-11s %10s %10s %10s %10s\n", "years", "sketch", "hyper", "postgres", "true")
	var qSketch, qHyper, qPG []float64
	for _, r := range res {
		truth, err := c.db().Count(r.Query)
		if err != nil {
			return nil, err
		}
		he, err := hyper.Cardinality(r.Query)
		if err != nil {
			return nil, err
		}
		pe, err := pg.Cardinality(r.Query)
		if err != nil {
			return nil, err
		}
		fmt.Fprintf(c.out, "%-11s %10.1f %10.1f %10.1f %10d\n", r.Label, r.Estimate, he, pe, truth)
		qSketch = append(qSketch, metrics.QError(r.Estimate, float64(truth)))
		qHyper = append(qHyper, metrics.QError(he, float64(truth)))
		qPG = append(qPG, metrics.QError(pe, float64(truth)))
	}
	sk, hy, po := metrics.Summarize(qSketch).Mean, metrics.Summarize(qHyper).Mean, metrics.Summarize(qPG).Mean
	fmt.Fprintf(c.out, "\nmean q-error over the series: Deep Sketch %.2f, HyPer %.2f, PostgreSQL %.2f\n", sk, hy, po)
	// The baselines track only the year marginal; following the keyword's
	// era trend is what a lower series q-error means.
	return []claim{atMost(gatePaper,
		"the sketch's series follows the keyword's true trend more closely (lower mean q-error) than HyPer's and PostgreSQL's",
		sk, 1, hy, po)}, nil
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
func runZeroTuple(c *ctx) ([]claim, error) {
	ssize := max(c.sc.samples/8, 48)
	fmt.Fprintf(c.out, "building dedicated small-sample sketch (%d tuples/table) for the 0-tuple regime...\n", ssize)
	cfg := c.sketchCfg()
	cfg.Name = "zero-tuple"
	cfg.SampleSize = ssize
	cfg.MaxJoins = 2
	s, err := core.Build(c.db(), cfg, nil)
	if err != nil {
		return nil, err
	}
	// Share the sketch's samples so both see identical 0-tuple situations.
	hyper, err := estimator.NewHyperWithSamples(c.db(), s.Samples)
	if err != nil {
		return nil, err
	}
	pg := estimator.NewPostgres(c.db(), estimator.PostgresOptions{})

	gen, err := workload.NewGenerator(c.db(), workload.GenConfig{
		Seed: c.seed + 1000, Count: c.sc.queries, MaxJoins: 2, MaxPreds: 3, Dedup: true,
	})
	if err != nil {
		return nil, err
	}
	// Mine all 0-tuple situations regardless of the true result size, like
	// the underlying MSCN evaluation: the sample carries no signal, so the
	// spread of true cardinalities (from empty to hundreds) is what the
	// estimators must cope with.
	var mined []workload.LabeledQuery
	for _, q := range gen.Generate() {
		zt, err := hyper.ZeroTuple(q)
		if err != nil {
			return nil, err
		}
		if !zt {
			continue
		}
		card, err := c.db().Count(q)
		if err != nil {
			return nil, err
		}
		mined = append(mined, workload.LabeledQuery{Query: q, Card: card})
		if len(mined) >= 400 {
			break
		}
	}
	// An empty mined set would make every claim below vacuous.
	if len(mined) == 0 {
		return nil, fmt.Errorf("no 0-tuple situations found (samples too large relative to data); rerun with -samples lowered")
	}
	rows, err := compare(mined, []system{
		{"Deep Sketch", s.Cardinality}, {"HyPer (sampling)", hyper.Cardinality}, {"PostgreSQL", pg.Cardinality}})
	if err != nil {
		return nil, err
	}
	fmt.Fprintf(c.out, "\nq-errors on %d 0-tuple queries (no qualifying sample tuples on some table):\n\n", len(mined))
	fmt.Fprint(c.out, metrics.FormatTable(rows))
	sk, hy := rows[0].Summary, rows[1].Summary
	return []claim{
		atMost(gateBoth, "on 0-tuple queries the sketch's median q-error is at most half the sampling estimator's", sk.Median, 0.5, hy.Median),
		atMost(gateBoth, "on 0-tuple queries the sketch's mean q-error is at most half the sampling estimator's, whose educated guess produces heavy tails", sk.Mean, 0.5, hy.Mean),
	}, nil
}

// runTrainSize reproduces §3's "for a small number of tables, 10,000
// queries will already be sufficient": JOB-light q-error vs training-set
// size, with diminishing returns.
func runTrainSize(c *ctx) ([]claim, error) {
	td, err := c.trainingData()
	if err != nil {
		return nil, err
	}
	labeled, err := c.jobLightLabeled()
	if err != nil {
		return nil, err
	}
	fmt.Fprintln(c.out, "\nJOB-light q-error vs number of training queries:")
	fmt.Fprintf(c.out, "  %8s %10s %10s %10s\n", "queries", "median", "mean", "95th")
	var medians []float64
	for _, n := range c.sc.sweepQ {
		td2 := *td
		td2.Cfg.Model.Epochs = c.sc.epochs
		td2.Examples = td.Examples[:min(n, len(td.Examples))]
		sk, err := core.BuildFromData(&td2, nil)
		if err != nil {
			return nil, err
		}
		qs, err := qerrsOf(labeled, sk.Cardinality)
		if err != nil {
			return nil, err
		}
		sum := metrics.Summarize(qs)
		medians = append(medians, sum.Median)
		fmt.Fprintf(c.out, "  %8d %10s %10s %10s\n", len(td2.Examples), metrics.Sig3(sum.Median), metrics.Sig3(sum.Mean), metrics.Sig3(sum.P95))
	}
	return []claim{atMost(gateBoth,
		"errors fall with more training queries: the full set's JOB-light median is at most 0.8x the smallest set's",
		medians[len(medians)-1], 0.8, medians[0])}, nil
}

// runEpochs reproduces §3's "25 epochs are usually enough to achieve a
// reasonable mean q-error on a separate validation set".
func runEpochs(c *ctx) ([]claim, error) {
	td, err := c.trainingData()
	if err != nil {
		return nil, err
	}
	td2 := *td
	td2.Cfg.Model.Epochs = c.sc.sweepEp
	mon := trainmon.New()
	mon.AddSink(func(e trainmon.Event) {
		if e.Kind == trainmon.KindTrainStart {
			fmt.Fprintf(c.out, "  %s\n", e.Msg)
		}
	})
	sk, err := core.BuildFromData(&td2, mon)
	if err != nil {
		return nil, err
	}
	fmt.Fprintf(c.out, "\nvalidation q-error per epoch (1..%d):\n", c.sc.sweepEp)
	fmt.Fprintf(c.out, "  %6s %12s %12s\n", "epoch", "val mean-q", "val median-q")
	means := make([]float64, 0, len(sk.Epochs))
	for _, e := range sk.Epochs {
		means = append(means, e.ValMeanQ)
		if e.Epoch == 1 || e.Epoch%5 == 0 {
			fmt.Fprintf(c.out, "  %6d %12.2f %12.2f\n", e.Epoch, e.ValMeanQ, e.ValMedQ)
		}
	}
	fmt.Fprintf(c.out, "\n  trajectory: %s\n", trainmon.Sparkline(means))
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
	fmt.Fprintf(c.out, "  plateau (within 20%% of final): epoch %d of %d\n", plateau, len(means))
	return []claim{atMost(gateBoth,
		"training converges within the horizon: the final validation mean q-error is at most a quarter of epoch 1's",
		final, 0.25, means[0])}, nil
}

// runAblation isolates the paper's differentiating design choice: feeding
// qualifying-sample bitmaps into the model ("besides this integration of
// (runtime) sampling...").
func runAblation(c *ctx) ([]claim, error) {
	labeled, err := c.jobLightLabeled()
	if err != nil {
		return nil, err
	}

	// With bitmaps: the main sketch.
	withSketch, err := c.mainSketch()
	if err != nil {
		return nil, err
	}
	withQ, err := qerrsOf(labeled, withSketch.Cardinality)
	if err != nil {
		return nil, err
	}
	with := metrics.Summarize(withQ)

	// Without bitmaps: a bitmap-free encoder (sample size 0), same training
	// labels, same hyperparameters.
	fmt.Fprintln(c.out, "\ntraining bitmap-free MSCN (static query features only)...")
	without, err := c.jobLightAtSampleSize(0, c.sc.epochs)
	if err != nil {
		return nil, err
	}

	fmt.Fprintln(c.out, "\nJOB-light q-errors, MSCN with vs without sample bitmaps:")
	fmt.Fprint(c.out, metrics.FormatTable([]metrics.Row{
		{Name: "MSCN + bitmaps", Summary: with},
		{Name: "MSCN static only", Summary: without},
	}))
	return []claim{
		atMost(gateBoth, "sample bitmaps help: with them the JOB-light median q-error is at most 0.8x the static-only model's", with.Median, 0.8, without.Median),
		atMost(gateBoth, "sample bitmaps help: with them the JOB-light mean q-error is at most 0.75x the static-only model's", with.Mean, 0.75, without.Mean),
	}, nil
}

// runTPCH exercises the demo's second dataset: a sketch over the synthetic
// TPC-H schema evaluated on a held-out uniform workload.
func runTPCH(c *ctx) ([]claim, error) {
	fmt.Fprintf(c.out, "generating synthetic TPC-H (%d orders)...\n", c.sc.tpchOrder)
	d := datagen.TPCH(datagen.TPCHConfig{Seed: c.seed, Orders: c.sc.tpchOrder})
	cfg := c.sketchCfg()
	cfg.Name = "tpch"
	cfg.MaxJoins = 3
	fmt.Fprintln(c.out, "building TPC-H sketch...")
	sk, err := core.Build(d, cfg, nil)
	if err != nil {
		return nil, err
	}
	gen, err := workload.NewGenerator(d, workload.GenConfig{
		Seed: c.seed + 500, Count: 300, MaxJoins: 3, MaxPreds: 3, Dedup: true,
	})
	if err != nil {
		return nil, err
	}
	labeled, err := workload.Label(d, gen.Generate(), 0, nil)
	if err != nil {
		return nil, err
	}
	hyper, err := estimator.NewHyper(d, c.sc.samples, c.seed)
	if err != nil {
		return nil, err
	}
	pg := estimator.NewPostgres(d, estimator.PostgresOptions{})
	rows, err := compare(labeled, []system{
		{"Deep Sketch", sk.Cardinality}, {"HyPer", hyper.Cardinality}, {"PostgreSQL", pg.Cardinality}})
	if err != nil {
		return nil, err
	}
	fmt.Fprintf(c.out, "\nq-errors on a held-out uniform TPC-H workload (%d queries):\n\n", len(labeled))
	fmt.Fprint(c.out, metrics.FormatTable(rows))
	// This repo's extrapolation, not the paper's: TPC-H is close to uniform,
	// so the independence assumption costs the baselines little.
	return []claim{atMost(gateNever,
		"on TPC-H the sketch leads the tail: its 95th-percentile q-error is no worse than HyPer's and PostgreSQL's",
		rows[0].Summary.P95, 1, rows[1].Summary.P95, rows[2].Summary.P95)}, nil
}
