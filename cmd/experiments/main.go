// Command experiments regenerates every table and figure of the paper's
// evaluation, mapped to this reproduction's synthetic substrate:
//
//	table1     Table 1    — q-errors on JOB-light: Deep Sketch vs HyPer vs PostgreSQL
//	fig1a      Figure 1a  — creation pipeline stage costs; training time scaling
//	fig1b      Figure 1b  — estimation latency and sketch footprint
//	fig2       Figure 2   — keyword-over-years template with overlays
//	zerotuple  §2 claim   — 0-tuple robustness vs sampling's educated guess
//	trainsize  §3 claim   — q-error vs number of training queries
//	epochs     §3 claim   — validation q-error vs training epochs
//	ablation   §2 design  — MSCN with vs without sample bitmaps
//	tpch       demo scope — sketch quality on the TPC-H-like dataset
//	samplesize extension  — q-error vs sample size (bitmap width) curve
//	optimizer  extension  — plan quality when estimates drive a DP join enumerator
//	loss       extension  — mean q-error vs L1-log training objective
//
// Usage:
//
//	experiments -run all            # everything, paper-scale defaults
//	experiments -run table1,fig2    # a subset
//	experiments -fast               # reduced scale (CI-sized)
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"deepsketch/internal/core"
	"deepsketch/internal/datagen"
	"deepsketch/internal/db"
	"deepsketch/internal/estimator"
	"deepsketch/internal/metrics"
	"deepsketch/internal/mscn"
	"deepsketch/internal/trainmon"
	"deepsketch/internal/workload"
)

func main() {
	run := flag.String("run", "all", "comma-separated experiment list or 'all'")
	fast := flag.Bool("fast", false, "reduced scale (smaller data, fewer queries/epochs)")
	titles := flag.Int("titles", 0, "override imdb scale (titles)")
	queries := flag.Int("queries", 0, "override training query count")
	epochs := flag.Int("epochs", 0, "override training epochs")
	hidden := flag.Int("hidden", 0, "override MSCN hidden units")
	samples := flag.Int("samples", 0, "override sample tuples per table")
	workers := flag.Int("workers", 0, "parallel workers for labeling and data-parallel training (0 = GOMAXPROCS)")
	seed := flag.Int64("seed", 1, "experiment seed")
	flag.Parse()

	c := newCtx(*fast, *titles, *queries, *epochs, *hidden, *samples, *workers, *seed)

	all := []struct {
		name string
		fn   func(*ctx) error
	}{
		{"table1", runTable1},
		{"fig1a", runFig1a},
		{"fig1b", runFig1b},
		{"fig2", runFig2},
		{"zerotuple", runZeroTuple},
		{"trainsize", runTrainSize},
		{"epochs", runEpochs},
		{"ablation", runAblation},
		{"tpch", runTPCH},
		{"samplesize", runSampleSize},
		{"optimizer", runOptimizer},
		{"loss", runLossAblation},
	}
	want := map[string]bool{}
	if *run == "all" {
		for _, e := range all {
			want[e.name] = true
		}
	} else {
		for _, n := range strings.Split(*run, ",") {
			want[strings.TrimSpace(n)] = true
		}
	}
	known := map[string]bool{}
	for _, e := range all {
		known[e.name] = true
	}
	for n := range want {
		if !known[n] {
			fmt.Fprintf(os.Stderr, "experiments: unknown experiment %q\n", n)
			os.Exit(2)
		}
	}
	start := time.Now()
	for _, e := range all {
		if !want[e.name] {
			continue
		}
		fmt.Printf("\n══ %s ═══════════════════════════════════════════════\n", e.name)
		t0 := time.Now()
		if err := e.fn(c); err != nil {
			fmt.Fprintf(os.Stderr, "experiments: %s: %v\n", e.name, err)
			os.Exit(1)
		}
		fmt.Printf("── %s done in %v\n", e.name, time.Since(t0).Round(time.Millisecond))
	}
	fmt.Printf("\nall requested experiments finished in %v\n", time.Since(start).Round(time.Second))
}

// scale holds the experiment sizing knobs.
type scale struct {
	titles    int
	queries   int
	epochs    int
	hidden    int
	samples   int
	tpchOrder int
	sweepQ    []int // trainsize sweep
	sweepEp   int   // epochs experiment horizon
}

func defaultScale(fast bool) scale {
	if fast {
		return scale{
			titles: 4000, queries: 2000, epochs: 10, hidden: 32, samples: 256,
			tpchOrder: 2500, sweepQ: []int{250, 500, 1000, 2000}, sweepEp: 20,
		}
	}
	return scale{
		titles: 20000, queries: 10000, epochs: 25, hidden: 64, samples: 1000,
		tpchOrder: 15000, sweepQ: []int{500, 1000, 2000, 5000, 10000}, sweepEp: 50,
	}
}

// ctx lazily builds and caches the shared heavyweight fixtures: the IMDb
// database, the main sketch, its training data, and the labeled JOB-light
// workload.
type ctx struct {
	sc      scale
	seed    int64
	workers int

	imdb     *db.DB
	td       *core.TrainingData
	tdStages map[trainmon.Stage]int
	sketch   *core.Sketch
	joblight []workload.LabeledQuery
}

func newCtx(fast bool, titles, queries, epochs, hidden, samples, workers int, seed int64) *ctx {
	sc := defaultScale(fast)
	if titles > 0 {
		sc.titles = titles
	}
	if queries > 0 {
		sc.queries = queries
	}
	if epochs > 0 {
		sc.epochs = epochs
	}
	if hidden > 0 {
		sc.hidden = hidden
	}
	if samples > 0 {
		sc.samples = samples
	}
	return &ctx{sc: sc, seed: seed, workers: workers}
}

func (c *ctx) db() *db.DB {
	if c.imdb == nil {
		fmt.Printf("generating synthetic IMDb (%d titles)... ", c.sc.titles)
		t0 := time.Now()
		c.imdb = datagen.IMDb(datagen.IMDbConfig{Seed: c.seed, Titles: c.sc.titles})
		fmt.Printf("%d total rows in %v\n", c.imdb.TotalRows(), time.Since(t0).Round(time.Millisecond))
	}
	return c.imdb
}

func (c *ctx) sketchCfg() core.Config {
	return core.Config{
		Name:         "experiments",
		SampleSize:   c.sc.samples,
		TrainQueries: c.sc.queries,
		MaxJoins:     4, // JOB-light's query class
		Workers:      c.workers,
		Seed:         c.seed,
		Model: mscn.Config{
			HiddenUnits: c.sc.hidden,
			Epochs:      c.sc.epochs,
			BatchSize:   128,
			Seed:        c.seed,
		},
	}
}

// trainingData prepares (once) the shared training data.
func (c *ctx) trainingData() (*core.TrainingData, error) {
	if c.td != nil {
		return c.td, nil
	}
	fmt.Printf("preparing training data (%d queries, %d samples/table)...\n", c.sc.queries, c.sc.samples)
	mon := trainmon.New()
	td, err := core.PrepareTrainingData(c.db(), c.sketchCfg(), mon)
	if err != nil {
		return nil, err
	}
	c.tdStages = mon.Snapshot().StageTimes
	fmt.Printf("  %s\n", trainmon.FormatStageTimes(c.tdStages))
	c.td = td
	return td, nil
}

// mainSketch trains (once) the main sketch used by table1/fig1b/fig2/....
func (c *ctx) mainSketch() (*core.Sketch, error) {
	if c.sketch != nil {
		return c.sketch, nil
	}
	td, err := c.trainingData()
	if err != nil {
		return nil, err
	}
	fmt.Printf("training main sketch (%d epochs, hidden %d)...\n", c.sc.epochs, c.sc.hidden)
	mon := trainmon.New()
	mon.AddSink(func(e trainmon.Event) {
		switch {
		case e.Kind == trainmon.KindTrainStart:
			fmt.Printf("  %s\n", e.Msg)
		case e.Kind == trainmon.KindEpoch && (e.Epoch%5 == 0 || e.Epoch == 1):
			fmt.Printf("  epoch %3d: val mean-q %8.2f median-q %6.2f\n", e.Epoch, e.ValMeanQ, e.ValMedQ)
		}
	})
	s, err := core.BuildFromData(td, mon)
	if err != nil {
		return nil, err
	}
	// Merge the data-preparation stage times into the sketch record so
	// fig1a can show the whole pipeline.
	for st, ms := range c.tdStages {
		if _, ok := s.StageMillis[st]; !ok {
			s.StageMillis[st] = ms
		}
	}
	c.sketch = s
	return s, nil
}

// jobLightLabeled builds (once) the labeled JOB-light workload.
func (c *ctx) jobLightLabeled() ([]workload.LabeledQuery, error) {
	if c.joblight != nil {
		return c.joblight, nil
	}
	qs, err := workload.JOBLight(c.db(), c.seed)
	if err != nil {
		return nil, err
	}
	labeled, err := workload.Label(c.db(), qs, 0, nil)
	if err != nil {
		return nil, err
	}
	c.joblight = labeled
	return labeled, nil
}

// qerrsOf evaluates an estimate function over a labeled workload.
func qerrsOf(labeled []workload.LabeledQuery, est func(db.Query) (float64, error)) ([]float64, error) {
	out := make([]float64, 0, len(labeled))
	for _, lq := range labeled {
		v, err := est(lq.Query)
		if err != nil {
			return nil, err
		}
		out = append(out, metrics.QError(v, float64(lq.Card)))
	}
	return out, nil
}

// baselines constructs the two traditional estimators with the sketch's
// sample size.
func (c *ctx) baselines() (*estimator.Hyper, *estimator.Postgres, error) {
	h, err := estimator.NewHyper(c.db(), c.sc.samples, c.seed)
	if err != nil {
		return nil, nil, err
	}
	return h, estimator.NewPostgres(c.db(), estimator.PostgresOptions{}), nil
}
