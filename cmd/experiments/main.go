// Command experiments is the one implementation of the paper's evaluation,
// mapped to this reproduction's synthetic substrate, and it says whether
// each claim reproduced:
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
// (-h prints this list from the experiments table.) Every experiment prints
// its tables and then one verdict line per claim, computed from the numbers
// above it: "<claim> — holds (3.15 vs 24.2)" or "<claim> — NOT reproduced at
// this scale (…)". A claim is a gate at both scales, at paper scale only, or
// never (wall-clock and marginal claims, and those the synthetic data does
// not reproduce); the exit status is 1 when a claim that is a gate at the
// run's scale does not hold.
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
	"io"
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

// experiment is one row of the evaluation: the paper artefact it
// regenerates and the function that prints it and returns its claims.
type experiment struct {
	name, artefact, what string
	fn                   func(*ctx) ([]claim, error)
}

var experiments = []experiment{
	{"table1", "Table 1", "q-errors on JOB-light: Deep Sketch vs HyPer vs PostgreSQL", runTable1},
	{"fig1a", "Figure 1a", "creation pipeline stage costs; training time scaling", runFig1a},
	{"fig1b", "Figure 1b", "estimation latency and sketch footprint", runFig1b},
	{"fig2", "Figure 2", "keyword-over-years template with overlays", runFig2},
	{"zerotuple", "§2 claim", "0-tuple robustness vs sampling's educated guess", runZeroTuple},
	{"trainsize", "§3 claim", "q-error vs number of training queries", runTrainSize},
	{"epochs", "§3 claim", "validation q-error vs training epochs", runEpochs},
	{"ablation", "§2 design", "MSCN with vs without sample bitmaps", runAblation},
	{"tpch", "demo scope", "sketch quality on the TPC-H-like dataset", runTPCH},
	{"samplesize", "extension", "q-error vs sample size (bitmap width) curve", runSampleSize},
	{"optimizer", "extension", "plan quality when estimates drive a DP join enumerator", runOptimizer},
	{"loss", "extension", "mean q-error vs L1-log training objective", runLossAblation},
}

// String is the experiment's line in -h and in the package comment.
func (e experiment) String() string {
	return fmt.Sprintf("%-10s %-10s — %s", e.name, e.artefact, e.what)
}

// gate is the scale at which a claim that does not hold fails the run.
type gate int

const (
	gateNever gate = iota // reported only: wall-clock, marginal, or not reproduced on the synthetic data
	gatePaper             // paper scale only: false or marginal at -fast
	gateBoth              // -fast and paper scale: the tier-1 gates
)

// claim is one sentence of the paper's evaluation, or of this repo's
// extrapolation from it, checked against the numbers an experiment computed.
type claim struct {
	text  string
	holds bool
	got   string // the numbers compared, e.g. "3.15 vs 24.2"
	gate  gate
}

// atMost claims got ≤ factor × ref for every ref.
func atMost(g gate, text string, got, factor float64, refs ...float64) claim {
	cl := claim{text: text, holds: true, gate: g}
	vs := make([]string, len(refs))
	for i, ref := range refs {
		cl.holds = cl.holds && got <= factor*ref
		vs[i] = metrics.Sig3(ref)
	}
	cl.got = metrics.Sig3(got) + " vs " + strings.Join(vs, " / ")
	return cl
}

// report prints one verdict line per claim and returns how many claims that
// are gates at this scale do not hold.
func report(w io.Writer, claims []claim, fast bool) (failed int) {
	for _, cl := range claims {
		verdict := "holds"
		if !cl.holds {
			verdict = "NOT reproduced at this scale"
			if cl.gate == gateBoth || cl.gate == gatePaper && !fast {
				verdict += ", where it is a gate"
				failed++
			}
		}
		fmt.Fprintf(w, "shape check: %s — %s (%s)\n", cl.text, verdict, cl.got)
	}
	return failed
}

func main() {
	run := flag.String("run", "all", "comma-separated experiment list or 'all'")
	fast := flag.Bool("fast", false, "reduced scale (smaller data, fewer queries/epochs)")
	titles := flag.Int("titles", 0, "override imdb scale (titles)")
	queries := flag.Int("queries", 0, "override training query count")
	epochs := flag.Int("epochs", 0, "override training epochs")
	hidden := flag.Int("hidden", 0, "override MSCN hidden units")
	samples := flag.Int("samples", 0, "override sample tuples per table")
	seed := flag.Int64("seed", 1, "experiment seed")
	flag.Usage = func() {
		w := flag.CommandLine.Output()
		fmt.Fprintln(w, "usage: experiments [flags]\n\nexperiments:")
		for _, e := range experiments {
			fmt.Fprintf(w, "  %s\n", e)
		}
		fmt.Fprintln(w, "\nflags:")
		flag.PrintDefaults()
	}
	flag.Parse()

	c := newCtx(os.Stdout, *fast, *titles, *queries, *epochs, *hidden, *samples, *seed)

	want := map[string]bool{}
	for _, n := range strings.Split(*run, ",") {
		want[strings.TrimSpace(n)] = true
	}
	known := map[string]bool{"all": true}
	for _, e := range experiments {
		known[e.name] = true
	}
	for n := range want {
		if !known[n] {
			fmt.Fprintf(os.Stderr, "experiments: unknown experiment %q\n", n)
			os.Exit(2)
		}
	}
	start := time.Now()
	failed := 0
	for _, e := range experiments {
		if !want[e.name] && !want["all"] {
			continue
		}
		fmt.Fprintf(c.out, "\n══ %s ═══════════════════════════════════════════════\n", e.name)
		t0 := time.Now()
		claims, err := e.fn(c)
		if err != nil {
			fmt.Fprintf(os.Stderr, "experiments: %s: %v\n", e.name, err)
			os.Exit(1)
		}
		fmt.Fprintln(c.out)
		failed += report(c.out, claims, *fast)
		fmt.Fprintf(c.out, "── %s done in %v\n", e.name, time.Since(t0).Round(time.Millisecond))
	}
	fmt.Fprintf(c.out, "\nall requested experiments finished in %v\n", time.Since(start).Round(time.Second))
	if failed > 0 {
		fmt.Fprintf(os.Stderr, "experiments: %d claim(s) that are gates at this scale were NOT reproduced\n", failed)
		os.Exit(1)
	}
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
	out  io.Writer // tables, progress and verdicts
	sc   scale
	seed int64

	imdb      *db.DB
	td        *core.TrainingData
	tdMon     *trainmon.Monitor // stages 1–4a, preparing td
	sketch    *core.Sketch
	sketchMon *trainmon.Monitor // stage 4b, training the main sketch
	joblight  []workload.LabeledQuery
}

func newCtx(out io.Writer, fast bool, titles, queries, epochs, hidden, samples int, seed int64) *ctx {
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
	return &ctx{out: out, sc: sc, seed: seed}
}

func (c *ctx) db() *db.DB {
	if c.imdb == nil {
		fmt.Fprintf(c.out, "generating synthetic IMDb (%d titles)... ", c.sc.titles)
		t0 := time.Now()
		c.imdb = datagen.IMDb(datagen.IMDbConfig{Seed: c.seed, Titles: c.sc.titles})
		fmt.Fprintf(c.out, "%d total rows in %v\n", c.imdb.TotalRows(), time.Since(t0).Round(time.Millisecond))
	}
	return c.imdb
}

func (c *ctx) sketchCfg() core.Config {
	return core.Config{
		Name:         "experiments",
		SampleSize:   c.sc.samples,
		TrainQueries: c.sc.queries,
		MaxJoins:     4, // JOB-light's query class
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
	fmt.Fprintf(c.out, "preparing training data (%d queries, %d samples/table)...\n", c.sc.queries, c.sc.samples)
	mon := trainmon.New()
	td, err := core.PrepareTrainingData(c.db(), c.sketchCfg(), mon)
	if err != nil {
		return nil, err
	}
	fmt.Fprintf(c.out, "  %s\n", trainmon.FormatStageTimes(mon.Snapshot().StageTimes))
	c.td, c.tdMon = td, mon
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
	fmt.Fprintf(c.out, "training main sketch (%d epochs, hidden %d)...\n", c.sc.epochs, c.sc.hidden)
	mon := trainmon.New()
	mon.AddSink(func(e trainmon.Event) {
		switch {
		case e.Kind == trainmon.KindTrainStart:
			fmt.Fprintf(c.out, "  %s\n", e.Msg)
		case e.Kind == trainmon.KindEpoch && (e.Epoch%5 == 0 || e.Epoch == 1):
			fmt.Fprintf(c.out, "  epoch %3d: val mean-q %8.2f median-q %6.2f\n", e.Epoch, e.ValMeanQ, e.ValMedQ)
		}
	})
	s, err := core.BuildFromData(td, mon)
	if err != nil {
		return nil, err
	}
	c.sketch, c.sketchMon = s, mon
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

// system is one named estimator in a comparison.
type system struct {
	name string
	est  func(db.Query) (float64, error)
}

// compare summarizes each system's q-errors over a labeled workload, one
// table row per system in the given order.
func compare(labeled []workload.LabeledQuery, systems []system) ([]metrics.Row, error) {
	rows := make([]metrics.Row, len(systems))
	for i, sys := range systems {
		qs, err := qerrsOf(labeled, sys.est)
		if err != nil {
			return nil, err
		}
		rows[i] = metrics.Row{Name: sys.name, Summary: metrics.Summarize(qs)}
	}
	return rows, nil
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
