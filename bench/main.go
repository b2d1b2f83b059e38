// Command bench is the repository's benchmark. It compiles
// ./cmd/deepsketchd, runs it as a subprocess and drives it over loopback
// HTTP from at most two keep-alive connections, closed loop. A run sets the
// whole system up three times from nothing (fresh daemon, freshly built and
// refreshed sketch), measures one workload each time, recomputes a sample
// of the served answers in-process, and reports the median of the three
// rounds for every end-to-end metric. With -trace 1 it instead reports the
// per-layer ladder: every layer of the serving and training paths timed
// from outside, by calling its exported functions on the workload's own
// queries. BENCHMARK.json at the repository root is the contract; see
// README.md in this directory for the workloads, the metrics and which
// metric each layer should move.
//
//	go run ./bench -workload http_cold -seed 1 -seconds 9 -trace 0
//	go run ./bench                 # all five workloads
//	go run ./bench -aa             # all five, twice, compared against the bounds
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"runtime"
	"strings"
	"syscall"
	"time"
)

// defaultSeconds is BENCHMARK.json's run_seconds: the timed seconds of one
// run, split evenly over its rounds.
const defaultSeconds = 9

func main() {
	workload := flag.String("workload", "", "workload to run (empty = all five, one after another)")
	seed := flag.Int64("seed", 1, "seed the workload's queries are generated from")
	seconds := flag.Int("seconds", defaultSeconds, "timed seconds per run, split over the rounds")
	trace := flag.Int("trace", 0, "1 = traced run: print the per-layer metrics instead of the end-to-end ones")
	aa := flag.Bool("aa", false, "run the suite twice on one build and compare the two against the bounds in BENCHMARK.json")
	flag.Parse()

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	err := run(ctx, *workload, *seed, *seconds, *trace == 1, *aa)
	stop()
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

// errFailedOperations is returned after the result has been printed, when
// the result itself says operations failed.
var errFailedOperations = errors.New("operations failed or answers were wrong; see the errors above")

func run(ctx context.Context, workload string, seed int64, seconds int, trace, aa bool) (err error) {
	if flag.NArg() > 0 {
		return fmt.Errorf("unexpected arguments %q", flag.Args())
	}
	if seconds < 1 {
		return fmt.Errorf("-seconds must be at least 1")
	}
	var specs []workloadSpec
	if workload == "" {
		specs = workloads
	} else {
		w, ok := findWorkload(workload)
		if !ok {
			return fmt.Errorf("unknown workload %q", workload)
		}
		specs = []workloadSpec{w}
	}

	// Everything the benchmark writes lives under bench/out in the checkout.
	out, err := filepath.Abs(filepath.Join("bench", "out"))
	if err != nil {
		return err
	}
	if err := os.MkdirAll(out, 0o755); err != nil {
		return err
	}
	dir, err := os.MkdirTemp(out, "run-")
	if err != nil {
		return err
	}
	defer func() { err = errors.Join(err, os.RemoveAll(dir)) }()
	bin, compile, err := buildDaemon(ctx, dir)
	if err != nil {
		return err
	}
	e := &env{bin: bin, dir: dir, compileS: compile.Seconds(), conns: maxConnections(), out: os.Stdout}

	switch {
	case aa:
		return runAA(ctx, e, specs, seed, seconds)
	case trace:
		for _, w := range specs {
			if err := runTraced(ctx, e, w, seed, seconds); err != nil {
				return err
			}
		}
		return nil
	}
	failed := false
	for _, w := range specs {
		res, err := runWorkload(ctx, e, w, seed, seconds)
		if err != nil {
			return err
		}
		res.seal(endToEnd)
		res.print(e.out, endToEnd)
		failed = failed || !res.Correct
	}
	if failed {
		return errFailedOperations
	}
	return nil
}

// header prints where a result comes from, so that two outputs can be
// compared without guessing.
func header(out io.Writer, e *env, w workloadSpec, seed int64, seconds int, trace bool) {
	t, flags := 0, "defaults"
	if trace {
		t = 1
	}
	if w.feedbackDaemon {
		flags += " + -wal <tmp> -drift-truth=false -actuals-per-min 0"
	}
	fmt.Fprintf(out, "deepsketch bench · workload %s · seed %d · seconds %d · trace %d\n", w.name, seed, seconds, t)
	fmt.Fprintf(out, "%s %s/%s · nproc %d · GOMAXPROCS %d · commit %s\n",
		runtime.Version(), runtime.GOOS, runtime.GOARCH, runtime.NumCPU(), runtime.GOMAXPROCS(0), gitCommit())
	fmt.Fprintf(out, "fixture: imdb titles=%d dbseed=%d · sketch %q sample_size=%d hidden_units=%d train_queries=%d epochs=%d seed=%d · refresh queries=%d · daemon flags: %s\n",
		fixtureTitles, fixtureDBSeed, sketchName, sketchSampleSize, sketchHiddenUnits, sketchTrainQueries, sketchEpochs, sketchSeed, refreshQueries, flags)
	fmt.Fprintf(out, "why: %s\n", w.why)
	fmt.Fprintf(out, "daemon compiled in %.2fs (not part of setup_s)\n", e.compileS)
}

// gitCommit names the checkout's commit, or says that there is none: the
// benchmark also runs from exported trees.
func gitCommit() string {
	out, err := exec.Command("git", "rev-parse", "--short", "HEAD").Output()
	if err != nil {
		return "unknown (not a git checkout)"
	}
	return strings.TrimSpace(string(out))
}

// runResult is one run: the median of its rounds for every metric, and the
// operation counts of all rounds together.
type runResult struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`

	values map[string]float64
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// seal fixes the result's metrics: the values of defs, with their units.
func (r *runResult) seal(defs []metricDef) {
	r.Metrics = map[string]metricValue{}
	for _, m := range defs {
		r.Metrics[m.name] = metricValue{Value: r.values[m.name], Unit: m.unit}
	}
}

// print writes the sealed metrics by name with their units, then the
// contract's one-line JSON object as the last line.
func (r *runResult) print(out io.Writer, defs []metricDef) {
	for _, m := range defs {
		fmt.Fprintf(out, "  %-36s %14.6g %s\n", m.name, r.Metrics[m.name].Value, m.unit)
	}
	blob, err := json.Marshal(r)
	if err != nil {
		// Only a NaN or an infinity can fail here; both mean a broken run.
		fmt.Fprintln(out, "bench: encoding the result:", err)
		return
	}
	fmt.Fprintf(out, "%s\n", blob)
}

// runWorkload is one untraced run of one workload.
func runWorkload(ctx context.Context, e *env, w workloadSpec, seed int64, seconds int) (*runResult, error) {
	header(e.out, e, w, seed, seconds, false)
	per := time.Duration(float64(seconds) / rounds * float64(time.Second))
	fmt.Fprintf(e.out, "plan: %d rounds × (fresh daemon, build, %.1fs warm-up, %.2fs timed), closed loop, %d connections\n",
		rounds, warmupSeconds, per.Seconds(), e.conns)
	qs, err := newWorkloadQueries(w, seed)
	if err != nil {
		return nil, err
	}
	res := &runResult{values: map[string]float64{}}
	perRound := map[string][]float64{}
	var all []*roundResult
	var pooled, pooledActual []float64
	for round := 1; round <= rounds; round++ {
		rr, err := runRound(ctx, e, w, qs, per, 0, round)
		if err != nil {
			return nil, fmt.Errorf("%s round %d: %w", w.name, round, err)
		}
		all = append(all, rr)
		res.Attempted += rr.attempted
		res.Failed += rr.failed
		for _, err := range rr.errs {
			fmt.Fprintf(e.out, "  FAILED: %v\n", err)
		}
		for name, v := range rr.values {
			perRound[name] = append(perRound[name], v)
		}
		pooled = append(pooled, rr.latencyUS...)
		pooledActual = append(pooledActual, rr.actualUS...)
	}
	// The machine's speed wanders from second to second, so a run reports
	// the median of its rounds' values, not a statistic of their pooled
	// samples. The pooled tails are shown but belong to no metric.
	for name, vs := range perRound {
		res.values[name] = median(vs)
	}
	fmt.Fprintf(e.out, "  latency us, rounds pooled, %s\n", ladder(pooled))
	if len(pooledActual) > 0 {
		fmt.Fprintf(e.out, "  actuals us, rounds pooled, %s\n", ladder(pooledActual))
	}
	res.Correct = res.Failed == 0
	printInfo(e.out, w, all)
	fmt.Fprintf(e.out, "%s · median of %d rounds · attempted %d · failed %d\n", w.name, rounds, res.Attempted, res.Failed)
	return res, nil
}

// printInfo reports what the run saw beside the contract's metrics: sample
// counts, the cache hit ratio the replies carried, and the workload's own
// secondary timings.
func printInfo(out io.Writer, w workloadSpec, all []*roundResult) {
	pick := func(f func(*roundResult) float64) float64 {
		vs := make([]float64, len(all))
		for i, r := range all {
			vs[i] = f(r)
		}
		return median(vs)
	}
	fmt.Fprintf(out, "  per round: %.0f latency samples · cache hit ratio %.4f · %.1f estimates per request · daemon CPU %.2f cores · generator CPU %.2f cores\n",
		pick(func(r *roundResult) float64 { return float64(len(r.latencyUS)) }),
		pick(func(r *roundResult) float64 { return r.hitRatio }),
		pick(func(r *roundResult) float64 { return r.estimatesPerRequest }),
		pick(func(r *roundResult) float64 { return r.daemonCPUS / r.elapsedS }),
		pick(func(r *roundResult) float64 { return r.loadCPUS / r.elapsedS }))
	switch w.kind {
	case kindFeedback:
		fmt.Fprintf(out, "  actuals: %.0f samples per round · matched %.3f · WAL %.1f B/record, %.2f syncs per 1000 appends\n",
			pick(func(r *roundResult) float64 { return float64(len(r.actualUS)) }),
			pick(func(r *roundResult) float64 { return r.matchedShare }),
			pick(func(r *roundResult) float64 { return float64(r.walBytes) / float64(r.walAppends) }),
			pick(func(r *roundResult) float64 { return 1000 * float64(r.walSyncs) / float64(r.walAppends) }))
	case kindRefresh:
		fmt.Fprintf(out, "  refreshes under load: %.0f per round · mean %.2f s\n",
			pick(func(r *roundResult) float64 { return float64(len(r.phaseRefreshS)) }),
			pick(func(r *roundResult) float64 { return mean(r.phaseRefreshS) }))
	}
}

// ladder renders every standard percentile the sample supports.
func ladder(xs []float64) string {
	sorted := sortedCopy(xs)
	var b strings.Builder
	fmt.Fprintf(&b, "n=%d:", len(sorted))
	for _, p := range []float64{0.50, 0.90, 0.95, 0.99, 0.999} {
		if v, ok := percentile(sorted, p); ok {
			fmt.Fprintf(&b, " p%g %.1f", p*100, v)
		}
	}
	return b.String()
}
