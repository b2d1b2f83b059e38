// Command deepsketch is the CLI for building, inspecting, and querying Deep
// Sketches on the synthetic IMDb and TPC-H datasets.
//
//	deepsketch build    -db imdb -out imdb.dsk -queries 10000 -epochs 25
//	deepsketch info     -sketch imdb.dsk
//	deepsketch query    -sketch imdb.dsk -sql "SELECT COUNT(*) FROM title t WHERE t.production_year>2010" -truth
//	deepsketch template -sketch imdb.dsk -sql "... AND t.production_year=?" -group distinct
//	deepsketch eval     -sketch imdb.dsk -workload joblight
//	deepsketch refresh  -sketch imdb.dsk -out imdb-v2.dsk -queries 2000 -epochs 5
//	deepsketch canary   -sketch imdb.dsk -candidate imdb-v2.dsk -fraction 0.1 -gate
//
// Datasets are generated deterministically from -seed, so "the database"
// referenced by -truth/-eval is reproducible without storing it.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"
	"time"

	"deepsketch"
	"deepsketch/internal/metrics"
	"deepsketch/internal/trainmon"
)

func main() {
	if len(os.Args) < 2 {
		usage()
		os.Exit(2)
	}
	var err error
	switch os.Args[1] {
	case "build":
		err = cmdBuild(os.Args[2:])
	case "info":
		err = cmdInfo(os.Args[2:])
	case "query":
		err = cmdQuery(os.Args[2:])
	case "template":
		err = cmdTemplate(os.Args[2:])
	case "eval":
		err = cmdEval(os.Args[2:])
	case "refresh":
		err = cmdRefresh(os.Args[2:])
	case "canary":
		err = cmdCanary(os.Args[2:])
	case "workload":
		err = cmdWorkload(os.Args[2:])
	case "-h", "--help", "help":
		usage()
	default:
		fmt.Fprintf(os.Stderr, "deepsketch: unknown command %q\n\n", os.Args[1])
		usage()
		os.Exit(2)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "deepsketch:", err)
		os.Exit(1)
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, `usage: deepsketch <command> [flags]

commands:
  build     create a Deep Sketch over a generated dataset
  info      show a sketch's metadata, footprint and training record
  query     estimate a SQL query with a sketch (optionally vs. baselines)
  template  estimate a template query (SQL with one ? placeholder)
  eval      evaluate a sketch against baselines on a workload
  refresh   warm-start retrain a sketch on a drift-delta workload
  canary    judge a candidate sketch against the live one on a hash-split workload
  workload  generate + execute a labeled workload file (artifact CSV format)

run "deepsketch <command> -h" for command flags`)
}

// dbFlags declares the shared dataset flags on a FlagSet.
type dbFlags struct {
	kind   *string
	seed   *int64
	titles *int
	orders *int
}

func addDBFlags(fs *flag.FlagSet) dbFlags {
	return dbFlags{
		kind:   fs.String("db", "imdb", "dataset: imdb or tpch"),
		seed:   fs.Int64("dbseed", 1, "dataset generation seed"),
		titles: fs.Int("titles", 20000, "imdb: number of titles"),
		orders: fs.Int("orders", 15000, "tpch: number of orders"),
	}
}

func (f dbFlags) make() (*deepsketch.DB, error) {
	switch *f.kind {
	case "imdb":
		return deepsketch.NewIMDb(deepsketch.IMDbConfig{Seed: *f.seed, Titles: *f.titles}), nil
	case "tpch":
		return deepsketch.NewTPCH(deepsketch.TPCHConfig{Seed: *f.seed, Orders: *f.orders}), nil
	default:
		return nil, fmt.Errorf("unknown dataset %q (want imdb or tpch)", *f.kind)
	}
}

func cmdBuild(args []string) error {
	fs := flag.NewFlagSet("build", flag.ExitOnError)
	dbf := addDBFlags(fs)
	out := fs.String("out", "sketch.dsk", "output sketch file")
	name := fs.String("name", "", "sketch name (default: dataset name)")
	tables := fs.String("tables", "", "comma-separated table subset (default: all)")
	samples := fs.Int("samples", 1000, "materialized sample tuples per table")
	queries := fs.Int("queries", 10000, "number of training queries")
	maxJoins := fs.Int("maxjoins", 0, "max joins per training query (0 = auto)")
	epochs := fs.Int("epochs", 25, "training epochs")
	hidden := fs.Int("hidden", 64, "MSCN hidden units")
	batch := fs.Int("batch", 64, "mini-batch size")
	lr := fs.Float64("lr", 1e-3, "learning rate")
	loss := fs.String("loss", "qerror", "training loss: qerror or l1log")
	workers := fs.Int("workers", 0, "workers for query execution and training (0 = GOMAXPROCS); the sketch file is the same at any count")
	seed := fs.Int64("seed", 1, "sketch seed (query gen, sampling, training)")
	fromWorkload := fs.String("fromworkload", "", "train from a labeled workload file instead of generating queries")
	quiet := fs.Bool("q", false, "suppress progress output")
	if err := fs.Parse(args); err != nil {
		return err
	}
	d, err := dbf.make()
	if err != nil {
		return err
	}
	mcfg := deepsketch.DefaultModelConfig()
	mcfg.HiddenUnits = *hidden
	mcfg.Epochs = *epochs
	mcfg.BatchSize = *batch
	mcfg.LearningRate = *lr
	mcfg.Seed = *seed
	switch *loss {
	case "qerror":
		mcfg.Loss = deepsketch.LossQError
	case "l1log":
		mcfg.Loss = deepsketch.LossL1Log
	default:
		return fmt.Errorf("unknown loss %q", *loss)
	}
	cfg := deepsketch.Config{
		Name: *name, SampleSize: *samples, TrainQueries: *queries,
		MaxJoins: *maxJoins, Workers: *workers, Seed: *seed, Model: mcfg,
	}
	if *tables != "" {
		cfg.Tables = strings.Split(*tables, ",")
	}
	mon := deepsketch.NewMonitor()
	if !*quiet {
		mon.AddSink(func(e trainmon.Event) {
			switch e.Kind {
			case trainmon.KindStageStart:
				fmt.Printf("stage %-10s %s\n", e.Stage, e.Msg)
			case trainmon.KindStageEnd:
				fmt.Printf("stage %-10s done in %v\n", e.Stage, e.Elapsed)
			case trainmon.KindEpoch:
				fmt.Printf("  epoch %3d  train-loss %10.3f  val mean-q %8.2f  median-q %6.2f\n",
					e.Epoch, e.TrainLoss, e.ValMeanQ, e.ValMedQ)
			}
		})
	}
	var s *deepsketch.Sketch
	if *fromWorkload != "" {
		labeled, err := deepsketch.ReadWorkloadFile(d, *fromWorkload)
		if err != nil {
			return err
		}
		s, err = deepsketch.BuildWithWorkload(d, cfg, labeled, mon)
		if err != nil {
			return err
		}
	} else {
		s, err = deepsketch.Build(d, cfg, mon)
		if err != nil {
			return err
		}
	}
	if err := deepsketch.SaveFile(s, *out); err != nil {
		return err
	}
	fb, err := s.Footprint()
	if err != nil {
		return err
	}
	fmt.Printf("sketch %q written to %s (%.2f MiB: weights %.2f, samples %.2f)\n",
		s.Name(), *out, mib(fb.Total), mib(fb.Weights), mib(fb.Samples))
	return nil
}

func mib(b int64) float64 { return float64(b) / (1 << 20) }

func cmdInfo(args []string) error {
	fs := flag.NewFlagSet("info", flag.ExitOnError)
	path := fs.String("sketch", "sketch.dsk", "sketch file")
	if err := fs.Parse(args); err != nil {
		return err
	}
	s, err := deepsketch.LoadFile(*path)
	if err != nil {
		return err
	}
	fb, err := s.Footprint()
	if err != nil {
		return err
	}
	fmt.Printf("name:          %s\n", s.Name())
	fmt.Printf("database:      %s\n", s.DBName)
	fmt.Printf("tables:        %s\n", strings.Join(s.Cfg.Tables, ", "))
	fmt.Printf("samples/table: %d\n", s.Cfg.SampleSize)
	fmt.Printf("train queries: %d\n", s.Cfg.TrainQueries)
	fmt.Printf("model:         %d hidden units, %d params, loss=%s\n",
		s.Model.Cfg.HiddenUnits, s.Model.NumParams(), s.Model.Cfg.Loss)
	fmt.Printf("footprint:     %.2f MiB (header %.2f, weights %.2f, samples %.2f)\n",
		mib(fb.Total), mib(fb.Header), mib(fb.Weights), mib(fb.Samples))
	if len(s.Epochs) > 0 {
		vals := make([]float64, len(s.Epochs))
		for i, e := range s.Epochs {
			vals[i] = e.ValMeanQ
		}
		last := s.Epochs[len(s.Epochs)-1]
		fmt.Printf("training:      %d epochs, final val mean-q %.2f median-q %.2f\n",
			len(s.Epochs), last.ValMeanQ, last.ValMedQ)
		fmt.Printf("val mean-q:    %s\n", trainmon.Sparkline(vals))
	}
	return nil
}

func cmdQuery(args []string) error {
	fs := flag.NewFlagSet("query", flag.ExitOnError)
	dbf := addDBFlags(fs)
	path := fs.String("sketch", "sketch.dsk", "sketch file")
	sql := fs.String("sql", "", "SQL query (COUNT(*), joins + predicates)")
	truth := fs.Bool("truth", false, "also compute true cardinality and baselines (regenerates the dataset)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *sql == "" {
		return fmt.Errorf("-sql is required")
	}
	s, err := deepsketch.LoadFile(*path)
	if err != nil {
		return err
	}
	ctx := context.Background()
	est, err := s.EstimateSQL(ctx, *sql)
	if err != nil {
		return err
	}
	fmt.Printf("%-16s %14.1f   (%v)\n", "Deep Sketch", est.Cardinality, est.Latency.Round(time.Microsecond))
	if !*truth {
		return nil
	}
	d, err := dbf.make()
	if err != nil {
		return err
	}
	q, err := deepsketch.ParseSQL(d, *sql)
	if err != nil {
		return err
	}
	tc, err := deepsketch.TrueCardinality(d, q)
	if err != nil {
		return err
	}
	hyper, err := deepsketch.HyperEstimator(d, s.Cfg.SampleSize, s.Cfg.Seed)
	if err != nil {
		return err
	}
	pg := deepsketch.PostgresEstimator(d)
	he, err := hyper.Estimate(ctx, q)
	if err != nil {
		return err
	}
	pe, err := pg.Estimate(ctx, q)
	if err != nil {
		return err
	}
	fmt.Printf("%-16s %14.1f   (q-error %.2f)\n", "HyPer", he.Cardinality, deepsketch.QError(he.Cardinality, float64(tc)))
	fmt.Printf("%-16s %14.1f   (q-error %.2f)\n", "PostgreSQL", pe.Cardinality, deepsketch.QError(pe.Cardinality, float64(tc)))
	fmt.Printf("%-16s %14d\n", "True", tc)
	fmt.Printf("%-16s %14s   (q-error %.2f)\n", "", "", deepsketch.QError(est.Cardinality, float64(tc)))
	return nil
}

func cmdTemplate(args []string) error {
	fs := flag.NewFlagSet("template", flag.ExitOnError)
	dbf := addDBFlags(fs)
	path := fs.String("sketch", "sketch.dsk", "sketch file")
	sql := fs.String("sql", "", "SQL with one ? placeholder")
	group := fs.String("group", "distinct", "grouping: distinct or buckets")
	buckets := fs.Int("buckets", 20, "bucket count for -group buckets")
	truth := fs.Bool("truth", false, "overlay true cardinalities (regenerates the dataset)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *sql == "" {
		return fmt.Errorf("-sql is required")
	}
	s, err := deepsketch.LoadFile(*path)
	if err != nil {
		return err
	}
	var g deepsketch.Grouping
	switch *group {
	case "distinct":
		g = deepsketch.GroupDistinct
	case "buckets":
		g = deepsketch.GroupBuckets
	default:
		return fmt.Errorf("unknown grouping %q", *group)
	}
	res, err := s.EstimateTemplateSQL(context.Background(), *sql, g, *buckets)
	if err != nil {
		return err
	}
	var truths map[string]int64
	if *truth {
		d, err := dbf.make()
		if err != nil {
			return err
		}
		truths = make(map[string]int64, len(res))
		for _, r := range res {
			tc, err := deepsketch.TrueCardinality(d, r.Query)
			if err != nil {
				return err
			}
			truths[r.Label] = tc
		}
	}
	maxEst := 1.0
	for _, r := range res {
		if r.Estimate > maxEst {
			maxEst = r.Estimate
		}
	}
	fmt.Printf("%-12s %12s", "value", "estimate")
	if truths != nil {
		fmt.Printf(" %12s %8s", "true", "q-err")
	}
	fmt.Println("  chart (estimate)")
	for _, r := range res {
		bar := strings.Repeat("█", int(r.Estimate/maxEst*40))
		fmt.Printf("%-12s %12.1f", r.Label, r.Estimate)
		if truths != nil {
			tc := truths[r.Label]
			fmt.Printf(" %12d %8.2f", tc, deepsketch.QError(r.Estimate, float64(tc)))
		}
		fmt.Printf("  %s\n", bar)
	}
	return nil
}

// cmdRefresh is the offline half of the sketch lifecycle: load a sketch,
// fine-tune it on a drift-delta workload with a warm-started optimizer
// (the Adam state persisted in v2 sketch files), and write the refreshed
// sketch — ready to upload-and-swap into a running deepsketchd.
func cmdRefresh(args []string) error {
	fs := flag.NewFlagSet("refresh", flag.ExitOnError)
	dbf := addDBFlags(fs)
	path := fs.String("sketch", "sketch.dsk", "sketch file to refresh")
	out := fs.String("out", "", "output file (default: overwrite -sketch)")
	queries := fs.Int("queries", 2000, "delta workload size (generated fresh)")
	seed := fs.Int64("seed", 99, "delta workload generation seed")
	epochs := fs.Int("epochs", 0, "fine-tune epoch cap (0 = the sketch's build epochs)")
	stopq := fs.Float64("stopq", 0, "stop early at this validation mean q-error (0 = off)")
	workers := fs.Int("workers", 0, "labeling/training workers (0 = GOMAXPROCS)")
	fromWorkload := fs.String("fromworkload", "", "labeled delta workload file instead of generating one")
	quiet := fs.Bool("q", false, "suppress progress output")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *out == "" {
		*out = *path
	}
	s, err := deepsketch.LoadFile(*path)
	if err != nil {
		return err
	}
	d, err := dbf.make()
	if err != nil {
		return err
	}
	if d.Name != s.DBName {
		return fmt.Errorf("sketch was built on dataset %q, -db is %q", s.DBName, *dbf.kind)
	}
	var labeled []deepsketch.LabeledQuery
	if *fromWorkload != "" {
		labeled, err = deepsketch.ReadWorkloadFile(d, *fromWorkload)
		if err != nil {
			return err
		}
	} else {
		qs, err := deepsketch.GenerateWorkload(d, deepsketch.GenConfig{
			Seed: *seed, Count: *queries, Tables: s.Cfg.Tables,
			MaxJoins: s.Cfg.MaxJoins, MaxPreds: s.Cfg.MaxPreds, Dedup: true,
		})
		if err != nil {
			return err
		}
		labeled, err = deepsketch.LabelWorkload(d, qs, *workers)
		if err != nil {
			return err
		}
	}
	mon := deepsketch.NewMonitor()
	if !*quiet {
		mon.AddSink(func(e trainmon.Event) {
			switch e.Kind {
			case trainmon.KindStageStart:
				fmt.Printf("stage %-10s %s\n", e.Stage, e.Msg)
			case trainmon.KindStageEnd:
				fmt.Printf("stage %-10s done in %v\n", e.Stage, e.Elapsed)
			case trainmon.KindEpoch:
				fmt.Printf("  epoch %3d  train-loss %10.3f  val mean-q %8.2f  median-q %6.2f\n",
					e.Epoch, e.TrainLoss, e.ValMeanQ, e.ValMedQ)
			}
		})
	}
	baseEpochs := len(s.Epochs)
	ns, err := deepsketch.Refresh(context.Background(), s, labeled, deepsketch.RefreshOptions{
		Epochs: *epochs, StopAtValQ: *stopq, Workers: *workers,
	}, mon)
	if err != nil {
		return err
	}
	// The default -out overwrites the input sketch; SaveFile replaces it
	// atomically, so a crash mid-save cannot destroy the only copy.
	if err := deepsketch.SaveFile(ns, *out); err != nil {
		return err
	}
	tuned := len(ns.Epochs) - baseEpochs
	last := ns.Epochs[len(ns.Epochs)-1]
	fmt.Printf("sketch %q refreshed on %d delta queries in %d epochs (val mean-q %.2f), written to %s\n",
		ns.Name(), len(labeled), tuned, last.ValMeanQ, *out)
	return nil
}

func cmdEval(args []string) error {
	fs := flag.NewFlagSet("eval", flag.ExitOnError)
	dbf := addDBFlags(fs)
	path := fs.String("sketch", "sketch.dsk", "sketch file")
	wl := fs.String("workload", "joblight", "workload: joblight or uniform")
	count := fs.Int("count", 200, "uniform workload size")
	seed := fs.Int64("seed", 42, "workload seed")
	if err := fs.Parse(args); err != nil {
		return err
	}
	s, err := deepsketch.LoadFile(*path)
	if err != nil {
		return err
	}
	d, err := dbf.make()
	if err != nil {
		return err
	}
	var qs []deepsketch.Query
	switch *wl {
	case "joblight":
		qs, err = deepsketch.JOBLight(d, *seed)
	case "uniform":
		qs, err = deepsketch.GenerateWorkload(d, deepsketch.GenConfig{
			Seed: *seed, Count: *count, Tables: s.Cfg.Tables,
			MaxJoins: s.Cfg.MaxJoins, MaxPreds: s.Cfg.MaxPreds, Dedup: true,
		})
	default:
		err = fmt.Errorf("unknown workload %q", *wl)
	}
	if err != nil {
		return err
	}
	labeled, err := deepsketch.LabelWorkload(d, qs, 0)
	if err != nil {
		return err
	}
	hyper, err := deepsketch.HyperEstimator(d, s.Cfg.SampleSize, s.Cfg.Seed)
	if err != nil {
		return err
	}
	// The sketch is estimated once: its q-errors give both its report row
	// and the worst queries.
	ctx := context.Background()
	qerrs, err := qErrors(ctx, s, labeled)
	if err != nil {
		return fmt.Errorf("deepsketch: %s failed: %w", s.Name(), err)
	}
	baselines, err := deepsketch.Compare(ctx, labeled, []deepsketch.Estimator{
		hyper, deepsketch.PostgresEstimator(d),
	})
	if err != nil {
		return err
	}
	rows := append([]deepsketch.ReportRow{{Name: s.Name(), Summary: metrics.Summarize(qerrs)}}, baselines...)
	fmt.Printf("Estimation errors (q-errors) on %s (%d queries):\n\n", *wl, len(labeled))
	fmt.Print(deepsketch.FormatReport(rows))
	// Also list the worst sketch queries to aid debugging.
	worst := make([]int, len(labeled))
	for i := range worst {
		worst[i] = i
	}
	sort.Slice(worst, func(i, j int) bool { return qerrs[worst[i]] > qerrs[worst[j]] })
	fmt.Println("\nworst Deep Sketch queries:")
	for _, i := range worst[:min(3, len(worst))] {
		fmt.Printf("  q-err %8.1f  %s\n", qerrs[i], labeled[i].Query.SQL(d))
	}
	return nil
}

// qErrors estimates every labeled query with s in one batch and returns
// each query's q-error.
func qErrors(ctx context.Context, s *deepsketch.Sketch, labeled []deepsketch.LabeledQuery) ([]float64, error) {
	qs := make([]deepsketch.Query, len(labeled))
	for i, lq := range labeled {
		qs[i] = lq.Query
	}
	cards, err := s.BatchCardinalities(ctx, qs)
	if err != nil {
		return nil, err
	}
	qerrs := make([]float64, len(cards))
	for i, c := range cards {
		qerrs[i] = deepsketch.QError(c, float64(labeled[i].Card))
	}
	return qerrs, nil
}
