// Benchmarks regenerating every table and figure of the paper at bench
// scale (cmd/experiments runs the full-scale versions and lists them in its
// package comment). Accuracy numbers are attached to benchmark results
// via ReportMetric (q-error statistics), so `go test -bench=.` doubles as a
// shape check:
//
//	BenchmarkTable1JOBLight        Table 1  — sketch vs baselines on JOB-light
//	BenchmarkSketchCreationStages  Fig. 1a  — the four-step creation pipeline
//	BenchmarkTrainingEpochScaling  Fig. 1a/§3 — linear epoch scaling
//	BenchmarkTrainingQueryScaling  Fig. 1a/§3 — linear training-set scaling
//	BenchmarkEstimateLatency       Fig. 1b  — milliseconds per estimate
//	BenchmarkSketchFootprint       Fig. 1b/§1 — serialized size
//	BenchmarkTemplateQuery         Fig. 2   — template instantiation + estimation
//	BenchmarkZeroTuple             §2 claim — 0-tuple robustness
//	BenchmarkAblationBitmaps       §2 design — bitmaps on/off
//	BenchmarkTPCHSketch            demo scope — TPC-H estimates
package deepsketch_test

import (
	"context"
	"io"
	"sync"
	"testing"

	"deepsketch"
	"deepsketch/internal/core"
	"deepsketch/internal/estimator"
	"deepsketch/internal/featurize"
	"deepsketch/internal/metrics"
	"deepsketch/internal/mscn"
	"deepsketch/internal/optimizer"
	"deepsketch/internal/trainmon"
	"deepsketch/internal/workload"
)

// Bench fixture: one shared small-scale database, training data, sketch and
// labeled JOB-light workload. Built once; benchmarks time the operations on
// top of it.
type benchFixture struct {
	d        *deepsketch.DB
	td       *core.TrainingData
	sketch   *core.Sketch
	joblight []workload.LabeledQuery
	hyper    *estimator.Hyper
	pg       *estimator.Postgres
}

var (
	benchOnce sync.Once
	bf        *benchFixture
	benchErr  error
)

func fixtureB(b testing.TB) *benchFixture {
	b.Helper()
	benchOnce.Do(func() {
		d := deepsketch.NewIMDb(deepsketch.IMDbConfig{Seed: 17, Titles: 4000})
		cfg := core.Config{
			Name: "bench", SampleSize: 256, TrainQueries: 2500, MaxJoins: 4, Seed: 17,
			Model: mscn.Config{HiddenUnits: 32, Epochs: 10, BatchSize: 128, Seed: 17},
		}
		mon := trainmon.New()
		td, err := core.PrepareTrainingData(d, cfg, mon)
		if err != nil {
			benchErr = err
			return
		}
		sk, err := core.BuildFromData(td, mon)
		if err != nil {
			benchErr = err
			return
		}
		qs, err := workload.JOBLight(d, 17)
		if err != nil {
			benchErr = err
			return
		}
		labeled, err := workload.Label(d, qs, 0, nil)
		if err != nil {
			benchErr = err
			return
		}
		hyper, err := estimator.NewHyperWithSamples(d, sk.Samples)
		if err != nil {
			benchErr = err
			return
		}
		bf = &benchFixture{
			d: d, td: td, sketch: sk, joblight: labeled,
			hyper: hyper, pg: estimator.NewPostgres(d, estimator.PostgresOptions{}),
		}
	})
	if benchErr != nil {
		b.Fatal(benchErr)
	}
	return bf
}

func reportSummary(b *testing.B, prefix string, s metrics.Summary) {
	b.Helper()
	b.ReportMetric(s.Median, prefix+"_median_q")
	b.ReportMetric(s.Mean, prefix+"_mean_q")
	b.ReportMetric(s.P95, prefix+"_p95_q")
	b.ReportMetric(s.Max, prefix+"_max_q")
}

// BenchmarkTable1JOBLight regenerates Table 1 at bench scale: the timed
// operation is the full 70-query JOB-light evaluation of the sketch, and
// the reported metrics are the q-error statistics for all three systems.
func BenchmarkTable1JOBLight(b *testing.B) {
	f := fixtureB(b)
	var sketchQ, hyperQ, pgQ []float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sketchQ = sketchQ[:0]
		for _, lq := range f.joblight {
			est, err := f.sketch.Cardinality(lq.Query)
			if err != nil {
				b.Fatal(err)
			}
			sketchQ = append(sketchQ, metrics.QError(est, float64(lq.Card)))
		}
	}
	b.StopTimer()
	for _, lq := range f.joblight {
		he, err := f.hyper.Cardinality(lq.Query)
		if err != nil {
			b.Fatal(err)
		}
		pe, err := f.pg.Cardinality(lq.Query)
		if err != nil {
			b.Fatal(err)
		}
		hyperQ = append(hyperQ, metrics.QError(he, float64(lq.Card)))
		pgQ = append(pgQ, metrics.QError(pe, float64(lq.Card)))
	}
	reportSummary(b, "sketch", metrics.Summarize(sketchQ))
	reportSummary(b, "hyper", metrics.Summarize(hyperQ))
	reportSummary(b, "pg", metrics.Summarize(pgQ))
}

// BenchmarkSketchCreationStages times the end-to-end four-step pipeline of
// Figure 1a on a small configuration.
func BenchmarkSketchCreationStages(b *testing.B) {
	d := deepsketch.NewIMDb(deepsketch.IMDbConfig{Seed: 3, Titles: 1500})
	cfg := core.Config{
		Name: "pipeline", SampleSize: 64, TrainQueries: 300, MaxJoins: 2, Seed: 3,
		Model: mscn.Config{HiddenUnits: 16, Epochs: 2, BatchSize: 64, Seed: 3},
	}
	b.ResetTimer()
	var last *core.Sketch
	for i := 0; i < b.N; i++ {
		s, err := core.Build(d, cfg, nil)
		if err != nil {
			b.Fatal(err)
		}
		last = s
	}
	b.StopTimer()
	for stage, ms := range last.StageMillis {
		b.ReportMetric(float64(ms), string(stage)+"_ms")
	}
}

// BenchmarkTrainingEpochScaling shows training cost is linear in epochs
// (paper §3: "the training time decreases linearly with fewer epochs").
func BenchmarkTrainingEpochScaling(b *testing.B) {
	f := fixtureB(b)
	for _, epochs := range []int{2, 4, 8} {
		b.Run(benchName("epochs", epochs), func(b *testing.B) {
			cfg := f.td.Cfg
			cfg.Model.Epochs = epochs
			for i := 0; i < b.N; i++ {
				td := *f.td
				td.Cfg = cfg
				if _, err := core.BuildFromData(&td, nil); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkTrainingQueryScaling shows training cost is linear in the
// training-set size.
func BenchmarkTrainingQueryScaling(b *testing.B) {
	f := fixtureB(b)
	for _, n := range []int{500, 1000, 2000} {
		b.Run(benchName("queries", n), func(b *testing.B) {
			if n > len(f.td.Examples) {
				b.Skipf("fixture has only %d examples", len(f.td.Examples))
			}
			cfg := f.td.Cfg
			cfg.Model.Epochs = 3
			for i := 0; i < b.N; i++ {
				td := *f.td
				td.Cfg = cfg
				td.Examples = f.td.Examples[:n]
				if _, err := core.BuildFromData(&td, nil); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkTrainEpoch measures one epoch of packed data-parallel MSCN
// training on the fixture's prepared training data (the JOB-light-class
// workload the sketch trains on), serial vs sharded across 4 workers —
// step 4b of Figure 1a, the stage the paper's minutes-scale creation claim
// hinges on. On a single-core box p=4 measures sharding overhead only; the
// cross-core speedup needs GOMAXPROCS ≥ 4.
func BenchmarkTrainEpoch(b *testing.B) {
	f := fixtureB(b)
	enc := f.td.Encoder
	cfg := f.td.Cfg.Model
	cfg.Epochs = 1
	for _, p := range []int{1, 4} {
		b.Run(benchName("p", p), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				m := mscn.New(cfg, enc.TableDim(), enc.JoinDim(), enc.PredDim())
				if _, err := m.TrainWithOptions(f.td.Examples, enc.Norm, nil,
					mscn.TrainOptions{Parallelism: p}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkEstimateLatency measures a single ad-hoc estimate (Figure 1b:
// "fast to query (within milliseconds)"). The loop cycles through JOB-light
// so caching cannot flatter the number. One sub-benchmark per inference
// engine precision, on a clone so the shared fixture stays f64.
func BenchmarkEstimateLatency(b *testing.B) {
	f := fixtureB(b)
	for _, eng := range []deepsketch.EnginePrecision{deepsketch.EngineF64, deepsketch.EngineF32} {
		sk := f.sketch.Clone()
		sk.SetEnginePrecision(eng)
		b.Run("engine="+eng.String(), func(b *testing.B) {
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				lq := f.joblight[i%len(f.joblight)]
				if _, err := sk.Cardinality(lq.Query); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkEstimateSQL includes SQL parsing against the embedded schema.
func BenchmarkEstimateSQL(b *testing.B) {
	f := fixtureB(b)
	sql := "SELECT COUNT(*) FROM title t, movie_keyword mk WHERE mk.movie_id=t.id AND t.production_year>2000"
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := f.sketch.EstimateSQL(context.Background(), sql); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSketchFootprint serializes the sketch and reports its size
// (Figure 1b / §1: "small footprint size (a few MiBs)").
func BenchmarkSketchFootprint(b *testing.B) {
	f := fixtureB(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := f.sketch.Save(io.Discard); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	fb, err := f.sketch.Footprint()
	if err != nil {
		b.Fatal(err)
	}
	b.ReportMetric(float64(fb.Total), "bytes_total")
	b.ReportMetric(float64(fb.Weights), "bytes_weights")
	b.ReportMetric(float64(fb.Samples), "bytes_samples")
}

// BenchmarkTemplateQuery times the demo's template flow (Figure 2): expand
// the placeholder from the column sample and estimate every instance.
func BenchmarkTemplateQuery(b *testing.B) {
	f := fixtureB(b)
	tpl, err := workload.YearTemplate(f.d, "artificial-intelligence")
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	var res []core.TemplateResult
	for i := 0; i < b.N; i++ {
		res, err = f.sketch.EstimateTemplate(context.Background(), tpl, workload.GroupBuckets, 14)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	var qs []float64
	for _, r := range res {
		truth, err := f.d.Count(r.Query)
		if err != nil {
			b.Fatal(err)
		}
		qs = append(qs, metrics.QError(r.Estimate, float64(truth)))
	}
	reportSummary(b, "series", metrics.Summarize(qs))
	b.ReportMetric(float64(len(res)), "instances")
}

// BenchmarkZeroTuple evaluates the §2 claim at bench scale: q-errors on
// mined 0-tuple queries for the sketch vs the sampling estimator's educated
// guess.
func BenchmarkZeroTuple(b *testing.B) {
	f := fixtureB(b)
	gen, err := workload.NewGenerator(f.d, workload.GenConfig{
		Seed: 99, Count: 1500, MaxJoins: 2, MaxPreds: 3, Dedup: true,
	})
	if err != nil {
		b.Fatal(err)
	}
	var mined []workload.LabeledQuery
	for _, q := range gen.Generate() {
		zt, err := f.hyper.ZeroTuple(q)
		if err != nil {
			b.Fatal(err)
		}
		if !zt {
			continue
		}
		card, err := f.d.Count(q)
		if err != nil {
			b.Fatal(err)
		}
		mined = append(mined, workload.LabeledQuery{Query: q, Card: card})
		if len(mined) >= 50 {
			break
		}
	}
	if len(mined) == 0 {
		b.Skip("no 0-tuple queries at bench scale")
	}
	var sketchQ, hyperQ []float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sketchQ = sketchQ[:0]
		for _, lq := range mined {
			est, err := f.sketch.Cardinality(lq.Query)
			if err != nil {
				b.Fatal(err)
			}
			sketchQ = append(sketchQ, metrics.QError(est, float64(lq.Card)))
		}
	}
	b.StopTimer()
	for _, lq := range mined {
		he, err := f.hyper.Cardinality(lq.Query)
		if err != nil {
			b.Fatal(err)
		}
		hyperQ = append(hyperQ, metrics.QError(he, float64(lq.Card)))
	}
	b.ReportMetric(float64(len(mined)), "queries")
	reportSummary(b, "sketch", metrics.Summarize(sketchQ))
	reportSummary(b, "hyper", metrics.Summarize(hyperQ))
}

// BenchmarkAblationBitmaps trains the MSCN with and without sample bitmaps
// on the fixture's training data and reports JOB-light accuracy for both —
// the design-choice ablation for the sample-bitmap input.
func BenchmarkAblationBitmaps(b *testing.B) {
	f := fixtureB(b)
	b.Run("with-bitmaps", func(b *testing.B) {
		var qerrs []float64
		for i := 0; i < b.N; i++ {
			cfg := f.td.Cfg
			cfg.Model.Epochs = 6
			td := *f.td
			td.Cfg = cfg
			sk, err := core.BuildFromData(&td, nil)
			if err != nil {
				b.Fatal(err)
			}
			qerrs, err = qerrsJOBLight(f, sk.Cardinality)
			if err != nil {
				b.Fatal(err)
			}
		}
		reportSummary(b, "with", metrics.Summarize(qerrs))
	})
	b.Run("without-bitmaps", func(b *testing.B) {
		var qerrs []float64
		for i := 0; i < b.N; i++ {
			var err error
			qerrs, err = trainAndEvalNoBitmaps(f)
			if err != nil {
				b.Fatal(err)
			}
		}
		reportSummary(b, "without", metrics.Summarize(qerrs))
	})
}

// BenchmarkTPCHSketch measures estimation over a TPC-H sketch (the demo's
// second dataset).
func BenchmarkTPCHSketch(b *testing.B) {
	d := deepsketch.NewTPCH(deepsketch.TPCHConfig{Seed: 5, Orders: 3000})
	cfg := core.Config{
		Name: "tpch-bench", SampleSize: 128, TrainQueries: 1200, MaxJoins: 3, Seed: 5,
		Model: mscn.Config{HiddenUnits: 24, Epochs: 8, BatchSize: 128, Seed: 5},
	}
	sk, err := core.Build(d, cfg, nil)
	if err != nil {
		b.Fatal(err)
	}
	gen, err := workload.NewGenerator(d, workload.GenConfig{Seed: 55, Count: 100, MaxJoins: 3, MaxPreds: 3})
	if err != nil {
		b.Fatal(err)
	}
	labeled, err := workload.Label(d, gen.Generate(), 0, nil)
	if err != nil {
		b.Fatal(err)
	}
	var qs []float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		qs = qs[:0]
		for _, lq := range labeled {
			est, err := sk.Cardinality(lq.Query)
			if err != nil {
				b.Fatal(err)
			}
			qs = append(qs, metrics.QError(est, float64(lq.Card)))
		}
	}
	b.StopTimer()
	reportSummary(b, "tpch", metrics.Summarize(qs))
}

// BenchmarkPlanQuality drives the DP join enumerator with each estimator's
// cardinalities on the multi-join JOB-light queries and reports how far the
// chosen plans are from optimal under true costs (extension experiment E11).
func BenchmarkPlanQuality(b *testing.B) {
	f := fixtureB(b)
	truth := func(q deepsketch.Query) (float64, error) {
		c, err := f.d.Count(q)
		return float64(c), err
	}
	var queries []workload.LabeledQuery
	for _, lq := range f.joblight {
		if len(lq.Query.Tables) >= 3 {
			queries = append(queries, lq)
		}
	}
	if len(queries) > 20 {
		queries = queries[:20]
	}
	var sketchRatios, pgRatios []float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sketchRatios = sketchRatios[:0]
		for _, lq := range queries {
			ratio, _, _, err := optimizer.PlanQuality(lq.Query, f.sketch.Cardinality, truth)
			if err != nil {
				b.Fatal(err)
			}
			sketchRatios = append(sketchRatios, ratio)
		}
	}
	b.StopTimer()
	for _, lq := range queries {
		ratio, _, _, err := optimizer.PlanQuality(lq.Query, f.pg.Cardinality, truth)
		if err != nil {
			b.Fatal(err)
		}
		pgRatios = append(pgRatios, ratio)
	}
	b.ReportMetric(metrics.Summarize(sketchRatios).Mean, "sketch_mean_ratio")
	b.ReportMetric(metrics.Summarize(sketchRatios).Max, "sketch_max_ratio")
	b.ReportMetric(metrics.Summarize(pgRatios).Mean, "pg_mean_ratio")
	b.ReportMetric(metrics.Summarize(pgRatios).Max, "pg_max_ratio")
}

func qerrsJOBLight(f *benchFixture, est func(deepsketch.Query) (float64, error)) ([]float64, error) {
	out := make([]float64, 0, len(f.joblight))
	for _, lq := range f.joblight {
		v, err := est(lq.Query)
		if err != nil {
			return nil, err
		}
		out = append(out, metrics.QError(v, float64(lq.Card)))
	}
	return out, nil
}

func trainAndEvalNoBitmaps(f *benchFixture) ([]float64, error) {
	enc, err := featurize.NewEncoder(f.d, f.td.Cfg.Tables, 0)
	if err != nil {
		return nil, err
	}
	cards := make([]int64, len(f.td.Labeled))
	for i, lq := range f.td.Labeled {
		cards[i] = lq.Card
	}
	enc.FitLabels(cards)
	cfg := f.td.Cfg.Model
	cfg.Epochs = 6
	if cfg.Seed == 0 {
		cfg.Seed = 17
	}
	model := mscn.New(cfg, enc.TableDim(), enc.JoinDim(), enc.PredDim())
	examples := make([]mscn.Example, len(f.td.Labeled))
	for i, lq := range f.td.Labeled {
		e, err := enc.EncodeQuery(lq.Query, nil)
		if err != nil {
			return nil, err
		}
		examples[i] = mscn.Example{Enc: e, Card: lq.Card}
	}
	if _, err := model.Train(examples, enc.Norm, nil); err != nil {
		return nil, err
	}
	out := make([]float64, 0, len(f.joblight))
	for _, lq := range f.joblight {
		e, err := enc.EncodeQuery(lq.Query, nil)
		if err != nil {
			return nil, err
		}
		y, err := model.Predict(e)
		if err != nil {
			return nil, err
		}
		out = append(out, metrics.QError(enc.Norm.Denormalize(y), float64(lq.Card)))
	}
	return out, nil
}

func benchName(key string, v int) string {
	return key + "=" + itoa(v)
}

func itoa(v int) string {
	if v == 0 {
		return "0"
	}
	var buf [20]byte
	i := len(buf)
	for v > 0 {
		i--
		buf[i] = byte('0' + v%10)
		v /= 10
	}
	return string(buf[i:])
}

// BenchmarkServeConcurrent measures serving throughput at 64 concurrent
// clients cycling the JOB-light workload. Three modes: naive per-request
// Estimate (one MSCN forward pass per request), the bare coalescer
// (concurrent requests of any shapes merged into one packed ragged-batch
// forward pass on the inference engine — no shape grouping, no padding, so
// batching wins even on a single core), and the serve stack as deepsketchd
// deploys it (LRU cache over the coalescer), where the cache absorbs the
// hot-query repeats that dominate serving traffic. One benchmark iteration
// = one served request; compare ns/op (≈ inverse throughput).
func BenchmarkServeConcurrent(b *testing.B) {
	f := fixtureB(b)
	const clients = 64
	queries := make([]deepsketch.Query, len(f.joblight))
	for i, lq := range f.joblight {
		queries[i] = lq.Query
	}
	bench := func(est deepsketch.Estimator) func(b *testing.B) {
		return func(b *testing.B) {
			b.ReportAllocs()
			var wg sync.WaitGroup
			reqs := make(chan int)
			failed := make(chan error, 1)
			for c := 0; c < clients; c++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for i := range reqs {
						if _, err := est.Estimate(context.Background(), queries[i%len(queries)]); err != nil {
							select {
							case failed <- err:
							default:
							}
							return
						}
					}
				}()
			}
			b.ResetTimer()
		feed:
			for i := 0; i < b.N; i++ {
				select {
				case reqs <- i:
				case err := <-failed:
					// A dead worker must not leave the feeder blocked on an
					// unbuffered send with no receivers.
					close(reqs)
					wg.Wait()
					b.Fatal(err)
					break feed
				}
			}
			close(reqs)
			wg.Wait()
			b.StopTimer()
			select {
			case err := <-failed:
				b.Fatal(err)
			default:
			}
		}
	}
	b.Run("naive-per-request", bench(f.sketch))
	co := deepsketch.NewCoalescer(f.sketch, deepsketch.CoalesceOptions{})
	defer co.Close()
	b.Run("coalesced", bench(co))
	co2 := deepsketch.NewCoalescer(f.sketch, deepsketch.CoalesceOptions{})
	defer co2.Close()
	b.Run("serve-stack", bench(deepsketch.WithCache(co2, 1024)))
}
