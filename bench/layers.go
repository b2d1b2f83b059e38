package main

import (
	"context"
	"fmt"
	"math/rand"
	"path/filepath"
	"runtime"
	"time"

	"deepsketch"
	"deepsketch/internal/core"
	"deepsketch/internal/featurize"
	"deepsketch/internal/mscn"
	"deepsketch/internal/nn"
	"deepsketch/internal/sample"
	"deepsketch/internal/wal"
	"deepsketch/internal/workload"
)

const (
	// leafBudget is how long each leaf function is called for.
	leafBudget = 120 * time.Millisecond
	// forwardBatch is the packed batch the engine and kernel rungs run on.
	forwardBatch = 256
	// batchQueries is the size of the batched-estimate rung.
	batchQueries = 1024
)

// minCalls is the fewest timed calls a leaf rung's median rests on; only
// the kernels at full batch size are slow enough to stop there.
const minCalls = 3

// timeEach calls fn over and over for the budget, inner calls per sample
// (for functions too short to time one by one), and returns the per-call
// median microseconds of a call. i counts calls from 0.
func timeEach(budget time.Duration, inner int, fn func(i int)) float64 {
	return median(timeCalls(budget, inner, fn))
}

// timeCalls is timeEach's sample: the per-call microseconds.
func timeCalls(budget time.Duration, inner int, fn func(i int)) []float64 {
	var out []float64
	deadline := time.Now().Add(budget)
	for i := 0; len(out) < minCalls || time.Now().Before(deadline); {
		start := time.Now()
		for k := 0; k < inner; k++ {
			fn(i)
			i++
		}
		out = append(out, us(time.Since(start))/float64(inner))
	}
	return out
}

// leafQueries is the query set the leaf rungs run on: the workload's own
// queries, and for http_template the instances its statements expand to.
func leafQueries(w workloadSpec, qs *querySet, sk *deepsketch.Sketch) ([]deepsketch.Query, error) {
	if w.kind != kindTemplate {
		return qs.queries, nil
	}
	var out []deepsketch.Query
	for _, sql := range qs.sql {
		tpl, err := deepsketch.ParseTemplateSQL(sk.SchemaDB(), sql)
		if err != nil {
			return nil, err
		}
		insts, err := tpl.Instantiate(sk.Samples, deepsketch.GroupDistinct, 0)
		if err != nil {
			return nil, err
		}
		for _, in := range insts {
			out = append(out, in.Query)
		}
	}
	return out, nil
}

// measureLeaves times every layer below the Estimator interface by calling
// its exported function directly, on the daemon's own sketch and the
// workload's queries, and every training and lifecycle layer at the
// fixture's shapes. It fills m with the per-layer metrics it owns.
func measureLeaves(ctx context.Context, e *env, d *deepsketch.DB, sk *deepsketch.Sketch, queries []deepsketch.Query, m map[string]float64) error {
	if len(queries) == 0 {
		return fmt.Errorf("no query to run the leaf rungs on")
	}
	at := func(i int) deepsketch.Query { return queries[i%len(queries)] }
	var failed error
	keep := func(err error) {
		if err != nil && failed == nil {
			failed = err
		}
	}

	// Sketch.Estimate and what it is made of: bitmaps, featurize, forward.
	m["core.estimate_us"] = timeEach(leafBudget, 1, func(i int) {
		_, err := sk.Estimate(ctx, at(i))
		keep(err)
	})
	reg := deepsketch.NewSketchRegistry()
	if _, err := reg.Publish(sketchName, sk); err != nil {
		return err
	}
	router := reg.Router()
	m["router.route_us"] = timeEach(leafBudget/4, 16, func(i int) {
		_, _, err := router.RouteVersion(at(i))
		keep(err)
	})
	m["lifecycle.view_self_us"] = timeEach(leafBudget/4, 4, func(i int) {
		if _, ok := reg.ServingVersion(sketchName, at(i).Signature()); !ok {
			keep(fmt.Errorf("the registry does not serve %q", sketchName))
		}
	})
	var ms0, ms1 runtime.MemStats
	const allocCalls = 512
	runtime.ReadMemStats(&ms0)
	for i := 0; i < allocCalls; i++ {
		_, err := sk.Estimate(ctx, at(i))
		keep(err)
	}
	runtime.ReadMemStats(&ms1)
	m["core.estimate_allocs"] = float64(ms1.Mallocs-ms0.Mallocs) / allocCalls

	m["sample.bitmaps_us"] = timeEach(leafBudget, 1, func(i int) {
		_, err := sk.Samples.Bitmaps(at(i))
		keep(err)
	})
	n := min(len(queries), batchQueries)
	bitmaps := make([]map[string]sample.Bitmap, n)
	encs := make([]featurize.Encoded, n)
	for i := range encs {
		var err error
		if bitmaps[i], err = sk.Samples.Bitmaps(queries[i]); err != nil {
			return err
		}
		if encs[i], err = sk.Encoder.EncodeQuery(queries[i], bitmaps[i]); err != nil {
			return err
		}
	}
	m["featurize.encode_us"] = timeEach(leafBudget, 1, func(i int) {
		_, err := sk.Encoder.EncodeQuery(queries[i%n], bitmaps[i%n])
		keep(err)
	})
	engine := sk.Model.Engine()
	m["mscn.predict_us"] = timeEach(leafBudget, 1, func(i int) {
		_, err := engine.Predict(encs[i%n])
		keep(err)
	})
	sk32 := sk.Clone()
	sk32.SetEnginePrecision(deepsketch.EngineF32)
	engine32 := sk32.Model.Engine()
	m["mscn.predict_f32_us"] = timeEach(leafBudget, 1, func(i int) {
		_, err := engine32.Predict(encs[i%n])
		keep(err)
	})

	// Batched estimates, all cores and one.
	batch := make([]deepsketch.Query, batchQueries)
	for i := range batch {
		batch[i] = at(i)
	}
	perSecond := func() float64 {
		best := 0.0
		for rep := 0; rep < 3; rep++ {
			start := time.Now()
			_, err := sk.EstimateBatch(ctx, batch)
			keep(err)
			best = max(best, float64(len(batch))/time.Since(start).Seconds())
		}
		return best
	}
	m["core.batch_estimates_per_s"] = perSecond()
	procs := runtime.GOMAXPROCS(1)
	m["core.batch_estimates_per_s_p1"] = perSecond()
	runtime.GOMAXPROCS(procs)

	// One packed forward over forwardBatch queries, and its kernels at the
	// widest layer. Operation and byte counts are computed from the layer
	// shapes, not measured.
	fb := min(n, forwardBatch)
	tdim, jdim, pdim := sk.Encoder.TableDim(), sk.Encoder.JoinDim(), sk.Encoder.PredDim()
	h := sk.Model.Cfg.HiddenUnits
	pb, err := mscn.BuildPackedBatch(encs[:fb], tdim, jdim, pdim)
	if err != nil {
		return err
	}
	var ws nn.Workspace
	out := make([]float64, fb)
	m["mscn.forward_us_per_query"] = timeEach(leafBudget, 1, func(int) {
		ws.Reset()
		engine.Forward(pb, &ws, out)
	}) / float64(fb)
	nt, nj, np := pb.Rows()
	macs, bytes := forwardCost(nt, nj, np, fb, tdim, jdim, pdim, h)
	m["mscn.forward_macs_per_query"] = macs / float64(fb)
	m["mscn.forward_bytes_per_query"] = bytes / float64(fb)

	rng := rand.New(rand.NewSource(sketchSeed))
	wide := nn.NewLinear("bench.wide", tdim, h, rng)
	y := nn.NewMatrix(nt, h)
	gemm := timeEach(leafBudget, 1, func(int) { wide.ForwardFused(pb.TX, y, true) })
	m["nn.gemm_us"] = gemm
	m["nn.gemm_gflops"] = 2 * float64(nt) * float64(tdim) * float64(h) / (gemm * 1e3)
	pool := nn.NewMatrix(fb, h)
	m["nn.segpool_us"] = timeEach(leafBudget, 1, func(int) { nn.SegmentAvgPool(y, pb.TOff, pool) })

	// The same layer backwards, and the optimizer over the model's
	// parameters.
	dy := nn.NewMatrix(nt, h)
	for i := range dy.Data {
		dy.Data[i] = rng.Float64() - 0.5
	}
	dW, dB := make([]float64, tdim*h), make([]float64, h)
	m["nn.backward_us"] = timeEach(leafBudget, 1, func(int) { wide.BackwardFused(pb.TX, dy, nil, dW, dB) })
	dx := nn.NewMatrix(nt, h)
	m["nn.segpool_backward_us"] = timeEach(leafBudget, 1, func(int) { nn.SegmentAvgPoolBackward(pool, pb.TOff, dx) })
	mcfg := sk.Model.Cfg
	fresh := mscn.New(mcfg, tdim, jdim, pdim)
	adam := nn.NewAdam(mcfg.LearningRate, mcfg.ClipNorm)
	params := fresh.Params()
	for _, p := range params {
		for i := range p.Grad {
			p.Grad[i] = 1e-3
		}
	}
	m["nn.adam_step_us"] = timeEach(leafBudget, 1, func(int) { adam.Step(params) })

	if err := measureBuild(d, sk, m); err != nil {
		return err
	}
	if err := measureLifecycle(e, sk, m); err != nil {
		return err
	}
	if err := measureFeedback(ctx, e, d, queries, m); err != nil {
		return err
	}
	return failed
}

// forwardCost computes the multiply-accumulates and the bytes moved by one
// packed forward from the layer shapes: every Linear reads its input rows,
// its weights and bias once and writes its output rows; every pool reads
// its rows and writes one row per query. float64 throughout.
func forwardCost(nt, nj, np, b, tdim, jdim, pdim, h int) (macs, bytes float64) {
	linear := func(rows, in, out int) {
		macs += float64(rows) * float64(in) * float64(out)
		bytes += 8 * float64(rows*in+in*out+out+rows*out)
	}
	set := func(rows, in int) {
		linear(rows, in, h)
		linear(rows, h, h)
		bytes += 8 * float64(rows*h+b*h) // segment average pool
	}
	set(nt, tdim)
	set(nj, jdim)
	set(np, pdim)
	linear(b, 3*h, h)
	linear(b, h, 1)
	return macs, bytes
}

// measureBuild times the build pipeline's layers at the fixture's size:
// labelling, sampling, and one training epoch serial and data-parallel.
func measureBuild(d *deepsketch.DB, sk *deepsketch.Sketch, m map[string]float64) error {
	cfg := sk.Cfg
	qs, err := deepsketch.GenerateWorkload(d, deepsketch.GenConfig{
		Seed: cfg.Seed, Count: cfg.TrainQueries, Tables: cfg.Tables,
		MaxJoins: cfg.MaxJoins, MaxPreds: cfg.MaxPreds, Dedup: true,
	})
	if err != nil {
		return err
	}
	start := time.Now()
	labeled, err := workload.Label(d, qs, 0, nil)
	if err != nil {
		return err
	}
	m["workload.label_ms"] = us(time.Since(start)) / 1e3
	start = time.Now()
	if _, err := sample.New(d, cfg.Tables, cfg.SampleSize, cfg.Seed); err != nil {
		return err
	}
	m["sample.build_ms"] = us(time.Since(start)) / 1e3

	td, err := core.PrepareTrainingDataFromWorkload(d, cfg, labeled, nil)
	if err != nil {
		return err
	}
	enc := td.Encoder
	mcfg := cfg.Model
	mcfg.Epochs = 1
	epoch := func(parallelism int) (float64, error) {
		model := mscn.New(mcfg, enc.TableDim(), enc.JoinDim(), enc.PredDim())
		start := time.Now()
		_, err := model.TrainWithOptions(td.Examples, enc.Norm, nil, mscn.TrainOptions{Parallelism: parallelism})
		return us(time.Since(start)) / 1e3, err
	}
	p1, err := epoch(1)
	if err != nil {
		return err
	}
	pn, err := epoch(runtime.GOMAXPROCS(0))
	if err != nil {
		return err
	}
	m["mscn.train_epoch_ms_p1"] = p1
	m["mscn.train_epoch_ms_pN"] = pn
	m["mscn.train_scaling"] = p1 / pn
	m["mscn.train_examples_per_s"] = float64(len(td.Examples)) / (pn / 1e3)
	return nil
}

// measureLifecycle times what a refresh does after training: write the
// sketch durably, read it back, publish and swap a version.
func measureLifecycle(e *env, sk *deepsketch.Sketch, m map[string]float64) error {
	path := filepath.Join(e.dir, "leaf.dsk")
	var save, load []float64
	for rep := 0; rep < 3; rep++ {
		start := time.Now()
		if err := deepsketch.SaveFile(sk, path); err != nil {
			return err
		}
		save = append(save, us(time.Since(start))/1e3)
		start = time.Now()
		if _, err := deepsketch.LoadFile(path); err != nil {
			return err
		}
		load = append(load, us(time.Since(start))/1e3)
	}
	m["core.save_ms"], m["core.load_ms"] = median(save), median(load)

	var publish []float64
	for rep := 0; rep < 2*minBeyond; rep++ {
		reg := deepsketch.NewSketchRegistry()
		start := time.Now()
		if _, err := reg.Publish(sketchName, sk); err != nil {
			return err
		}
		publish = append(publish, us(time.Since(start)))
	}
	m["lifecycle.publish_us"] = median(publish)
	reg := deepsketch.NewSketchRegistry()
	if _, err := reg.Publish(sketchName, sk); err != nil {
		return err
	}
	var swapErr error
	m["lifecycle.swap_us"] = timeEach(leafBudget/4, 1, func(int) {
		if _, err := reg.Swap(sketchName, sk); err != nil && swapErr == nil {
			swapErr = err
		}
	})
	return swapErr
}

// measureFeedback times the layers of the actuals path: the admitter, the
// monitor's match of an actual against its parked estimate, and the WAL at
// its default options (fsync every 64 appends).
func measureFeedback(ctx context.Context, e *env, d *deepsketch.DB, queries []deepsketch.Query, m map[string]float64) error {
	admit := wal.NewAdmitter(wal.AdmitConfig{})
	now := time.Now()
	m["wal.admit_us"] = timeEach(leafBudget/4, 64, func(int) { admit.Admit("bench-0", now) })

	// Park one sampled estimate per query, then resolve each.
	const parked = 1000
	mon := deepsketch.NewDriftMonitor(deepsketch.DriftConfig{SampleEvery: 1, QueueSize: parked}, nil)
	n := min(len(queries), parked)
	sigs := make([]string, n)
	for i := 0; i < n; i++ {
		sigs[i] = queries[i].Signature()
		mon.Observe(sketchName, 1, queries[i], 100)
	}
	mon.Drain(ctx)
	resolve := make([]float64, n)
	for i, sig := range sigs {
		start := time.Now()
		mon.ResolveActual(sketchName, sig, 120)
		resolve[i] = us(time.Since(start))
	}
	m["drift.resolve_actual_us"] = median(resolve)

	log, err := wal.Open(filepath.Join(e.dir, "leaf-wal"), wal.Options{})
	if err != nil {
		return err
	}
	defer log.Close()
	rec := wal.Record{Kind: wal.KindActual, Name: sketchName, Version: 1, Estimate: 120, Actual: 100, Client: "bench-0"}
	const appends = 4096
	each := make([]float64, appends)
	start := time.Now()
	for i := range each {
		rec.Signature, rec.SQL = sigs[i%n], queries[i%n].SQL(d)
		t := time.Now()
		if err := log.Append(rec); err != nil {
			return err
		}
		each[i] = us(time.Since(t))
	}
	if err := log.Sync(); err != nil {
		return err
	}
	m["wal.appends_per_s"] = appends / time.Since(start).Seconds()
	m["wal.append_us"] = median(each)
	m["wal.append_p99_us"], _ = percentile(sortedCopy(each), 0.99)
	var syncs []float64
	for rep := 0; rep < 2*minBeyond; rep++ {
		if err := log.Append(rec); err != nil {
			return err
		}
		t := time.Now()
		if err := log.Sync(); err != nil {
			return err
		}
		syncs = append(syncs, us(time.Since(t)))
	}
	m["wal.sync_us"] = median(syncs)
	return nil
}
