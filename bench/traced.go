package main

import (
	"context"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"
)

// perLayer lists the metrics a traced run prints, in BENCHMARK.json's
// order. A layer is one of the repository's packages. Timings are p50
// microseconds unless the name says otherwise; a metric is 0 on a workload
// whose requests never reach the layer.
var perLayer = []metricDef{
	// The daemon seen from outside: one more round over HTTP.
	{"deepsketchd.http_p50_1conn_us", "us"}, // round trip with one connection alone
	{"deepsketchd.handler_us", "us"},        // the handler's work replayed in-process, one request at a time
	{"deepsketchd.http_overhead_us", "us"},  // the difference: net/http, JSON, loopback, scheduling
	{"deepsketchd.cpu_share", "ratio"},      // daemon CPU seconds / (elapsed × cores) over the timed phase
	{"loadgen.cpu_share", "ratio"},
	{"deepsketchd.latency_p90_us", "us"}, // the timed phase's tails, where its sample supports them
	{"deepsketchd.latency_p99_us", "us"},
	{"deepsketchd.actual_p50_us", "us"}, // POST .../actuals round trip (http_feedback)
	{"deepsketchd.actual_p99_us", "us"},
	{"drift.matched_share", "ratio"},        // actuals that met their parked estimate (http_feedback)
	{"wal.bytes_per_record", "B"},           // the daemon's WAL after the run (http_feedback)
	{"wal.syncs_per_1k_appends", "count"},   // same
	{"deepsketchd.build_s", "s"},            // POST /api/sketches → version 1 ready
	{"deepsketchd.refresh_s", "s"},          // POST .../refresh → next version ready, daemon otherwise idle
	{"lifecycle.refresh_under_load_s", "s"}, // same, while the load runs (build_refresh)
	{"deepsketchd.peak_rss_mb", "MB"},       // VmHWM at the end of the round
	// The handler's parts, replayed in-process on the workload's queries.
	{"sqlparse.parse_us", "us"},
	{"db.truth_us", "us"},
	{"estimator.hyper_us", "us"},
	{"estimator.postgres_us", "us"},
	// The serving stack, from spans at every Estimator boundary.
	{"serve.stack_us", "us"},
	{"serve.cache_hit_ratio", "ratio"},
	{"serve.cache_hit_us", "us"},
	{"serve.cache_miss_self_us", "us"},
	{"drift.observe_self_us", "us"},
	{"serve.clamp_self_us", "us"},
	{"serve.coalesce_self_us", "us"}, // one request at a time
	{"serve.coalesce_wait_us", "us"}, // at the workload's connection count
	{"serve.coalesce_batch_mean", "count"},
	{"lifecycle.view_us", "us"}, // the registry view's span: its own work and the sketch's estimate
	{"core.template_us", "us"},
	{"trace.overhead_share", "ratio"}, // stack p50 with the span wrappers ÷ without
	{"trace.ladder_closure", "ratio"}, // (http overhead + Σ parts) ÷ http p50 at one connection
	// Below the Estimator interface: exported functions called directly.
	{"lifecycle.view_self_us", "us"}, // what the view adds to the sketch: Query.Signature and Registry.ServingVersion
	{"router.route_us", "us"},
	{"core.estimate_us", "us"},
	{"core.estimate_allocs", "count"},
	{"sample.bitmaps_us", "us"},
	{"featurize.encode_us", "us"},
	{"mscn.predict_us", "us"},
	{"mscn.predict_f32_us", "us"},
	{"core.batch_estimates_per_s", "1/s"},
	{"core.batch_estimates_per_s_p1", "1/s"},
	{"mscn.forward_us_per_query", "us"},
	{"mscn.forward_macs_per_query", "count"}, // computed from layer shapes
	{"mscn.forward_bytes_per_query", "B"},    // computed from layer shapes
	{"nn.gemm_us", "us"},
	{"nn.gemm_gflops", "GFLOP/s"},
	{"nn.segpool_us", "us"},
	// Build and refresh.
	{"core.stage_generate_ms", "ms"},
	{"core.stage_execute_ms", "ms"},
	{"core.stage_featurize_ms", "ms"},
	{"core.stage_train_ms", "ms"},
	{"workload.label_ms", "ms"},
	{"sample.build_ms", "ms"},
	{"mscn.train_epoch_ms_p1", "ms"},
	{"mscn.train_epoch_ms_pN", "ms"},
	{"mscn.train_scaling", "ratio"},
	{"mscn.train_examples_per_s", "1/s"},
	{"nn.backward_us", "us"},
	{"nn.segpool_backward_us", "us"},
	{"nn.adam_step_us", "us"},
	{"core.save_ms", "ms"},
	{"core.load_ms", "ms"},
	{"lifecycle.publish_us", "us"},
	{"lifecycle.swap_us", "us"},
	// The feedback path.
	{"wal.append_us", "us"},
	{"wal.append_p99_us", "us"},
	{"wal.appends_per_s", "1/s"},
	{"wal.sync_us", "us"},
	{"wal.admit_us", "us"},
	{"drift.resolve_actual_us", "us"},
}

const (
	// replaySeconds is how long each in-process replay runs.
	replaySeconds = 1.5
	// singleSeconds is how long one connection alone drives the daemon.
	singleSeconds = 1.5
)

// runTraced is the traced run: never the source of an end-to-end number.
// It measures one round over HTTP (for the daemon's CPU and the
// one-connection latency), downloads the daemon's sketch, rebuilds the
// serving stack around it in-process with a span recorder at every
// boundary, replays the workload's queries through it, and times the
// layers below by calling them directly.
func runTraced(ctx context.Context, e *env, w workloadSpec, seed int64, seconds int) (err error) {
	// What is printed up to the end of the HTTP round is also the trace
	// file's header.
	var head strings.Builder
	te := *e
	te.out = io.MultiWriter(e.out, &head)
	header(te.out, e, w, seed, seconds, true)
	qs, err := newWorkloadQueries(w, seed)
	if err != nil {
		return err
	}
	m := map[string]float64{}
	res := &runResult{values: m}

	per := time.Duration(float64(seconds) / rounds * float64(time.Second))
	rr, err := runRound(ctx, &te, w, qs, per, time.Duration(singleSeconds*float64(time.Second)), 1)
	if err != nil {
		return fmt.Errorf("%s traced round: %w", w.name, err)
	}
	res.Attempted, res.Failed = rr.attempted, rr.failed
	for _, err := range rr.errs {
		fmt.Fprintf(e.out, "  FAILED: %v\n", err)
	}
	cores := float64(runtime.NumCPU())
	m["deepsketchd.http_p50_1conn_us"] = rr.singleP50US
	m["deepsketchd.cpu_share"] = rr.daemonCPUS / (rr.elapsedS * cores)
	m["loadgen.cpu_share"] = rr.loadCPUS / (rr.elapsedS * cores)
	lat := sortedCopy(rr.latencyUS)
	m["deepsketchd.latency_p90_us"], _ = percentile(lat, 0.90)
	m["deepsketchd.latency_p99_us"], _ = percentile(lat, 0.99)
	if act := sortedCopy(rr.actualUS); len(act) > 0 {
		m["deepsketchd.actual_p50_us"], _ = percentile(act, 0.50)
		m["deepsketchd.actual_p99_us"], _ = percentile(act, 0.99)
		m["drift.matched_share"] = rr.matchedShare
	}
	if rr.walAppends > 0 {
		m["wal.bytes_per_record"] = float64(rr.walBytes) / float64(rr.walAppends)
		m["wal.syncs_per_1k_appends"] = 1000 * float64(rr.walSyncs) / float64(rr.walAppends)
	}
	m["deepsketchd.build_s"] = rr.buildS
	m["deepsketchd.refresh_s"] = rr.idleRefreshS
	m["lifecycle.refresh_under_load_s"] = mean(rr.phaseRefreshS)
	m["deepsketchd.peak_rss_mb"] = rr.peakRSSMB
	for _, stage := range []string{"generate", "execute", "featurize", "train"} {
		m["core.stage_"+stage+"_ms"] = rr.buildStageMS[stage]
	}

	v, err := newVerifier(qs.db, rr.sketch, 0)
	if err != nil {
		return err
	}
	spans, err := replayLayers(ctx, e, w, qs, v, m)
	if err != nil {
		return err
	}
	queries, err := leafQueries(w, qs, v.sk)
	if err != nil {
		return err
	}
	if err := measureLeaves(ctx, e, qs.db, v.sk, queries, m); err != nil {
		return err
	}
	// The ladder: the handler's parts and the stack's self times, the miss
	// path weighted by how often it ran. The registry view calls the sketch
	// directly, so no wrapper fits between them and its span stands for both.
	hit := m["serve.cache_hit_ratio"]
	ladder := m["sqlparse.parse_us"] + m["db.truth_us"] + m["estimator.hyper_us"] + m["estimator.postgres_us"] +
		hit*m["serve.cache_hit_us"] + (1-hit)*(m["serve.cache_miss_self_us"]+m["drift.observe_self_us"]+
		m["serve.clamp_self_us"]+m["serve.coalesce_self_us"]+m["lifecycle.view_us"]) +
		m["core.template_us"]
	m["deepsketchd.http_overhead_us"] = m["deepsketchd.http_p50_1conn_us"] - m["deepsketchd.handler_us"]
	m["trace.ladder_closure"] = (m["deepsketchd.http_overhead_us"] + ladder) / m["deepsketchd.http_p50_1conn_us"]

	res.Correct = res.Failed == 0
	fmt.Fprintf(e.out, "%s · traced · attempted %d · failed %d\n", w.name, res.Attempted, res.Failed)
	path := filepath.Join("bench", "out", "trace-"+w.name+".json")
	res.seal(perLayer)
	if err := writeTrace(path, traceFile{Header: strings.Split(strings.TrimSpace(head.String()), "\n"), Metrics: res.Metrics, Spans: spans}); err != nil {
		return err
	}
	fmt.Fprintf(e.out, "%d spans written to %s\n", len(spans), path)
	res.print(e.out, perLayer)
	if !res.Correct {
		return errFailedOperations
	}
	return nil
}

// replayLayers replays the workload in-process twice — one request at a
// time through a traced stack and its untraced twin in alternation, then at
// the workload's connection count through a traced stack — and fills m with
// the handler parts and the stack's self times. It returns the spans.
func replayLayers(ctx context.Context, e *env, w workloadSpec, qs *querySet, v *verifier, m map[string]float64) (spans []span, err error) {
	d := time.Duration(replaySeconds * float64(time.Second))
	warm := 0
	if w.hot {
		warm = len(qs.sql)
	}
	// open builds a warmed stack; the returned func tears it down.
	open := func(tag string, rec *recorder) (*stack, func() error, error) {
		walDir := filepath.Join(e.dir, "trace-wal-"+tag)
		s, err := newStack(ctx, w, qs.db, v.sk, walDir, rec)
		if err != nil {
			return nil, nil, err
		}
		closeStack := func() error { return errors.Join(s.close(), os.RemoveAll(walDir)) }
		if err := s.warm(ctx, w, qs, warm); err != nil {
			return nil, nil, errors.Join(err, closeStack())
		}
		return s, closeStack, nil
	}
	p50of := func(ps []parts, f func(parts) float64) float64 { return median(column(ps, f)) }
	layerP50 := func(rec *recorder, self []float64, layer string) float64 {
		return selfP50US(rec.spans, self, func(s span) bool { return s.Layer == layer })
	}

	// One request at a time, with spans — the ladder — and the same
	// request without the wrappers right beside it: what tracing costs.
	rec := newRecorder()
	traced, closeTraced, err := open("one", rec)
	if err != nil {
		return nil, err
	}
	defer func() { err = errors.Join(err, closeTraced()) }()
	plain, closePlain, err := open("plain", nil)
	if err != nil {
		return nil, err
	}
	defer func() { err = errors.Join(err, closePlain()) }()
	hits0, misses0 := traced.cache.Stats()
	both, err := replay(ctx, w, qs, []*stack{traced, plain}, 1, 2*d)
	if err != nil {
		return nil, err
	}
	ps := both[0]
	if len(ps) < 2*minBeyond {
		return nil, fmt.Errorf("the in-process replay completed %d requests", len(ps))
	}
	serving := func(p parts) float64 { return p.serving }
	m["deepsketchd.handler_us"] = p50of(ps, func(p parts) float64 { return p.total })
	m["trace.overhead_share"] = p50of(ps, serving) / p50of(both[1], serving)
	if w.kind == kindTemplate {
		m["core.template_us"] = p50of(ps, serving)
		return rec.spans, nil
	}
	m["sqlparse.parse_us"] = p50of(ps, func(p parts) float64 { return p.parse })
	m["db.truth_us"] = p50of(ps, func(p parts) float64 { return p.truth })
	m["estimator.hyper_us"] = p50of(ps, func(p parts) float64 { return p.hyper })
	m["estimator.postgres_us"] = p50of(ps, func(p parts) float64 { return p.pg })
	m["serve.stack_us"] = p50of(ps, serving)
	hits, misses := traced.cache.Stats()
	m["serve.cache_hit_ratio"] = float64(hits-hits0) / float64(hits-hits0+misses-misses0)
	self := selfTimes(rec.spans, layerCoalesce, layerView)
	m["serve.cache_hit_us"] = selfP50US(rec.spans, self, func(s span) bool { return s.Layer == layerCache && s.CacheHit })
	m["serve.cache_miss_self_us"] = selfP50US(rec.spans, self, func(s span) bool { return s.Layer == layerCache && !s.CacheHit })
	m["drift.observe_self_us"] = layerP50(rec, self, layerObserve)
	m["serve.clamp_self_us"] = layerP50(rec, self, layerClamp)
	m["serve.coalesce_self_us"] = layerP50(rec, self, layerCoalesce)
	m["lifecycle.view_us"] = layerP50(rec, self, layerView)
	spans = rec.spans

	// At the workload's connection count: how deep the coalescer batches
	// and how long requests wait in it.
	workers := e.conns
	if w.kind == kindRefresh && workers > 1 {
		workers--
	}
	rec = newRecorder()
	many, closeMany, err := open("many", rec)
	if err != nil {
		return nil, err
	}
	defer func() { err = errors.Join(err, closeMany()) }()
	if _, err := replay(ctx, w, qs, []*stack{many}, workers, d); err != nil {
		return nil, err
	}
	m["serve.coalesce_wait_us"] = layerP50(rec, selfTimes(rec.spans, layerCoalesce, layerView), layerCoalesce)
	calls, queries := 0, 0
	for _, s := range rec.spans {
		if s.Layer == layerView {
			calls++
			queries += s.Queries
		}
	}
	if calls > 0 {
		m["serve.coalesce_batch_mean"] = float64(queries) / float64(calls)
	}
	return append(spans, rec.spans...), nil
}
