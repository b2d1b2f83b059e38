package main

import (
	"context"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"syscall"
	"time"

	"deepsketch"
	"deepsketch/internal/metrics"
)

// metricDef names one metric of the contract in BENCHMARK.json.
type metricDef struct {
	name, unit string
}

// endToEnd lists the end-to-end metrics every untraced run prints, in
// BENCHMARK.json's order. Each is defined the same way on every workload;
// the workloads differ in the traffic the timed phase carries.
var endToEnd = []metricDef{
	{"setup_s", "s"},             // daemon launch → sketch built → warm-up done
	{"latency_p50_us", "us"},     // round trip of the estimate or template request
	{"throughput_rps", "1/s"},    // completed requests of the load connections per second
	{"cpu_us_per_request", "us"}, // daemon user+system CPU over the timed phase per completed request
	{"qerr_median", "ratio"},     // served deep_sketch vs true over the pinned JOB-light draw
	{"qerr_p95", "ratio"},        // same, 95th percentile
	{"sketch_bytes", "B"},        // size of the downloaded sketch
}

// env is what the runs of one invocation share.
type env struct {
	bin      string // the compiled daemon
	dir      string // scratch directory, removed on exit
	compileS float64
	conns    int
	out      io.Writer // human-readable progress
}

// roundResult is everything one round measured.
type roundResult struct {
	values            map[string]float64 // end-to-end metric → this round's value
	attempted, failed int
	errs              []error

	// What the traced run and the human-readable report read beside the
	// contract's metrics.
	latencyUS, actualUS  []float64 // round trips of the timed phase
	hitRatio             float64   // share of the timed phase's replies marked cache_hit
	estimatesPerRequest  float64
	matchedShare         float64 // actuals that met their parked estimate
	phaseRefreshS        []float64
	elapsedS             float64
	daemonCPUS, loadCPUS float64 // CPU seconds over the timed phase
	buildS               float64 // POST /api/sketches → version 1 ready
	buildStageMS         map[string]float64
	sketch               []byte  // the downloaded version 1
	peakRSSMB            float64 // daemon VmHWM at the end of the round
	singleP50US          float64 // latency p50 with one connection alone (traced runs)
	idleRefreshS         float64 // one refresh of the idle daemon (traced runs)
	walBytes             int64
	walAppends, walSyncs uint64
}

func (r *roundResult) requests() int { return len(r.latencyUS) + len(r.actualUS) }

// note counts every non-nil error as one failed operation.
func (r *roundResult) note(errs ...error) {
	for _, err := range errs {
		if err != nil {
			r.failed++
			r.errs = append(r.errs, err)
		}
	}
}

// count adds a phase's requests and failures to the round's.
func (r *roundResult) count(t *tally) {
	r.attempted += t.sent
	r.failed += t.failed
	if t.firstErr != nil {
		r.errs = append(r.errs, t.firstErr)
	}
}

// selfCPUSeconds is the CPU time this process — the load generator — has
// used so far.
func selfCPUSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

// runRound sets the system up from nothing — a fresh daemon, a freshly
// built sketch, a warm-up of the workload's own traffic — grades the sketch
// on the pinned JOB-light draw, measures the workload for timed, recomputes
// a sample of the answers in-process and tears everything down. An error is
// a failure of the harness; failed operations are counted in the result.
//
// A traced run passes single > 0: after the timed phase one connection
// alone drives the same traffic for that long, which gives the one-request-
// at-a-time latency the layer ladder has to add up to, and the round ends
// with one refresh of the idle daemon.
func runRound(ctx context.Context, e *env, w workloadSpec, qs *querySet, timed, single time.Duration, round int) (res *roundResult, err error) {
	res = &roundResult{values: map[string]float64{}}
	var flags []string
	if w.feedbackDaemon {
		walDir := filepath.Join(e.dir, fmt.Sprintf("wal-%d", round))
		defer func() { err = errors.Join(err, os.RemoveAll(walDir)) }()
		flags = []string{"-wal", walDir, "-drift-truth=false", "-actuals-per-min", "0"}
	}
	d, err := startDaemon(ctx, e.bin, e.dir, flags)
	if err != nil {
		return nil, err
	}
	defer func() { err = errors.Join(err, d.Stop()) }()

	ctl := newClient(d.base)
	defer ctl.close()
	built, buildS, err := ctl.createSketch(ctx, sketchName)
	if err != nil {
		return nil, err
	}
	id := built.ID
	res.buildS, res.buildStageMS = buildS, built.Progress.StageMS

	// build_refresh gives one of its connections to the operator.
	loadConns := e.conns
	var operator *client
	if w.kind == kindRefresh {
		operator = ctl
		if loadConns > 1 {
			loadConns--
		}
	}
	conns := newConns(d.base, qs, id, loadConns)
	defer closeConns(conns)
	warm, _ := phase(ctx, w.kind, conns, time.Duration(warmupSeconds*float64(time.Second)), nil, 1, nil)
	res.count(warm)
	res.values["setup_s"] = time.Since(d.started).Seconds()

	// Grade version 1 before the load: build_refresh replaces it.
	v1, eval, err := res.grade(ctx, ctl, qs, id, 1)
	if err != nil {
		return nil, err
	}
	res.sketch = v1.blob
	res.values["sketch_bytes"] = float64(len(v1.blob))

	// CPU is read when the load ends: a refresh still in flight then is
	// waited for, but is no longer beside any request.
	cpu0, err := d.cpuSeconds()
	if err != nil {
		return nil, err
	}
	self0 := selfCPUSeconds()
	var cpuErr error
	load, elapsed := phase(ctx, w.kind, conns, timed, operator, 1, func() {
		res.loadCPUS = selfCPUSeconds() - self0
		var cpu1 float64
		cpu1, cpuErr = d.cpuSeconds()
		res.daemonCPUS = cpu1 - cpu0
	})
	if cpuErr != nil {
		return nil, cpuErr
	}
	res.count(load)
	admitted := warm.admitted + load.admitted
	if single > 0 {
		alone, _ := phase(ctx, w.kind, conns[:1], single, nil, 1, nil)
		res.count(alone)
		admitted += alone.admitted
		if res.singleP50US, err = mustPercentile(w.name+" latency at one connection", sortedCopy(alone.latencyUS), 0.50); err != nil {
			return nil, err
		}
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if err := res.summarize(w, load, elapsed); err != nil {
		return nil, err
	}

	requestsFailed := res.failed
	if w.kind == kindTemplate {
		res.note(v1.templates(ctx, qs, load.answers)...)
	} else {
		res.note(v1.estimates(ctx, qs, load.answers, verifyPerRound)...)
	}
	graded := eval.sent
	if operator != nil {
		// The refreshed version has to answer correctly too.
		st, err := ctl.waitVersion(ctx, id, 1)
		if err != nil {
			return nil, err
		}
		_, again, err := res.grade(ctx, ctl, qs, id, st.Version)
		if err != nil {
			return nil, err
		}
		graded += again.sent
	}
	if w.feedbackDaemon {
		if err := res.walAccounting(ctx, ctl, id, admitted); err != nil {
			return nil, err
		}
	}
	if res.peakRSSMB, err = d.peakRSSMB(); err != nil {
		return nil, err
	}
	if single > 0 {
		st, err := ctl.waitVersion(ctx, id, 1)
		if err != nil {
			return nil, err
		}
		if res.idleRefreshS, err = ctl.refreshSketch(ctx, id, st.Version+1); err != nil {
			return nil, err
		}
	}
	fmt.Fprintf(e.out, "  round %d: setup %.2fs (build %.2fs) | warm-up sent %d failed %d | timed %.2fs sent %d succeeded %d failed %d, median %.0f us | JOB-light sent %d | checks failed %d\n",
		round, res.values["setup_s"], buildS, warm.sent, warm.failed,
		elapsed.Seconds(), load.sent, load.sent-load.failed, load.failed, res.values["latency_p50_us"],
		graded, res.failed-requestsFailed)
	return res, nil
}

// grade sends the pinned JOB-light draw once through /api/estimate,
// downloads the live sketch (which must be at the given version) and
// requires every answer to equal the in-process one. On version 1 the
// answers' q-errors are the round's qerr metrics. It returns the verifier
// of the downloaded sketch and the pass's tally.
func (r *roundResult) grade(ctx context.Context, ctl *client, qs *querySet, id, version int) (*verifier, *tally, error) {
	jl := &conn{c: ctl, qs: qs.joblight, id: id, stride: 1}
	eval := &tally{}
	for range qs.joblight.body {
		jl.estimate(ctx, jl.advance(), eval)
	}
	r.count(eval)
	if len(eval.answers) == 0 {
		return nil, nil, fmt.Errorf("no JOB-light request succeeded: %w", eval.firstErr)
	}
	blob, err := ctl.download(ctx, id)
	if err != nil {
		return nil, nil, err
	}
	v, err := newVerifier(qs.db, blob, version)
	if err != nil {
		return nil, nil, err
	}
	r.note(v.estimates(ctx, qs.joblight, eval.answers, 0)...)
	if version == 1 {
		qerrs := make([]float64, len(eval.answers))
		for i, a := range eval.answers {
			qerrs[i] = deepsketch.QError(a.deep, float64(a.truth))
		}
		sum := metrics.Summarize(qerrs)
		r.values["qerr_median"], r.values["qerr_p95"] = sum.Median, sum.P95
	}
	return v, eval, nil
}

// walAccounting requires the daemon's WAL to hold exactly what the run put
// there: one record per admitted actual and one per drift-sampled estimate
// (parked pending, since no executor resolves it). The monitor journals
// asynchronously, so the counters are polled until they agree.
func (r *roundResult) walAccounting(ctx context.Context, c *client, id, admitted int) error {
	deadline := time.Now().Add(3 * time.Second)
	for {
		st, err := c.drift(ctx, id)
		if err != nil {
			return err
		}
		if st.WAL == nil {
			return fmt.Errorf("the feedback daemon reports no WAL")
		}
		want := uint64(admitted) + st.Monitor.Sampled - st.Monitor.Dropped
		if st.WAL.Appends == want {
			r.walBytes, r.walAppends, r.walSyncs = st.WAL.Bytes, st.WAL.Appends, st.WAL.Syncs
			return nil
		}
		if time.Now().After(deadline) {
			r.note(fmt.Errorf("WAL holds %d records, want %d admitted actuals + %d sampled − %d dropped observations",
				st.WAL.Appends, admitted, st.Monitor.Sampled, st.Monitor.Dropped))
			return nil
		}
		if err := sleepCtx(ctx, pollEvery); err != nil {
			return err
		}
	}
}

// summarize turns the timed phase into the round's metric values.
func (r *roundResult) summarize(w workloadSpec, load *tally, elapsed time.Duration) error {
	r.latencyUS, r.actualUS = load.latencyUS, load.actualUS
	var err error
	if r.values["latency_p50_us"], err = mustPercentile(w.name+" latency", sortedCopy(load.latencyUS), 0.50); err != nil {
		return err
	}
	r.elapsedS = elapsed.Seconds()
	r.values["throughput_rps"] = float64(r.requests()) / r.elapsedS
	r.values["cpu_us_per_request"] = r.daemonCPUS * 1e6 / float64(r.requests())

	hits, points := 0, 0
	for _, a := range load.answers {
		if a.hit {
			hits++
		}
		points += len(a.points)
	}
	r.hitRatio = float64(hits) / float64(len(load.answers))
	r.estimatesPerRequest = 1
	if w.kind == kindTemplate {
		r.estimatesPerRequest = float64(points) / float64(len(load.answers))
	}
	if n := len(load.actualUS); n > 0 {
		r.matchedShare = float64(load.matched) / float64(n)
	}
	r.phaseRefreshS = load.refreshS
	return nil
}
