package main

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"deepsketch"
)

// Layer names of the serving stack's spans; the per-layer metrics are
// named after them.
const (
	layerCache    = "serve.cache"
	layerObserve  = "drift.observe"
	layerClamp    = "serve.clamp"
	layerCoalesce = "serve.coalesce"
	layerView     = "lifecycle.view"
	layerTemplate = "core.template"
)

// walJournal writes the drift monitor's pending/resolved transitions to the
// observation WAL, as deepsketchd's journal of the same name does.
type walJournal struct {
	d   *deepsketch.DB
	log *deepsketch.ObservationLog
	mu  sync.Mutex
	err error // first append failure
}

func (j *walJournal) Pending(name string, version int, q deepsketch.Query, estimate float64) {
	j.append(deepsketch.WALRecord{Kind: deepsketch.WALObservation, Name: name, Version: version,
		Signature: q.Signature(), SQL: q.SQL(j.d), Estimate: estimate})
}

func (j *walJournal) Resolved(name string, version int, q deepsketch.Query, estimate, actual float64) {
	j.append(deepsketch.WALRecord{Kind: deepsketch.WALActual, Name: name, Version: version,
		Signature: q.Signature(), SQL: q.SQL(j.d), Estimate: estimate, Actual: actual})
}

func (j *walJournal) append(r deepsketch.WALRecord) {
	if err := j.log.Append(r); err != nil {
		j.mu.Lock()
		if j.err == nil {
			j.err = err
		}
		j.mu.Unlock()
	}
}

// stack is deepsketchd's per-sketch serving stack and the handler state
// around it, assembled in-process from the same exported constructors and
// in the same order as the daemon's installVersion and newServerOpts. With
// a recorder, a span-recording wrapper sits at every boundary.
type stack struct {
	d         *deepsketch.DB
	sk        *deepsketch.Sketch
	serving   deepsketch.Estimator
	cache     *deepsketch.EstimateCache
	coalescer *deepsketch.Coalescer
	monitor   *deepsketch.DriftMonitor
	hyper, pg deepsketch.Estimator
	admit     *deepsketch.ActualsAdmitter
	journal   *walJournal // feedback daemon only
	rec       *recorder

	stopMonitor context.CancelFunc
	monitorDone sync.WaitGroup
}

func newStack(ctx context.Context, w workloadSpec, d *deepsketch.DB, sk *deepsketch.Sketch, walDir string, rec *recorder) (*stack, error) {
	registry := deepsketch.NewSketchRegistry()
	s := &stack{d: d, sk: sk, rec: rec,
		pg: deepsketch.PostgresEstimator(d), admit: deepsketch.NewActualsAdmitter(deepsketch.AdmitConfig{})}
	var err error
	if s.hyper, err = deepsketch.HyperEstimator(d, 1000, fixtureDBSeed); err != nil {
		return nil, err
	}
	if _, err := registry.Publish(sketchName, sk); err != nil {
		return nil, err
	}
	// The daemon's drift configuration at default flags: every 10th computed
	// estimate is sampled, thresholds disarmed.
	cfg := deepsketch.DriftConfig{SampleEvery: 10, Window: 256, Cooldown: time.Minute}
	truth := deepsketch.TruthEstimator(d)
	if w.feedbackDaemon {
		log, err := deepsketch.OpenObservationLog(walDir, deepsketch.WALOptions{})
		if err != nil {
			return nil, err
		}
		s.journal = &walJournal{d: d, log: log}
		cfg.Journal = s.journal
		truth = nil
	}
	s.monitor = deepsketch.NewDriftMonitor(cfg, truth)
	mctx, stop := context.WithCancel(ctx)
	s.stopMonitor = stop
	s.monitorDone.Add(1)
	go func() {
		defer s.monitorDone.Done()
		s.monitor.Run(mctx)
	}()

	wrap := func(layer string, e deepsketch.Estimator) deepsketch.Estimator {
		if rec == nil {
			return e
		}
		return rec.wrap(layer, e)
	}
	s.coalescer = deepsketch.NewCoalescer(wrap(layerView, registry.Serving(sketchName)), deepsketch.CoalesceOptions{})
	s.cache = deepsketch.WithCache(
		wrap(layerObserve, deepsketch.ObserveEstimates(
			wrap(layerClamp, deepsketch.Clamp(
				wrap(layerCoalesce, s.coalescer),
				deepsketch.MaxCardinality(d))),
			s.monitor)),
		daemonCacheEntries).KeyFunc(registry.CacheKey(sketchName))
	s.serving = wrap(layerCache, s.cache)
	return s, nil
}

func (s *stack) close() error {
	s.coalescer.Close()
	s.stopMonitor()
	s.monitorDone.Wait()
	if s.journal == nil {
		return nil
	}
	s.journal.mu.Lock()
	err := s.journal.err
	s.journal.mu.Unlock()
	return errors.Join(err, s.journal.log.Close())
}

// parts is where one in-process request spent its time, in microseconds,
// in the order deepsketchd's handlers do the work.
type parts struct {
	parse, serving, truth, hyper, pg, total float64
}

func us(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 }

// estimateRequest is handleEstimate without HTTP and JSON: parse, the
// serving stack, then the three overlays.
func (s *stack) estimateRequest(ctx context.Context, sql string) (parts, deepsketch.Query, int64, error) {
	var p parts
	t0 := time.Now()
	q, err := deepsketch.ParseSQL(s.d, sql)
	if err != nil {
		return p, q, 0, err
	}
	t1 := time.Now()
	if _, err := s.serving.Estimate(ctx, q); err != nil {
		return p, q, 0, err
	}
	t2 := time.Now()
	truth, err := deepsketch.TrueCardinality(s.d, q)
	if err != nil {
		return p, q, 0, err
	}
	t3 := time.Now()
	if _, err := s.hyper.Estimate(ctx, q); err != nil {
		return p, q, 0, err
	}
	t4 := time.Now()
	if _, err := s.pg.Estimate(ctx, q); err != nil {
		return p, q, 0, err
	}
	t5 := time.Now()
	p = parts{parse: us(t1.Sub(t0)), serving: us(t2.Sub(t1)), truth: us(t3.Sub(t2)),
		hyper: us(t4.Sub(t3)), pg: us(t5.Sub(t4)), total: us(t5.Sub(t0))}
	return p, q, truth, nil
}

// actualRequest is handleSketchActuals without HTTP and JSON: parse, admit,
// resolve against the parked estimate, append to the WAL.
func (s *stack) actualRequest(sql string, actual int64, client string) error {
	q, err := deepsketch.ParseSQL(s.d, sql)
	if err != nil {
		return err
	}
	if s.admit.Admit(client, time.Now()) != deepsketch.AdmitAdmitted {
		return fmt.Errorf("actual for %q was not admitted", sql)
	}
	sig := q.Signature()
	ver, est, _, _ := s.monitor.ResolveActual(sketchName, sig, float64(actual))
	return s.journal.log.Append(deepsketch.WALRecord{Kind: deepsketch.WALActual, Name: sketchName, Version: ver,
		Signature: sig, SQL: q.SQL(s.d), Estimate: est, Actual: float64(actual), Client: client})
}

// templateRequest is handleTemplate with truth off: the sketch's batched
// template estimate. It is one span; the route passes no other boundary.
func (s *stack) templateRequest(ctx context.Context, request int, sql string) (parts, error) {
	t0 := time.Now()
	start := int64(0)
	if s.rec != nil {
		start = s.rec.now()
	}
	res, err := s.sk.EstimateTemplateSQL(ctx, sql, deepsketch.GroupDistinct, 0)
	if err != nil {
		return parts{}, err
	}
	if s.rec != nil {
		s.rec.add(span{Layer: layerTemplate, Request: request, Parent: -1, Start: start, End: s.rec.now(), Queries: len(res)})
	}
	d := us(time.Since(t0))
	return parts{serving: d, total: d}, nil
}

// request sends one of the workload's requests through the stack the way
// the daemon's handlers would.
func (s *stack) request(ctx context.Context, w workloadSpec, request int, sql, client string) (parts, error) {
	if s.rec != nil {
		ctx = withRequest(ctx, request)
	}
	if w.kind == kindTemplate {
		return s.templateRequest(ctx, request, sql)
	}
	p, _, truth, err := s.estimateRequest(ctx, sql)
	if err == nil && w.kind == kindFeedback {
		err = s.actualRequest(sql, truth, client)
	}
	return p, err
}

// replay sends the workload's queries through the stacks, closed loop from
// the given number of goroutines, for the duration d. Request i carries
// query i; the requests of one goroutine are g, g+workers, … like a
// connection's. Every request goes through each stack in turn, the order
// alternating from request to request, so that stacks under comparison see
// the same queries under the same conditions of the machine. It returns
// every request's parts, per stack.
func replay(ctx context.Context, w workloadSpec, qs *querySet, stacks []*stack, workers int, d time.Duration) ([][]parts, error) {
	deadline := time.Now().Add(d)
	out := make([][][]parts, workers) // goroutine → stack → requests
	errs := make([]error, workers)
	var wg sync.WaitGroup
	for g := 0; g < workers; g++ {
		out[g] = make([][]parts, len(stacks))
		wg.Add(1)
		go func() {
			defer wg.Done()
			client := fmt.Sprintf("bench-%d", g)
			for i := g; time.Now().Before(deadline); i += workers {
				sql := qs.sql[i%len(qs.sql)]
				for k := range stacks {
					k = (k + i/workers) % len(stacks)
					p, err := stacks[k].request(ctx, w, i, sql, client)
					if err != nil {
						errs[g] = fmt.Errorf("in-process request %d (%q): %w", i, sql, err)
						return
					}
					out[g][k] = append(out[g][k], p)
				}
			}
		}()
	}
	wg.Wait()
	all := make([][]parts, len(stacks))
	for _, perStack := range out {
		for k, ps := range perStack {
			all[k] = append(all[k], ps...)
		}
	}
	return all, errors.Join(errs...)
}

// warm runs the first n requests once, unrecorded, so a replay starts from
// the state the daemon's warm-up leaves: caches filled, pools grown.
func (s *stack) warm(ctx context.Context, w workloadSpec, qs *querySet, n int) error {
	rec := s.rec
	if rec != nil {
		rec.pause(true)
		defer rec.pause(false)
	}
	for i := 0; i < n; i++ {
		sql := qs.sql[i%len(qs.sql)]
		if w.kind == kindTemplate {
			if _, err := s.sk.EstimateTemplateSQL(ctx, sql, deepsketch.GroupDistinct, 0); err != nil {
				return err
			}
			continue
		}
		if _, _, _, err := s.estimateRequest(ctx, sql); err != nil {
			return err
		}
	}
	return nil
}

// column extracts one part of every request.
func column(ps []parts, f func(parts) float64) []float64 {
	out := make([]float64, len(ps))
	for i, p := range ps {
		out[i] = f(p)
	}
	return out
}
