// Command deepsketchd is the demonstration server: the reproduction of the
// paper's web demo (Figure 2). It serves the synthetic IMDb and TPC-H
// datasets and lets clients define Deep Sketches, monitor their training,
// and run ad-hoc and template queries against trained sketches — with
// overlays from the HyPer-style and PostgreSQL-style estimators and the
// true cardinality, like the demo UI's chart. New sketches train in the
// background while existing ones keep serving queries ("we allow users to
// train new models while querying existing ones").
//
//	deepsketchd -addr :8080 -titles 20000 -orders 15000 -prebuilt
//
// JSON API:
//
//	GET  /api/datasets                 schemas of the available datasets
//	GET  /api/sketches                 sketch list with build status
//	POST /api/sketches                 define a sketch (async build; 409 on duplicate name)
//	GET  /api/sketches/{id}            status, progress, epochs, version history, canary
//	PUT  /api/sketches/{id}            upload a sketch file and swap it in as a new version
//	GET  /api/sketches/{id}/download   serialized sketch file
//	POST /api/sketches/{id}/refresh    warm-start retrain on a delta workload, swap in (409 while a cycle or canary is active)
//	POST /api/sketches/{id}/rollback   revert to the previous version
//	GET  /api/sketches/{id}/drift      live q-error windows, trigger state, canary cycle
//	POST /api/sketches/{id}/canary     refresh into a canary at a traffic fraction (or re-fraction)
//	POST /api/sketches/{id}/promote    make the canary live for 100% of traffic
//	DELETE /api/sketches/{id}/canary   abort the canary; the live version resumes all traffic
//	POST /api/estimate                 {sketch_id, sql} -> all overlays (+ serving version)
//	POST /api/template                 {sketch_id, sql, group, buckets} -> points (+ live version)
//
// # Refreshing a live sketch
//
// Sketches are versioned, long-lived serving artifacts managed by a
// per-dataset lifecycle registry: the initial build is version 1, and
// every refresh, upload or rollback changes which version serves — under
// traffic, atomically. The estimate caches are keyed by the version that
// would answer, so the previous version's cached answers simply stop being
// looked up. To refresh a sketch after the data has drifted:
//
//	POST /api/sketches/1/refresh
//	{"queries": 2000, "epochs": 5}
//
// The daemon generates and labels a fresh delta workload over the sketch's
// tables, fine-tunes a clone of the serving model — resuming the Adam
// moments persisted in the sketch file, so a handful of epochs reaches
// full-build quality — and swaps the result in as the next version. It is
// the same cycle the drift controller runs for an automatic repair: with
// -pinned-benchmark set the candidate must pass the pinned rail first (PUT
// upload is the way around it). The old version keeps serving until the
// swap; a failed or rejected refresh never replaces it. Labeling and
// fine-tuning run on GOMAXPROCS cores while the daemon is idle and leave
// one to serving while estimate, template or actuals requests are in
// flight, deciding afresh at every training step; GET
// /api/sketches/1/drift counts each epoch's steps at either width. Poll GET
// /api/sketches/1 for status ("refreshing" → "ready", the version field
// bumps) and the full version history. If the refreshed
// model misbehaves, POST /api/sketches/1/rollback restores the previous
// version immediately; estimate responses carry the serving version so
// clients can tell which model answered. Retrained offline instead? Upload
// the .dsk file with PUT /api/sketches/1 to swap it in the same way.
//
// # Canary rollouts
//
// A refresh does not have to take 100% of traffic at once. POST
// /api/sketches/1/canary {"fraction": 0.1, "queries": 2000} fine-tunes
// like refresh but installs the result as a canary: 10% of the sketch's
// traffic (hash-split by query signature, so a given query is answered
// consistently) goes to the candidate while the live version keeps the
// rest. Estimate caches are keyed by serving version, so both splits stay
// coherent. Watch GET /api/sketches/1/drift for the per-version windowed
// q-error comparison, then POST /api/sketches/1/promote to make the
// candidate live — or DELETE /api/sketches/1/canary to withdraw it. With
// -drift on, the comparative q-error gate judges an operator's canary like
// any other and promotes or aborts it by itself.
//
// # Automatic drift repair
//
// With -drift, the daemon closes the loop itself: a monitor samples live
// estimates (every -drift-sample'th per sketch), obtains the true
// cardinality asynchronously, and keeps a windowed q-error distribution
// per sketch version. When the windowed median or p95 exceeds its
// threshold — or the -drift-staleness clock expires — the daemon
// warm-refreshes the sketch, canaries it at -canary-fraction, and promotes
// or aborts on the comparative windowed q-error once -canary-promote-after
// ground-truthed canary samples are in. With -wal the refresh trains on
// the logged actuals (observed traffic) once at least 32 distinct ones
// exist, and the trigger waits — bounded — until they do; otherwise it
// trains on a synthetic workload. GET .../drift says which, and how many.
// All of it is persisted to -store, so a restart mid-canary resumes the
// rollout where it left off.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"log"
	"math"
	"net/http"
	"os"
	"os/signal"
	"path/filepath"
	"strconv"
	"sync"
	"syscall"
	"time"

	"deepsketch"
	"deepsketch/internal/pressure"
	"deepsketch/internal/trainmon"
)

func main() {
	addr := flag.String("addr", ":8080", "listen address")
	titles := flag.Int("titles", 20000, "imdb scale (titles)")
	orders := flag.Int("orders", 15000, "tpch scale (orders)")
	seed := flag.Int64("seed", 1, "dataset seed")
	prebuilt := flag.Bool("prebuilt", false, "build a small ready-to-query sketch per dataset at startup")
	store := flag.String("store", "", "directory to persist sketches across restarts (empty = in-memory only)")
	driftAuto := flag.Bool("drift", false, "automatically refresh+canary sketches when live q-error drifts")
	driftSample := flag.Int("drift-sample", 10, "ground-truth every Nth estimate per sketch (0 disables sampling)")
	driftWindow := flag.Int("drift-window", 256, "rolling q-error window per sketch version")
	driftMedian := flag.Float64("drift-median", 0, "trigger when the windowed median q-error exceeds this (0 = off)")
	driftP95 := flag.Float64("drift-p95", 0, "trigger when the windowed p95 q-error exceeds this (0 = off)")
	driftStale := flag.Duration("drift-staleness", 0, "trigger when a sketch has not refreshed for this long (0 = off)")
	driftCooldown := flag.Duration("drift-cooldown", time.Minute, "minimum gap between drift triggers per sketch")
	driftInterval := flag.Duration("drift-interval", 5*time.Second, "canary gate / staleness evaluation interval")
	canaryFraction := flag.Float64("canary-fraction", 0.1, "traffic fraction automatic refreshes canary at")
	canaryPromote := flag.Int("canary-promote-after", 20, "ground-truthed canary samples before the gate judges")
	canaryRatio := flag.Float64("canary-max-ratio", 1.1, "promote iff canary median q-error ≤ ratio × live median")
	walDir := flag.String("wal", "", "directory for the observation WAL (empty = no durable feedback log)")
	driftTruth := flag.Bool("drift-truth", true, "ground-truth sampled estimates with the in-process exact executor; false relies on actuals POSTed to /api/sketches/{id}/actuals")
	actualsPerMin := flag.Int("actuals-per-min", 600, "per-client admission cap on POSTed actuals per minute (0 = unlimited)")
	actualsSample := flag.Int("actuals-sample", 0, "admit every Nth POSTed actual per client (<= 1 admits all)")
	walDelta := flag.Int("wal-delta", 512, "max WAL-logged actuals drawn into a refresh delta workload")
	pinnedDir := flag.String("pinned-benchmark", "", "directory of frozen per-dataset labeled workloads (<dataset>.workload) the drift controller judges every refresh candidate against before its canary starts; missing files are generated and persisted at boot (empty = rail off)")
	pinnedRegress := flag.Float64("pinned-max-regress", deepsketch.DefaultPinnedMaxRegress, "pinned-benchmark rail tolerance: a refresh candidate's median and p95 q-error on the pinned set may each be at most this ratio × the live version's")
	retainVersions := flag.Int("retain-versions", 0, "persisted non-live version files kept per sketch, pruned after each new version file and each promote (0 = keep all)")
	retainWALBytes := flag.Int64("retain-wal-bytes", 0, "WAL size budget; checkpointed segments are pruned down to it after a promote (0 = keep all)")
	flag.Parse()

	driftCfg := deepsketch.DriftConfig{
		SampleEvery: *driftSample, Window: *driftWindow,
		MaxMedianQ: *driftMedian, MaxP95Q: *driftP95,
		MaxStaleness: *driftStale, Cooldown: *driftCooldown,
	}
	if *driftSample == 0 {
		// The monitor treats 0 as "default"; the flag documents 0 as
		// "sampling off" (no ground-truth executions at all).
		driftCfg.SampleEvery = -1
	}
	if !*driftAuto {
		// Without -drift nothing runs the canary gate (Controller.Run), so
		// a fired trigger would strand its sketch in a never-judged canary.
		// The monitor still observes — GET .../drift reports the windows —
		// but the thresholds are disarmed.
		if *driftMedian > 0 || *driftP95 > 0 || *driftStale > 0 {
			log.Printf("deepsketchd: drift thresholds set without -drift — monitoring only, no automatic refresh")
		}
		driftCfg.MaxMedianQ, driftCfg.MaxP95Q, driftCfg.MaxStaleness = 0, 0, 0
	}
	srv := newServerOpts(serverOptions{
		titles: *titles, orders: *orders, seed: *seed,
		driftCfg: driftCfg,
		ctrlCfg: deepsketch.DriftControllerConfig{
			CanaryFraction: *canaryFraction, PromoteAfter: *canaryPromote, MaxQRatio: *canaryRatio,
		},
		walDir:           *walDir,
		driftTruth:       *driftTruth,
		admitCfg:         deepsketch.AdmitConfig{PerClientPerMin: *actualsPerMin, SampleEvery: *actualsSample},
		walDelta:         *walDelta,
		pinnedDir:        *pinnedDir,
		pinnedMaxRegress: *pinnedRegress,
		retainVersions:   *retainVersions,
		retainWALBytes:   *retainWALBytes,
	})
	if !*driftTruth {
		log.Printf("deepsketchd: exact executor off the serving path — ground truth via POST /api/sketches/{id}/actuals only")
	}
	if *pinnedDir != "" {
		log.Printf("deepsketchd: pinned-benchmark rail on (%s, tolerance %.2fx)", *pinnedDir, *pinnedRegress)
	}
	srv.store = *store
	if srv.store != "" {
		if n, err := srv.loadStore(); err != nil {
			log.Printf("deepsketchd: loading store: %v", err)
		} else if n > 0 {
			log.Printf("deepsketchd: restored %d sketches from %s", n, srv.store)
		}
	}
	// WAL replay must follow the store load: it rebuilds the drift monitors'
	// q-error windows and pending observations for the restored sketches.
	srv.replayWAL()
	if *prebuilt {
		srv.startPrebuilt()
	}
	// Every background loop hangs off a signal-cancellable context: on
	// SIGINT/SIGTERM the monitors and controllers wind down, the HTTP
	// server drains, and Close joins the in-flight builds and refresh cycles
	// before the process exits — so a shutdown can never truncate a store
	// write or a WAL append mid-record.
	ctx, stopSignals := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stopSignals()
	for _, mon := range srv.monitors {
		go mon.Run(ctx)
	}
	if *driftAuto {
		for _, ctrl := range srv.controllers {
			go ctrl.Run(ctx, *driftInterval)
		}
		log.Printf("deepsketchd: automatic drift repair on (median>%v p95>%v staleness>%v, canary %g%%)",
			*driftMedian, *driftP95, *driftStale, *canaryFraction*100)
	}
	log.Printf("deepsketchd listening on %s (imdb: %d total rows, tpch: %d total rows)",
		*addr, srv.datasets["imdb"].TotalRows(), srv.datasets["tpch"].TotalRows())
	httpSrv := &http.Server{Addr: *addr, Handler: srv.routes()}
	go func() {
		<-ctx.Done()
		sctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := httpSrv.Shutdown(sctx); err != nil {
			log.Printf("deepsketchd: http shutdown: %v", err)
		}
	}()
	if err := httpSrv.ListenAndServe(); err != nil && err != http.ErrServerClosed {
		log.Fatal(err)
	}
	if err := srv.Close(); err != nil {
		log.Printf("deepsketchd: shutdown: %v", err)
	}
	log.Printf("deepsketchd: shut down cleanly")
}

// sketchView is a sketch's JSON shape.
type sketchView struct {
	ID      int    `json:"id"`
	Name    string `json:"name"`
	Dataset string `json:"dataset"`
	Status  string `json:"status"` // building | failed | ready | refreshing | canarying
	Error   string `json:"error,omitempty"`
	// Version is the live sketch version in the dataset's lifecycle
	// registry: 1 after the initial build, bumped by every upload-and-swap
	// or refresh, moved back by rollback.
	Version int       `json:"version,omitempty"`
	Created time.Time `json:"created"`
}

// sketchEntry is one sketch the daemon knows about. Until its first
// version enters the dataset's registry the entry is unpublished and keeps
// its own build status; once published it stores no lifecycle state at all
// — status, version and error are read from their owners, the registry and
// the drift controller, on every request (see view).
type sketchEntry struct {
	// The embedded view's ID, Name, Dataset and Created are fixed at
	// registration. Status ("building" or "failed") and Error describe the
	// entry only while it is unpublished; published flips once, when
	// version 1 enters the registry. Those three are guarded by server.mu.
	sketchView
	published bool
	// serving is the entry's serving stack (servingStack over the registry's
	// per-name view, with no fallback). All request traffic to this sketch
	// goes through it, on the request's own goroutine.
	// The stack is built once (installServing), before the entry is
	// published, and survives every version change: the registry view routes
	// each query to whichever version (live or canary split) should answer
	// it, and cache keys embed that serving version — so a swap, canary or
	// rollback can never surface a previous version's cached answer, and
	// only the remapped queries' entries go cold.
	serving deepsketch.Estimator
	mon     *deepsketch.Monitor
	// adminMu makes "one registry mutation, then its store write" a single
	// step per entry: operator upload, rollback, promote, abort and
	// re-fraction hold it around both halves, and so does the drift-event
	// handler for the transitions a cycle produces. Without it two store
	// writes could land in the opposite order of the mutations they record.
	// server.mu (which only guards field access) nests inside it.
	adminMu sync.Mutex
}

// cacheCapacity is the entries each of the daemon's LRUs holds: every
// serving stack's estimate cache and each of a dataset's overlay caches.
const cacheCapacity = 1024

// baseline holds a dataset's demo overlays — the true cardinality, HyPer's
// and PostgreSQL's estimates — each behind its own LRU keyed by
// Query.Signature, so a query is counted and estimated once while it stays
// cached, whichever of /api/estimate, /api/template or the drift monitor
// asks first. Caching is exact: a dataset is generated at start-up and
// never written, HyPer's sample is drawn once, and each overlay is a
// function of the query. Errors are never cached.
type baseline struct {
	truth, hyper, pg *deepsketch.EstimateCache
}

// overlays answers q's three overlays from the dataset's caches. The true
// count comes back as Count's int64: counts below 2^53 survive the float64
// round trip exactly, and Count's saturation at MaxInt64 (whose float64 is
// 2^63, beyond int64) reads back as MaxInt64.
func (b baseline) overlays(ctx context.Context, q deepsketch.Query) (truth int64, hyper, pg float64, err error) {
	te, err := b.truth.Estimate(ctx, q)
	if err != nil {
		return 0, 0, 0, err
	}
	truth = math.MaxInt64
	if te.Cardinality < 1<<63 {
		truth = int64(te.Cardinality)
	}
	he, err := b.hyper.Estimate(ctx, q)
	if err != nil {
		return 0, 0, 0, err
	}
	pe, err := b.pg.Estimate(ctx, q)
	if err != nil {
		return 0, 0, 0, err
	}
	return truth, he.Cardinality, pe.Cardinality, nil
}

type server struct {
	datasets map[string]*deepsketch.DB
	baseline map[string]baseline
	// registries hold each dataset's versioned sketch fleet: auto-routed
	// queries dispatch through the registry's router to the most specific
	// ready sketch, and the admin endpoints publish, swap, canary and roll
	// back versions through the registry. auto wraps each router
	// in the serving chain Router → PostgreSQL, so a query no sketch covers
	// still gets an answer instead of an error.
	registries map[string]*deepsketch.SketchRegistry
	auto       map[string]*deepsketch.EstimateCache
	// monitors watch each dataset's live estimate quality (drift windows);
	// controllers run every refresh cycle — a drift trigger's, an operator's
	// refresh, an operator's canary — and the canary gate. The monitor
	// queues are only drained once main starts their Run loops.
	monitors    map[string]*deepsketch.DriftMonitor
	controllers map[string]*deepsketch.DriftController

	// wals hold each dataset's observation WAL (nil entries when -wal is
	// unset): the durable log of served estimates and observed actuals the
	// drift monitors journal to and are rebuilt from at startup.
	wals map[string]*deepsketch.ObservationLog
	// pinned holds each dataset's frozen pinned benchmark (empty map when
	// -pinned-benchmark is unset); pinnedMaxRegress is the rail tolerance.
	pinned           map[string]*deepsketch.PinnedBenchmark
	pinnedMaxRegress float64
	// admit rate-limits the logged-actuals ingest path per client.
	admit *deepsketch.ActualsAdmitter
	// walDelta caps how many WAL-logged actuals a refresh delta workload
	// draws; retainWALBytes is applied after a promote, retainVersions
	// after each new version file and each promote.
	walDelta       int
	retainVersions int
	retainWALBytes int64

	// store, when non-empty, is a directory where ready sketches are
	// persisted and from which they are restored at startup.
	store string

	mu       sync.RWMutex
	sketches map[int]*sketchEntry
	nextID   int

	// bg tracks every background build goroutine the server launches (the
	// controllers track their own refresh cycles). Close joins both before
	// releasing the WALs: without the join, Close could return — and a test
	// or the process could tear the store directory down — while a build
	// or a refresh is still writing sketch files.
	bg sync.WaitGroup
}

// Close joins the in-flight builds and refresh cycles — whoever started
// them — then closes the observation WALs. After it returns no goroutine
// owned by this server is running, and nothing is touching the store
// directory or the WAL files.
func (s *server) Close() error {
	s.bg.Wait()
	for _, ctrl := range s.controllers {
		ctrl.Close()
	}
	var firstErr error
	for name, l := range s.wals {
		if l == nil {
			continue
		}
		if err := l.Close(); err != nil && firstErr == nil {
			firstErr = fmt.Errorf("closing %s wal: %w", name, err)
		}
	}
	return firstErr
}

// serverOptions parameterizes newServerOpts.
type serverOptions struct {
	titles, orders int
	seed           int64
	driftCfg       deepsketch.DriftConfig
	ctrlCfg        deepsketch.DriftControllerConfig
	// walDir, when non-empty, roots per-dataset observation WALs at
	// walDir/<dataset>.
	walDir string
	// driftTruth makes the exact executor, through the truth overlay's
	// cache, the monitors' in-process ground-truth source; false leaves the
	// monitors without one — actuals arrive only via POST
	// /api/sketches/{id}/actuals.
	driftTruth     bool
	admitCfg       deepsketch.AdmitConfig
	walDelta       int
	retainVersions int
	retainWALBytes int64
	// pinnedDir, when non-empty, roots per-dataset pinned benchmarks at
	// pinnedDir/<dataset>.workload — the frozen held-out sets the drift
	// controllers judge refresh candidates against before any canary.
	// Missing files are generated from the dataset and persisted at boot.
	pinnedDir        string
	pinnedMaxRegress float64
}

func newServerOpts(opts serverOptions) *server {
	s := &server{
		datasets: map[string]*deepsketch.DB{
			"imdb": deepsketch.NewIMDb(deepsketch.IMDbConfig{Seed: opts.seed, Titles: opts.titles}),
			"tpch": deepsketch.NewTPCH(deepsketch.TPCHConfig{Seed: opts.seed, Orders: opts.orders}),
		},
		baseline:         map[string]baseline{},
		registries:       map[string]*deepsketch.SketchRegistry{},
		auto:             map[string]*deepsketch.EstimateCache{},
		monitors:         map[string]*deepsketch.DriftMonitor{},
		controllers:      map[string]*deepsketch.DriftController{},
		wals:             map[string]*deepsketch.ObservationLog{},
		pinned:           map[string]*deepsketch.PinnedBenchmark{},
		pinnedMaxRegress: opts.pinnedMaxRegress,
		admit:            deepsketch.NewActualsAdmitter(opts.admitCfg),
		walDelta:         opts.walDelta,
		retainVersions:   opts.retainVersions,
		retainWALBytes:   opts.retainWALBytes,
		sketches:         map[int]*sketchEntry{},
		nextID:           1,
	}
	if s.walDelta <= 0 {
		s.walDelta = 512
	}
	seed, driftCfg, ctrlCfg := opts.seed, opts.driftCfg, opts.ctrlCfg
	for name, d := range s.datasets {
		hyper, err := deepsketch.HyperEstimator(d, 1000, seed)
		if err != nil {
			log.Fatalf("baseline for %s: %v", name, err)
		}
		pg := deepsketch.PostgresEstimator(d)
		bl := baseline{
			truth: deepsketch.WithCache(deepsketch.TruthEstimator(d), cacheCapacity),
			hyper: deepsketch.WithCache(hyper, cacheCapacity),
			pg:    deepsketch.WithCache(pg, cacheCapacity),
		}
		s.baseline[name] = bl
		reg := deepsketch.NewSketchRegistry()
		s.registries[name] = reg
		// The observation WAL journals every pending/resolved monitor
		// transition for this dataset; replayWAL rebuilds monitor state from
		// it after a restart.
		if opts.walDir != "" {
			l, err := deepsketch.OpenObservationLog(filepath.Join(opts.walDir, name), deepsketch.WALOptions{})
			if err != nil {
				log.Fatalf("wal for %s: %v", name, err)
			}
			s.wals[name] = l
			driftCfg.Journal = &walJournal{d: d, log: l}
		} else {
			driftCfg.Journal = nil
		}
		// The drift monitor windows q-errors per sketch version; with
		// -drift-truth it ground-truths sampled estimates against the exact
		// executor (the demo's HyPer role) through the truth overlay's cache,
		// so a sampled query the demo already counted is not counted again;
		// without it every sampled estimate parks pending until a logged
		// actual arrives. The controller runs every refresh cycle: the ones
		// monitor triggers start and the ones the refresh/canary endpoints
		// start.
		var truth deepsketch.Estimator
		if opts.driftTruth {
			truth = bl.truth
		}
		mon := deepsketch.NewDriftMonitor(driftCfg, truth)
		s.monitors[name] = mon
		dcc := ctrlCfg
		dataset := name
		// The pinned-benchmark rail: a frozen clean labeled set per dataset,
		// loaded (or generated once and persisted) at boot, that every
		// refresh candidate must not regress on before it is installed.
		// Unlike the live windows and the WAL-derived delta workload — both
		// functions of observed traffic, which an adaptive feedback source
		// controls — the pinned set predates any attack traffic.
		if opts.pinnedDir != "" {
			pb, err := loadOrCreatePinned(d, filepath.Join(opts.pinnedDir, name+".workload"), opts.seed)
			if err != nil {
				log.Fatalf("pinned benchmark for %s: %v", name, err)
			}
			s.pinned[name] = pb
			dcc.Pinned = pb
			dcc.PinnedMaxRegress = opts.pinnedMaxRegress
		}
		// The two workload sources a triggered cycle chooses between: the
		// WAL's logged actuals when -wal is set (the controller requires
		// enough of them, and says so when it has to wait or give up), and
		// the synthetic generator — the same one operator refreshes use.
		if s.wals[name] != nil {
			dcc.Observed = func(sketchName string) []deepsketch.LabeledQuery {
				return s.walWorkload(dataset, sketchName)
			}
		}
		dcc.Synthetic = s.syntheticSource(dataset, refreshReq{})
		dcc.OnEvent = func(ev deepsketch.DriftEvent) { s.onDriftEvent(dataset, ev) }
		s.controllers[name] = deepsketch.NewDriftController(reg, mon, dcc)
		// Auto-routed traffic gets the same stack as explicit sketch
		// requests, over the router instead of one name's view, with
		// PostgreSQL answering the queries no sketch covers. The router's
		// CacheKey is the query signature qualified by the answering sketch
		// version, so a swap, canary start, re-fraction, promote or rollback
		// changes the key of exactly the queries whose answering version
		// changed, and the rest of the cache stays warm. The fallback is the
		// bare PostgreSQL estimator, not the overlay's cache: a hit there
		// would mark a miss of this stack as a cache hit.
		s.auto[name] = servingStack(d, reg.Router(), mon, reg.Router().CacheKey, pg)
	}
	return s
}

// servingStack assembles every serving stack the daemon has: an LRU
// estimate cache keyed by key, over backend clamped into
// [1, MaxCardinality(d)] and tapped by the drift monitor, then the
// fallbacks in order. The tap sits below the cache, because a hit repeats a
// known answer, and wraps only backend, because a fallback's answer is not
// a sketch's to judge. An estimate runs on its caller's goroutine; a caller
// with several queries batches them itself through EstimateBatch.
func servingStack(d *deepsketch.DB, backend deepsketch.Estimator, mon *deepsketch.DriftMonitor,
	key func(deepsketch.Query) string, fallbacks ...deepsketch.Estimator) *deepsketch.EstimateCache {
	chain := append([]deepsketch.Estimator{
		deepsketch.ObserveEstimates(deepsketch.Clamp(backend, deepsketch.MaxCardinality(d)), mon),
	}, fallbacks...)
	return deepsketch.WithCache(deepsketch.Fallback(chain...), cacheCapacity).KeyFunc(key)
}

// syntheticSource returns a workload source that generates and labels a
// fresh delta workload over the live sketch's tables — the one synthetic
// generator behind operator refreshes and canaries (req from the request
// body) and behind triggered cycles that have no observed traffic to train
// on (zero req). The default seed derives from the monotone history
// length, not the live version number: after a rollback the live version
// repeats, and the seed must not, or the refresh would regenerate the
// exact delta workload that produced the rolled-back model.
func (s *server) syntheticSource(dataset string, req refreshReq) func(context.Context, string) ([]deepsketch.LabeledQuery, error) {
	return func(_ context.Context, sketchName string) ([]deepsketch.LabeledQuery, error) {
		d := s.datasets[dataset]
		reg := s.registries[dataset]
		live, _, err := reg.Live(sketchName)
		if err != nil {
			return nil, err
		}
		count, seed := req.Queries, req.Seed
		if count <= 0 {
			count = 1000
		}
		if seed == 0 {
			vs, err := reg.Versions(sketchName)
			if err != nil {
				return nil, err
			}
			seed = int64(len(vs) + 1)
		}
		qs, err := deepsketch.GenerateWorkload(d, deepsketch.GenConfig{
			Seed: seed, Count: count, Tables: live.Cfg.Tables,
			MaxJoins: live.Cfg.MaxJoins, MaxPreds: live.Cfg.MaxPreds, Dedup: true,
		})
		if err != nil {
			return nil, err
		}
		return deepsketch.LabelWorkload(d, qs)
	}
}

// onDriftEvent is where the daemon follows the controller's cycles — every
// refresh, whoever started it: it logs each transition and makes the ones
// that change what a restart must restore durable (a new version file, the
// live pointer, the canary state, retention after a promote). It writes no
// status: the API reads that from the controller and the registry.
func (s *server) onDriftEvent(dataset string, ev deepsketch.DriftEvent) {
	e := s.entryByName(dataset, ev.Name)
	if e == nil {
		return
	}
	reg := s.registries[dataset]
	switch ev.Kind {
	case "refresh_started":
		log.Printf("deepsketchd: refresh of %q started (%s), %s workload", ev.Name, ev.Reason, ev.Workload.Source)
		if sf := ev.Workload.Shortfall; sf != nil {
			log.Printf("deepsketchd: refresh of %q falls back to a synthetic workload: still %d of %d logged actuals since %s",
				ev.Name, sf.Have, sf.Want, sf.Since.Format(time.RFC3339))
		}
	case "swapped", "canary_started":
		log.Printf("deepsketchd: refresh of %q landed v%d (%s, %d %s queries)",
			ev.Name, ev.Version, ev.Kind, ev.Workload.Count, ev.Workload.Source)
		e.adminMu.Lock()
		if sk, err := reg.Sketch(ev.Name, ev.Version); err == nil {
			s.persistVersion(e, sk, ev.Version)
		}
		e.adminMu.Unlock()
	case "promoted", "aborted":
		log.Printf("deepsketchd: canary v%d of %q %s by the q-error gate", ev.Version, ev.Name, ev.Kind)
		e.adminMu.Lock()
		s.persistState(e)
		if ev.Kind == "promoted" {
			s.applyRetention(dataset, e)
		}
		e.adminMu.Unlock()
	case "pinned_rejected":
		log.Printf("deepsketchd: refresh of %q rejected by the pinned benchmark: candidate median %.3g vs live %.3g (tolerance %.2fx), p95 %.3g vs %.3g",
			ev.Name, ev.Pinned.Candidate.Median, ev.Pinned.Live.Median, ev.Pinned.MaxRegress,
			ev.Pinned.Candidate.P95, ev.Pinned.Live.P95)
	case "error":
		log.Printf("deepsketchd: refresh cycle for %q failed: %v", ev.Name, ev.Err)
	}
}

// entryByName finds the published entry serving (dataset, name), or nil.
// Published-ness decides: a name may be reused after a failed build, so a
// dead "failed" entry can share it with the live one, and only the live
// one may receive the controller's events.
func (s *server) entryByName(dataset, name string) *sketchEntry {
	s.mu.RLock()
	defer s.mu.RUnlock()
	for _, e := range s.sketches {
		if e.published && e.Dataset == dataset && e.Name == name {
			return e
		}
	}
	return nil
}

// failBuild records why an unpublished entry will never serve.
func (s *server) failBuild(e *sketchEntry, err error) {
	s.mu.Lock()
	e.Status, e.Error = "failed", err.Error()
	s.mu.Unlock()
}

// markReady publishes a built sketch into the dataset's registry as a new
// name (version 1) and persists it. Only then is the entry marked
// published, so "ready" is never reported before the store holds the
// version file and state.json; from there on its status is derived, not
// stored.
func (s *server) markReady(e *sketchEntry, sk *deepsketch.Sketch) {
	s.installServing(e)
	ver, err := s.registries[e.Dataset].Publish(e.Name, sk)
	if err != nil {
		s.failBuild(e, err)
		return
	}
	s.persistVersion(e, sk, ver)
	s.mu.Lock()
	e.published = true
	s.mu.Unlock()
}

// installServing builds the entry's serving stack, once per entry, before
// it is published by a build or a store restore. The stack is shared
// across versions: it serves through the registry's per-name view, whose
// answers and cache keys are version-aware, so a version change needs no
// stack rebuild — the old version's cache lines simply stop being looked
// up.
func (s *server) installServing(e *sketchEntry) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if e.serving != nil {
		return
	}
	reg := s.registries[e.Dataset]
	e.serving = servingStack(s.datasets[e.Dataset], reg.Serving(e.Name), s.monitors[e.Dataset], reg.CacheKey(e.Name))
}

// view snapshots an entry for the API. An unpublished entry reports its
// stored build status. A published one reads everything from the owners of
// that state — the controller's cycle first, then the registry — so that
// "ready" is never reported with the version from before the cycle that
// just finished: refreshing while a cycle trains or installs, canarying
// while the registry splits traffic, ready otherwise; the error is why the
// last cycle did not land.
func (s *server) view(e *sketchEntry) sketchView {
	s.mu.RLock()
	v, published := e.sketchView, e.published
	s.mu.RUnlock()
	if !published {
		return v
	}
	reg := s.registries[e.Dataset]
	cy := s.controllers[e.Dataset].Cycle(e.Name)
	_, canarying := reg.Canary(e.Name)
	live, _ := reg.LiveVersion(e.Name)
	status := "ready"
	switch {
	case cy.State == "refreshing":
		status = "refreshing"
	case canarying:
		status = "canarying"
	}
	v.Status, v.Error, v.Version = status, cy.LastError, live
	return v
}

func (s *server) routes() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /", s.handleIndex)
	mux.HandleFunc("GET /api/datasets", s.handleDatasets)
	mux.HandleFunc("GET /api/sketches", s.handleSketchList)
	mux.HandleFunc("POST /api/sketches", s.handleSketchCreate)
	mux.HandleFunc("GET /api/sketches/{id}", s.handleSketchGet)
	mux.HandleFunc("PUT /api/sketches/{id}", s.handleSketchUpload)
	mux.HandleFunc("GET /api/sketches/{id}/download", s.handleSketchDownload)
	mux.HandleFunc("POST /api/sketches/{id}/refresh", s.handleSketchRefresh)
	mux.HandleFunc("POST /api/sketches/{id}/rollback", s.handleSketchRollback)
	mux.HandleFunc("GET /api/sketches/{id}/drift", s.handleSketchDrift)
	mux.HandleFunc("POST /api/sketches/{id}/actuals", serving(s.handleSketchActuals))
	mux.HandleFunc("POST /api/sketches/{id}/canary", s.handleSketchCanary)
	mux.HandleFunc("POST /api/sketches/{id}/promote", s.handleSketchPromote)
	mux.HandleFunc("DELETE /api/sketches/{id}/canary", s.handleSketchCanaryAbort)
	mux.HandleFunc("POST /api/estimate", serving(s.handleEstimate))
	mux.HandleFunc("POST /api/template", serving(s.handleTemplate))
	return mux
}

// serving brackets a serving route's handler with the process's
// serving-pressure gauge: while one of its requests is in flight, training
// and labeling — refreshes, canaries, drift cycles, new builds — leave a
// core to serving (internal/pressure).
func serving(h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		pressure.Begin()
		defer pressure.End()
		h(w, r)
	}
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	if err := json.NewEncoder(w).Encode(v); err != nil {
		log.Printf("deepsketchd: encode response: %v", err)
	}
}

func writeErr(w http.ResponseWriter, status int, err error) {
	writeJSON(w, status, map[string]string{"error": err.Error()})
}

func (s *server) handleDatasets(w http.ResponseWriter, _ *http.Request) {
	type colInfo struct {
		Name string `json:"name"`
		Type string `json:"type"`
	}
	type tblInfo struct {
		Name string    `json:"name"`
		Rows int       `json:"rows"`
		Cols []colInfo `json:"columns"`
	}
	out := map[string][]tblInfo{}
	for name, d := range s.datasets {
		var tbls []tblInfo
		for _, tn := range d.TableNames() {
			t := d.Table(tn)
			ti := tblInfo{Name: tn, Rows: t.NumRows()}
			for _, c := range t.Cols {
				ti.Cols = append(ti.Cols, colInfo{Name: c.Name, Type: c.Type.String()})
			}
			tbls = append(tbls, ti)
		}
		out[name] = tbls
	}
	writeJSON(w, http.StatusOK, out)
}

type createReq struct {
	Name         string   `json:"name"`
	Dataset      string   `json:"dataset"`
	Tables       []string `json:"tables"`
	SampleSize   int      `json:"sample_size"`
	TrainQueries int      `json:"train_queries"`
	Epochs       int      `json:"epochs"`
	HiddenUnits  int      `json:"hidden_units"`
	Seed         int64    `json:"seed"`
}

func (s *server) handleSketchCreate(w http.ResponseWriter, r *http.Request) {
	var req createReq
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		writeErr(w, http.StatusBadRequest, err)
		return
	}
	if req.Dataset == "" {
		req.Dataset = "imdb"
	}
	d, ok := s.datasets[req.Dataset]
	if !ok {
		writeErr(w, http.StatusBadRequest, fmt.Errorf("unknown dataset %q", req.Dataset))
		return
	}
	entry, err := s.register(req.Name, req.Dataset)
	if err != nil {
		// Duplicate names conflict with the lifecycle registry's version
		// keying: 409, not a silent second fleet member.
		writeErr(w, http.StatusConflict, err)
		return
	}
	s.bg.Add(1)
	go func() {
		defer s.bg.Done()
		s.build(entry, d, req)
	}()
	writeJSON(w, http.StatusAccepted, s.view(entry))
}

func (s *server) register(name, dataset string) (*sketchEntry, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if name != "" {
		for _, e := range s.sketches {
			if e.Name == name && e.Dataset == dataset && (e.published || e.Status != "failed") {
				return nil, fmt.Errorf("sketch %q already exists on %s (id %d); upload to PUT /api/sketches/%d to replace it", name, dataset, e.ID, e.ID)
			}
		}
	}
	id := s.nextID
	s.nextID++
	if name == "" {
		name = fmt.Sprintf("%s-sketch-%d", dataset, id)
	}
	e := &sketchEntry{
		sketchView: sketchView{ID: id, Name: name, Dataset: dataset, Status: "building", Created: time.Now()},
		mon:        deepsketch.NewMonitor(),
	}
	s.sketches[id] = e
	return e, nil
}

// build runs the creation pipeline in the background.
func (s *server) build(e *sketchEntry, d *deepsketch.DB, req createReq) {
	mcfg := deepsketch.DefaultModelConfig()
	if req.Epochs > 0 {
		mcfg.Epochs = req.Epochs
	}
	if req.HiddenUnits > 0 {
		mcfg.HiddenUnits = req.HiddenUnits
	}
	mcfg.Seed = req.Seed
	cfg := deepsketch.Config{
		Name: e.Name, Tables: req.Tables, SampleSize: req.SampleSize,
		TrainQueries: req.TrainQueries, Seed: req.Seed, Model: mcfg,
	}
	sk, err := deepsketch.Build(d, cfg, e.mon)
	if err != nil {
		s.failBuild(e, err)
		return
	}
	s.markReady(e, sk)
}

// startPrebuilt creates one small high-quality sketch per dataset so users
// can query immediately ("we offer pre-built (high quality) models that can
// be queried right away").
func (s *server) startPrebuilt() {
	for name, d := range s.datasets {
		e, err := s.register("prebuilt-"+name, name)
		if err != nil {
			log.Printf("deepsketchd: prebuilt %s: %v", name, err)
			continue
		}
		s.bg.Add(1)
		go func(e *sketchEntry, d *deepsketch.DB, name string) {
			defer s.bg.Done()
			s.build(e, d, createReq{
				Dataset: name, SampleSize: 500, TrainQueries: 3000, Epochs: 20, HiddenUnits: 32, Seed: 7,
			})
		}(e, d, name)
	}
}

func (s *server) handleSketchList(w http.ResponseWriter, _ *http.Request) {
	s.mu.RLock()
	entries := make([]*sketchEntry, 0, len(s.sketches))
	for id := 1; id < s.nextID; id++ {
		if e, ok := s.sketches[id]; ok {
			entries = append(entries, e)
		}
	}
	s.mu.RUnlock()
	out := make([]sketchView, len(entries))
	for i, e := range entries {
		out[i] = s.view(e)
	}
	writeJSON(w, http.StatusOK, out)
}

func (s *server) entryByID(r *http.Request) (*sketchEntry, error) {
	id, err := strconv.Atoi(r.PathValue("id"))
	if err != nil {
		return nil, fmt.Errorf("bad sketch id")
	}
	s.mu.RLock()
	defer s.mu.RUnlock()
	e, ok := s.sketches[id]
	if !ok {
		return nil, fmt.Errorf("no sketch %d", id)
	}
	return e, nil
}

func (s *server) handleSketchGet(w http.ResponseWriter, r *http.Request) {
	e, err := s.entryByID(r)
	if err != nil {
		writeErr(w, http.StatusNotFound, err)
		return
	}
	type resp struct {
		sketchView
		Progress trainmon.Snapshot          `json:"progress"`
		Epochs   []trainmon.Event           `json:"epoch_events"`
		Versions []deepsketch.SketchVersion `json:"versions,omitempty"`
		Canary   *deepsketch.SketchCanary   `json:"canary,omitempty"`
	}
	var epochs []trainmon.Event
	for _, ev := range e.mon.Events() {
		if ev.Kind == trainmon.KindEpoch {
			epochs = append(epochs, ev)
		}
	}
	// A sketch that never reached the registry (still building, or failed)
	// has no version history; any other error would also mean "nothing to
	// show", so the list stays empty rather than failing the GET.
	var versions []deepsketch.SketchVersion
	if vs, err := s.registries[e.Dataset].Versions(e.Name); err == nil {
		versions = vs
	}
	var canary *deepsketch.SketchCanary
	if ci, ok := s.registries[e.Dataset].Canary(e.Name); ok {
		canary = &ci
	}
	writeJSON(w, http.StatusOK, resp{sketchView: s.view(e), Progress: e.mon.Snapshot(), Epochs: epochs, Versions: versions, Canary: canary})
}

func (s *server) handleSketchDownload(w http.ResponseWriter, r *http.Request) {
	e, err := s.entryByID(r)
	if err != nil {
		writeErr(w, http.StatusNotFound, err)
		return
	}
	sk, _, err := s.registries[e.Dataset].Live(e.Name)
	if err != nil {
		writeErr(w, http.StatusConflict, fmt.Errorf("sketch %d not ready", e.ID))
		return
	}
	w.Header().Set("Content-Type", "application/octet-stream")
	w.Header().Set("Content-Disposition", fmt.Sprintf("attachment; filename=%q", e.Name+".dsk"))
	if err := sk.Save(w); err != nil {
		log.Printf("deepsketchd: download: %v", err)
	}
}

// handleSketchUpload is upload-and-swap: the request body is a serialized
// sketch file (as produced by download or `deepsketch build/refresh`),
// which atomically replaces the entry's serving sketch as a new version.
// The uploaded sketch must belong to the entry's dataset; its name is
// overridden to the entry's name, since the version chain is keyed by it.
func (s *server) handleSketchUpload(w http.ResponseWriter, r *http.Request) {
	e, err := s.entryByID(r)
	if err != nil {
		writeErr(w, http.StatusNotFound, err)
		return
	}
	// Cap the upload: sketches are a few MiB; a stream claiming more is
	// not a sketch file. Load holds every length field in the body to the
	// same figure, so the cap bounds memory as well as bytes read.
	sk, err := deepsketch.Load(http.MaxBytesReader(w, r.Body, deepsketch.MaxSketchBytes))
	if err != nil {
		writeErr(w, http.StatusBadRequest, fmt.Errorf("not a sketch file: %w", err))
		return
	}
	e.adminMu.Lock()
	defer e.adminMu.Unlock()
	if status := s.view(e).Status; status != "ready" {
		writeErr(w, http.StatusConflict, fmt.Errorf("sketch %d is %s", e.ID, status))
		return
	}
	if sk.DBName != e.Dataset {
		writeErr(w, http.StatusBadRequest, fmt.Errorf("uploaded sketch is for dataset %q, entry %d serves %q", sk.DBName, e.ID, e.Dataset))
		return
	}
	sk.Cfg.Name = e.Name
	ver, err := s.registries[e.Dataset].Swap(e.Name, sk)
	if err != nil {
		writeErr(w, http.StatusConflict, err)
		return
	}
	s.persistVersion(e, sk, ver)
	writeJSON(w, http.StatusOK, s.view(e))
}

type refreshReq struct {
	// Queries sizes the generated drift-delta workload (default 1000).
	Queries int `json:"queries"`
	// Seed drives delta workload generation; vary it across refreshes so
	// each one sees fresh queries (default: the sketch's history length
	// plus one, see syntheticSource).
	Seed int64 `json:"seed"`
	// Epochs caps the fine-tune budget (default: the sketch's build epochs).
	Epochs int `json:"epochs"`
	// StopAtValQ stops early at this validation mean q-error (0 disables).
	StopAtValQ float64 `json:"stop_at_val_q"`
}

// handleSketchRefresh warm-start retrains the serving sketch on a freshly
// generated delta workload in the background and swaps the result in as a
// new version. The current version keeps serving until the swap; a failed
// or rail-rejected refresh leaves it serving and reports the error.
func (s *server) handleSketchRefresh(w http.ResponseWriter, r *http.Request) {
	e, err := s.entryByID(r)
	if err != nil {
		writeErr(w, http.StatusNotFound, err)
		return
	}
	var req refreshReq
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil && err != io.EOF {
		writeErr(w, http.StatusBadRequest, err)
		return
	}
	s.startCycle(w, e, req, 0)
}

// startCycle starts an operator's refresh cycle in the drift controller —
// a direct swap (fraction 0) or a canary at the given traffic fraction —
// and answers 202 with the entry already "refreshing", or 409 when the
// controller refuses: the sketch is not published, or it already has a
// cycle (an operator's or a drift trigger's) or an active canary.
func (s *server) startCycle(w http.ResponseWriter, e *sketchEntry, req refreshReq, fraction float64) {
	err := s.controllers[e.Dataset].Start(e.Name, deepsketch.DriftCycleOptions{
		Reason:         deepsketch.DriftReason{Kind: "operator"},
		Workload:       s.syntheticSource(e.Dataset, req),
		CanaryFraction: fraction,
		Epochs:         req.Epochs, StopAtValQ: req.StopAtValQ,
		Monitor: e.mon,
	})
	if err != nil {
		writeErr(w, http.StatusConflict, err)
		return
	}
	writeJSON(w, http.StatusAccepted, s.view(e))
}

// canaryReq parameterizes POST /api/sketches/{id}/canary: the refresh
// fields plus the traffic fraction to canary at. On a sketch with an
// active canary, only Fraction is honoured (the split is re-fractioned).
type canaryReq struct {
	refreshReq
	// Fraction is the share of traffic the canary answers (default 0.1).
	Fraction float64 `json:"fraction"`
}

// handleSketchCanary refreshes the sketch into a canary at the requested
// traffic fraction — or, when a canary is already active, widens or
// narrows its split.
func (s *server) handleSketchCanary(w http.ResponseWriter, r *http.Request) {
	e, err := s.entryByID(r)
	if err != nil {
		writeErr(w, http.StatusNotFound, err)
		return
	}
	var req canaryReq
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil && err != io.EOF {
		writeErr(w, http.StatusBadRequest, err)
		return
	}
	if req.Fraction == 0 {
		req.Fraction = 0.1
	}
	if req.Fraction < 0 || req.Fraction > 1 {
		writeErr(w, http.StatusBadRequest, fmt.Errorf("fraction %v outside (0, 1]", req.Fraction))
		return
	}
	reg := s.registries[e.Dataset]
	if _, ok := reg.Canary(e.Name); !ok {
		s.startCycle(w, e, req.refreshReq, req.Fraction)
		return
	}
	// Active canary: adjust the traffic split.
	e.adminMu.Lock()
	defer e.adminMu.Unlock()
	if err := reg.SetCanaryFraction(e.Name, req.Fraction); err != nil {
		writeErr(w, http.StatusConflict, err)
		return
	}
	s.persistState(e)
	writeJSON(w, http.StatusOK, s.view(e))
}

// handleSketchPromote makes the active canary the live version for all
// traffic.
func (s *server) handleSketchPromote(w http.ResponseWriter, r *http.Request) {
	e, err := s.entryByID(r)
	if err != nil {
		writeErr(w, http.StatusNotFound, err)
		return
	}
	e.adminMu.Lock()
	defer e.adminMu.Unlock()
	ver, err := s.registries[e.Dataset].PromoteCanary(e.Name)
	if err != nil {
		writeErr(w, http.StatusConflict, err)
		return
	}
	s.persistState(e)
	s.applyRetention(e.Dataset, e)
	log.Printf("deepsketchd: canary v%d of %q promoted by operator", ver, e.Name)
	writeJSON(w, http.StatusOK, s.view(e))
}

// handleSketchCanaryAbort withdraws the active canary; the live version
// resumes answering all traffic. The aborted version stays in the history.
func (s *server) handleSketchCanaryAbort(w http.ResponseWriter, r *http.Request) {
	e, err := s.entryByID(r)
	if err != nil {
		writeErr(w, http.StatusNotFound, err)
		return
	}
	e.adminMu.Lock()
	defer e.adminMu.Unlock()
	reg := s.registries[e.Dataset]
	ci, ok := reg.Canary(e.Name)
	if !ok {
		writeErr(w, http.StatusConflict, fmt.Errorf("sketch %d has no active canary", e.ID))
		return
	}
	if err := reg.AbortCanary(e.Name); err != nil {
		writeErr(w, http.StatusConflict, err)
		return
	}
	s.persistState(e)
	log.Printf("deepsketchd: canary v%d of %q aborted by operator", ci.Version, e.Name)
	writeJSON(w, http.StatusOK, s.view(e))
}

// handleSketchDrift reports the sketch's live-quality picture: the drift
// monitor's windowed q-error per version, the controller's cycle state,
// and the active canary, if any.
func (s *server) handleSketchDrift(w http.ResponseWriter, r *http.Request) {
	e, err := s.entryByID(r)
	if err != nil {
		writeErr(w, http.StatusNotFound, err)
		return
	}
	resp := map[string]any{
		"monitor": s.monitors[e.Dataset].Status(e.Name),
		"cycle":   s.controllers[e.Dataset].Cycle(e.Name),
	}
	if ci, ok := s.registries[e.Dataset].Canary(e.Name); ok {
		resp["canary"] = ci
	}
	if l := s.wals[e.Dataset]; l != nil {
		resp["wal"] = l.Stats()
		resp["wal_actuals"] = l.ActualCount(e.Name)
		resp["wal_workloads"] = s.controllers[e.Dataset].ObservedCycles()
	}
	// The rail's last judgment travels inside "cycle" (CycleStatus.Pinned);
	// these describe the rail configuration itself.
	if pb := s.pinned[e.Dataset]; pb != nil {
		resp["pinned_size"] = pb.Len()
		resp["pinned_max_regress"] = s.pinnedMaxRegress
	}
	writeJSON(w, http.StatusOK, resp)
}

// handleSketchRollback reverts the entry to the version before the live
// one; the rolled-back-to version serves immediately.
func (s *server) handleSketchRollback(w http.ResponseWriter, r *http.Request) {
	e, err := s.entryByID(r)
	if err != nil {
		writeErr(w, http.StatusNotFound, err)
		return
	}
	e.adminMu.Lock()
	defer e.adminMu.Unlock()
	if status := s.view(e).Status; status != "ready" {
		writeErr(w, http.StatusConflict, fmt.Errorf("sketch %d is %s", e.ID, status))
		return
	}
	if _, _, err := s.registries[e.Dataset].Rollback(e.Name); err != nil {
		writeErr(w, http.StatusConflict, err)
		return
	}
	s.persistState(e)
	writeJSON(w, http.StatusOK, s.view(e))
}

func (s *server) readySketch(id int) (*sketchEntry, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	e, ok := s.sketches[id]
	if !ok {
		return nil, fmt.Errorf("no sketch %d", id)
	}
	if !e.published {
		return nil, fmt.Errorf("sketch %d is %s", id, e.Status)
	}
	return e, nil
}

type estimateReq struct {
	// SketchID selects a sketch explicitly; 0 routes automatically through
	// the dataset's sketch router, falling back to the PostgreSQL-style
	// estimator when no ready sketch covers the query's tables.
	SketchID int    `json:"sketch_id"`
	Dataset  string `json:"dataset,omitempty"`
	SQL      string `json:"sql"`
}

// estimateResp is /api/estimate's reply. Its fields are in the order of
// their JSON names, the order encoding/json gave the reply when it was a
// map, so the bytes are the same.
type estimateResp struct {
	CacheHit   bool    `json:"cache_hit"`
	DeepSketch float64 `json:"deep_sketch"`
	Hyper      float64 `json:"hyper"`
	LatencyMS  float64 `json:"latency_ms"`
	PostgreSQL float64 `json:"postgresql"`
	QErrors    qErrors `json:"q_errors"`
	Source     string  `json:"source"`
	SQL        string  `json:"sql"`
	True       int64   `json:"true"`
	// Version is the version of the sketch that answered; absent when a
	// baseline fallback answered.
	Version int `json:"version,omitempty"`
}

// qErrors are each estimate's q-error against the true cardinality.
type qErrors struct {
	DeepSketch float64 `json:"deep_sketch"`
	Hyper      float64 `json:"hyper"`
	PostgreSQL float64 `json:"postgresql"`
}

// handleEstimate computes all the demo's overlays for one ad-hoc query:
// Deep Sketch (through the serving stack), HyPer, PostgreSQL, and the true
// cardinality, the last three from the dataset's overlay caches. The client
// disconnecting cancels the work via the request context.
func (s *server) handleEstimate(w http.ResponseWriter, r *http.Request) {
	var req estimateReq
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		writeErr(w, http.StatusBadRequest, err)
		return
	}
	ctx := r.Context()
	dataset := req.Dataset
	var serving deepsketch.Estimator
	if req.SketchID == 0 {
		if dataset == "" {
			dataset = "imdb"
		}
		est, ok := s.auto[dataset]
		if !ok {
			writeErr(w, http.StatusBadRequest, fmt.Errorf("unknown dataset %q", dataset))
			return
		}
		serving = est
	} else {
		e, err := s.readySketch(req.SketchID)
		if err != nil {
			writeErr(w, http.StatusNotFound, err)
			return
		}
		// Both were set before the entry was published, which readySketch
		// observed under the lock.
		serving, dataset = e.serving, e.Dataset
	}
	d := s.datasets[dataset]
	q, err := deepsketch.ParseSQL(d, req.SQL)
	if err != nil {
		writeErr(w, http.StatusBadRequest, err)
		return
	}
	est, err := serving.Estimate(ctx, q)
	if err != nil {
		writeErr(w, http.StatusBadRequest, err)
		return
	}
	truth, hyper, pg, err := s.baseline[dataset].overlays(ctx, q)
	if err != nil {
		writeErr(w, http.StatusBadRequest, err)
		return
	}
	resp := estimateResp{
		CacheHit:   est.CacheHit,
		DeepSketch: est.Cardinality,
		Hyper:      hyper,
		LatencyMS:  float64(est.Latency.Microseconds()) / 1000.0,
		PostgreSQL: pg,
		QErrors: qErrors{
			DeepSketch: deepsketch.QError(est.Cardinality, float64(truth)),
			Hyper:      deepsketch.QError(hyper, float64(truth)),
			PostgreSQL: deepsketch.QError(pg, float64(truth)),
		},
		Source: est.Source,
		SQL:    q.SQL(d),
		True:   truth,
	}
	// Tag which version of the answering sketch served the estimate. The
	// version is stamped on the estimate by the registry's routing layer
	// itself — exact even when a swap, canary split or rollback races the
	// request.
	if est.Version > 0 {
		resp.Version = est.Version
	}
	writeJSON(w, http.StatusOK, resp)
}

type templateReq struct {
	SketchID int    `json:"sketch_id"`
	SQL      string `json:"sql"`
	Group    string `json:"group"`   // distinct | buckets
	Buckets  int    `json:"buckets"` // for group=buckets
	Truth    bool   `json:"truth"`   // include true cardinalities
}

// handleTemplate serves the demo's placeholder queries: one series point per
// template instance, with optional overlays, and the version that answered.
func (s *server) handleTemplate(w http.ResponseWriter, r *http.Request) {
	var req templateReq
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		writeErr(w, http.StatusBadRequest, err)
		return
	}
	e, err := s.readySketch(req.SketchID)
	if err != nil {
		writeErr(w, http.StatusNotFound, err)
		return
	}
	g := deepsketch.GroupDistinct
	if req.Group == "buckets" {
		g = deepsketch.GroupBuckets
		if req.Buckets <= 0 {
			req.Buckets = 20
		}
	}
	// Templates read the live version only (Registry.Live): a canary
	// splits estimate traffic, never a template.
	live, version, err := s.registries[e.Dataset].Live(e.Name)
	if err != nil {
		writeErr(w, http.StatusNotFound, err)
		return
	}
	res, err := live.EstimateTemplateSQL(r.Context(), req.SQL, g, req.Buckets)
	if err != nil {
		writeErr(w, http.StatusBadRequest, err)
		return
	}
	bl := s.baseline[e.Dataset]
	type point struct {
		Label      string  `json:"label"`
		Estimate   float64 `json:"deep_sketch"`
		Hyper      float64 `json:"hyper,omitempty"`
		PostgreSQL float64 `json:"postgresql,omitempty"`
		True       *int64  `json:"true,omitempty"`
	}
	points := make([]point, 0, len(res))
	for _, inst := range res {
		p := point{Label: inst.Label, Estimate: inst.Estimate}
		if req.Truth {
			tc, he, pe, err := bl.overlays(r.Context(), inst.Query)
			if err != nil {
				writeErr(w, http.StatusBadRequest, err)
				return
			}
			p.True, p.Hyper, p.PostgreSQL = &tc, he, pe
		}
		points = append(points, p)
	}
	writeJSON(w, http.StatusOK, map[string]any{"version": version, "points": points})
}

func (s *server) handleIndex(w http.ResponseWriter, r *http.Request) {
	if r.URL.Path != "/" {
		http.NotFound(w, r)
		return
	}
	w.Header().Set("Content-Type", "text/html; charset=utf-8")
	fmt.Fprint(w, indexHTML)
}
