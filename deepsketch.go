// Package deepsketch is the public API of the Deep Sketches reproduction
// (Kipf et al., "Estimating Cardinalities with Deep Sketches", SIGMOD 2019).
//
// A Deep Sketch is a compact model of a database — a trained multi-set
// convolutional network (MSCN) plus materialized base-table samples — that
// estimates COUNT(*) result sizes of select-project-join SQL queries in
// milliseconds, without touching the database.
//
// # The Estimator interface
//
// Every estimation backend implements the one Estimator interface —
// context-aware, batched, returning an Estimate result (cardinality, source
// name, latency) rather than a bare number:
//
//	Estimate(ctx, q)       (Estimate, error)
//	EstimateBatch(ctx, qs) ([]Estimate, error)
//	Name()                 string
//
// Sketches, the multi-sketch Router, the traditional estimators
// (PostgresEstimator, HyperEstimator), the exact TruthEstimator, and every
// serving wrapper all satisfy it, so they compose and interchange freely.
//
// Typical usage:
//
//	d := deepsketch.NewIMDb(deepsketch.IMDbConfig{Seed: 1})
//	sketch, err := deepsketch.Build(d, deepsketch.Config{
//	    TrainQueries: 10000,
//	    SampleSize:   1000,
//	}, nil)
//	est, err := sketch.EstimateSQL(ctx,
//	    "SELECT COUNT(*) FROM title t, movie_keyword mk " +
//	    "WHERE mk.movie_id=t.id AND t.production_year>2010")
//	fmt.Println(est.Cardinality, est.Latency)
//
// # Serving
//
// For production-shaped serving, stack the middleware from the serve layer
// onto any Estimator: WithCache adds an LRU estimate cache keyed on the
// canonical query fingerprint, Clamp bounds estimates into [1, |DB|], and
// Fallback chains backends so an uncovered query falls through (e.g.
// Router → PostgreSQL) instead of erroring. This is the shape deepsketchd
// serves; an estimate runs on the caller's goroutine, and a caller with
// many queries batches them through EstimateBatch:
//
//	serving := deepsketch.WithCache(
//	    deepsketch.Fallback(
//	        deepsketch.Clamp(sketch, deepsketch.MaxCardinality(d)),
//	        deepsketch.PostgresEstimator(d)),
//	    4096)
//	est, err := serving.Estimate(ctx, q)
//
// Sketches serialize to a few MiB (Save/Load) and can be queried standalone.
// The package also exposes the JOB-light evaluation workload and q-error
// reporting utilities (Compare, FormatReport).
package deepsketch

import (
	"context"
	"fmt"
	"io"
	"os"

	"deepsketch/internal/core"
	"deepsketch/internal/datagen"
	"deepsketch/internal/db"
	"deepsketch/internal/drift"
	"deepsketch/internal/estimator"
	"deepsketch/internal/fsx"
	"deepsketch/internal/lifecycle"
	"deepsketch/internal/metrics"
	"deepsketch/internal/mscn"
	"deepsketch/internal/nn"
	"deepsketch/internal/router"
	"deepsketch/internal/serve"
	"deepsketch/internal/sqlparse"
	"deepsketch/internal/trainmon"
	"deepsketch/internal/wal"
	"deepsketch/internal/workload"
)

// Core re-exports: the database substrate and query model.
type (
	// DB is an in-memory column-store database.
	DB = db.DB
	// Query is a parsed COUNT(*) select-project-join query.
	Query = db.Query
	// TableRef, JoinPred and Predicate are Query components.
	TableRef = db.TableRef
	JoinPred = db.JoinPred
	// Predicate is a base-table selection alias.col <op> literal.
	Predicate = db.Predicate
	// Op is a predicate operator (OpEq, OpLt, OpGt).
	Op = db.Op
)

// Operator constants.
const (
	OpEq = db.OpEq
	OpLt = db.OpLt
	OpGt = db.OpGt
)

// Sketch construction and use.
type (
	// Config configures sketch creation (step 1 of the paper's Figure 1a).
	Config = core.Config
	// ModelConfig holds the MSCN hyperparameters.
	ModelConfig = mscn.Config
	// Sketch is a trained Deep Sketch.
	Sketch = core.Sketch
	// TemplateResult is one instantiated template estimate.
	TemplateResult = core.TemplateResult
	// Monitor records creation progress (stages, epochs).
	Monitor = trainmon.Monitor
	// TrainEvent is one monitoring record (stage start/end, progress,
	// epoch metrics) delivered to Monitor sinks.
	TrainEvent = trainmon.Event
	// TrainSnapshot summarizes creation progress for polling clients.
	TrainSnapshot = trainmon.Snapshot
	// FootprintBreakdown reports serialized sketch size per component.
	FootprintBreakdown = core.FootprintBreakdown
)

// Monitoring event kinds and pipeline stages (see TrainEvent).
const (
	EventStageStart = trainmon.KindStageStart
	EventStageEnd   = trainmon.KindStageEnd
	EventProgress   = trainmon.KindProgress
	EventEpoch      = trainmon.KindEpoch

	StageDefine    = trainmon.StageDefine
	StageGenerate  = trainmon.StageGenerate
	StageExecute   = trainmon.StageExecute
	StageFeaturize = trainmon.StageFeaturize
	StageTrain     = trainmon.StageTrain
)

// Workload types.
type (
	// LabeledQuery pairs a query with its true cardinality.
	LabeledQuery = workload.LabeledQuery
	// Template is a query template with a placeholder column.
	Template = workload.Template
	// Grouping selects template instantiation (GroupDistinct/GroupBuckets).
	Grouping = workload.Grouping
	// GenConfig configures the uniform training-query generator.
	GenConfig = workload.GenConfig
)

// Template grouping modes.
const (
	GroupDistinct = workload.GroupDistinct
	GroupBuckets  = workload.GroupBuckets
)

// LossKind selects the MSCN training objective.
type LossKind = nn.LossKind

// Training objectives: the paper's mean q-error, and L1 in log space.
const (
	LossQError = nn.LossQError
	LossL1Log  = nn.LossL1Log
)

// EngineF32 makes Sketch.SetEnginePrecision, called before the sketch's
// first estimate, round the engine's weights to single precision
// (mscn.F32); the forward stays float64 and per-query q-error deviation
// from the unrounded weights is bounded <1% by TestEngineF32QErrorGate. It
// remains only because bench/layers.go names it.
const EngineF32 = mscn.F32

// Dataset generator configs.
type (
	// IMDbConfig sizes the synthetic IMDb-like dataset.
	IMDbConfig = datagen.IMDbConfig
	// TPCHConfig sizes the synthetic TPC-H-like dataset.
	TPCHConfig = datagen.TPCHConfig
)

// Metrics.
type (
	// QErrorSummary holds Table-1-style statistics.
	QErrorSummary = metrics.Summary
	// ReportRow is one system's summary line.
	ReportRow = metrics.Row
)

// Router dispatches estimates across the sketches a SketchRegistry serves,
// preferring the most specific covering sketch (the system answer to the
// paper's open question of which schema parts to sketch). It is the
// registry's read path, reached as SketchRegistry.Router: versions are
// published, swapped, canaried and unregistered through the registry under
// live traffic, and a serving cache keyed with the router's CacheKey stays
// coherent across all of it.
type Router = router.Router

// Sketch lifecycle: versioned serving with warm-start refresh.
type (
	// SketchRegistry is a versioned sketch registry over a Router: Publish
	// installs versions atomically, Swap replaces live sketches under
	// traffic, Rollback reverts, Refresh warm-start retrains on a delta
	// workload and swaps the result in.
	SketchRegistry = lifecycle.Registry
	// SketchVersion describes one version of a registered sketch.
	SketchVersion = lifecycle.VersionInfo
	// RegistryRefreshOptions parameterizes SketchRegistry.Refresh.
	RegistryRefreshOptions = lifecycle.RefreshOptions
	// RefreshOptions tunes a standalone warm-start Refresh.
	RefreshOptions = core.RefreshOptions
	// OptimizerState is a training run's exported Adam state (moments +
	// step count); sketches persist it so refreshes resume optimization.
	OptimizerState = nn.OptState
)

// NewSketchRegistry returns an empty versioned sketch registry (with its
// own Router, reachable via the registry's Router method).
func NewSketchRegistry() *SketchRegistry { return lifecycle.New() }

// SketchCanary describes a registry's active canary rollout: the candidate
// version, the live version it is compared against, and its traffic
// fraction.
type SketchCanary = lifecycle.CanaryInfo

// CanarySplit reports whether a query signature belongs to the canary arm
// at the given traffic fraction — the deterministic hash split the Router
// and registries route by. Stable per signature, monotone in the fraction.
func CanarySplit(sig string, fraction float64) bool { return router.CanarySplit(sig, fraction) }

// Drift monitoring: the closed loop that turns live q-error degradation
// into automatic warm refreshes rolled out behind a canary.
type (
	// DriftMonitor samples live estimates, ground-truths them
	// asynchronously, and fires triggers on windowed q-error degradation or
	// staleness (see internal/drift).
	DriftMonitor = drift.Monitor
	// DriftConfig parameterizes a DriftMonitor (sampling rate, window,
	// thresholds, staleness clock, cooldown).
	DriftConfig = drift.Config
	// DriftReason describes why a drift trigger fired.
	DriftReason = drift.Reason
	// DriftStatus is a sketch's monitoring snapshot.
	DriftStatus = drift.Status
	// DriftController runs every refresh cycle over a SketchRegistry:
	// workload → warm refresh → pinned rail → swap or canary →
	// comparative q-error gate → promote/abort. Drift triggers start
	// cycles by themselves; DriftController.Start starts one on request.
	DriftController = drift.Controller
	// DriftControllerConfig parameterizes a DriftController (canary
	// fraction, promote gate, refresh budget, the observed and synthetic
	// workload sources).
	DriftControllerConfig = drift.ControllerConfig
	// DriftCycleOptions parameterizes one DriftController.Start cycle.
	DriftCycleOptions = drift.CycleOptions
	// DriftEvent is one controller state transition.
	DriftEvent = drift.Event
	// DriftCycleStatus reports a sketch's controller cycle state.
	DriftCycleStatus = drift.CycleStatus
	// PinnedBenchmark is a frozen labeled workload the drift controller
	// evaluates every refresh candidate against before its canary starts —
	// the held-out judgment set an adaptive feedback source cannot steer.
	PinnedBenchmark = drift.PinnedBenchmark
	// PinnedResult is one pinned-benchmark rail judgment.
	PinnedResult = drift.PinnedResult
)

// DefaultPinnedMaxRegress is the default pinned-rail tolerance.
const DefaultPinnedMaxRegress = drift.DefaultPinnedMaxRegress

// NewDriftMonitor returns a drift monitor that obtains ground truth from
// truth — TruthEstimator(d) for exact counts, PostgresEstimator(d) for a
// cheap approximation. A nil truth runs the monitor without any in-process
// ground truth: every sampled estimate parks as pending until
// DriftMonitor.ResolveActual reports the observed actual (the logged-actuals
// serving mode).
func NewDriftMonitor(cfg DriftConfig, truth Estimator) *DriftMonitor {
	return drift.NewMonitor(cfg, truth)
}

// Logged-actuals feedback loop: the observation WAL that lets serving run
// without the exact executor, with ground truth POSTed by clients that ran
// the queries for real.
type (
	// ObservationLog is a segmented, CRC-checked, fsync-batched WAL of
	// observation records (see internal/wal): served estimates awaiting
	// ground truth and observed actuals. Replay rebuilds drift-monitor
	// state after a restart; RecentActuals supplies WAL-derived delta
	// workloads for warm refreshes.
	ObservationLog = wal.Log
	// WALRecord is one observation log entry.
	WALRecord = wal.Record
	// WALOptions parameterizes OpenObservationLog.
	WALOptions = wal.Options
	// WALStats is an ObservationLog snapshot.
	WALStats = wal.Stats
	// WALKind distinguishes observation records from actual records.
	WALKind = wal.Kind
	// ActualsAdmitter rate-limits and samples the logged-actuals ingest
	// path per client, bounding any one feedback source's influence on the
	// training distribution.
	ActualsAdmitter = wal.Admitter
	// AdmitConfig parameterizes an ActualsAdmitter.
	AdmitConfig = wal.AdmitConfig
	// AdmitDecision is an ActualsAdmitter verdict (admitted, sampled out,
	// or capped).
	AdmitDecision = wal.Decision
	// ClientAdmitStats is one ingest client's admission counters.
	ClientAdmitStats = wal.ClientStats
	// DriftJournal receives pending/resolved monitor transitions for
	// durable logging (DriftConfig.Journal).
	DriftJournal = drift.Journal
)

// WAL record kinds and admission decisions.
const (
	WALObservation = wal.KindObservation
	WALActual      = wal.KindActual

	AdmitAdmitted = wal.Admitted
	AdmitSampled  = wal.Sampled
	AdmitCapped   = wal.Capped
)

// OpenObservationLog opens (creating if needed) an observation WAL rooted
// at dir.
func OpenObservationLog(dir string, opts WALOptions) (*ObservationLog, error) {
	return wal.Open(dir, opts)
}

// NewActualsAdmitter returns an admission controller for the actuals
// ingest path.
func NewActualsAdmitter(cfg AdmitConfig) *ActualsAdmitter { return wal.NewAdmitter(cfg) }

// NewDriftController wires a controller to the registry and monitor and
// installs itself as the monitor's trigger handler.
func NewDriftController(reg *SketchRegistry, mon *DriftMonitor, cfg DriftControllerConfig) *DriftController {
	return drift.NewController(reg, mon, cfg)
}

// ObserveEstimates returns middleware that reports every computed estimate
// flowing through it to the drift monitor. Stack it between the cache and
// the backend so cache hits are not re-counted.
func ObserveEstimates(e Estimator, m *DriftMonitor) Estimator { return drift.Observe(e, m) }

// NewPinnedBenchmark freezes a labeled workload as a pinned benchmark.
func NewPinnedBenchmark(labeled []LabeledQuery) *PinnedBenchmark {
	return drift.NewPinnedBenchmark(labeled)
}

// WritePinnedBenchmarkFile atomically persists a pinned benchmark's
// labeled workload to path in the workload CSV format.
func WritePinnedBenchmarkFile(path string, labeled []LabeledQuery) error {
	return drift.WritePinnedBenchmarkFile(path, labeled)
}

// LoadPinnedBenchmarkFile loads a pinned benchmark persisted by
// WritePinnedBenchmarkFile, validating its queries against d's schema.
func LoadPinnedBenchmarkFile(d *DB, path string) (*PinnedBenchmark, error) {
	return drift.LoadPinnedBenchmarkFile(d, path)
}

// Refresh warm-start retrains a sketch on a labeled drift-delta workload
// and returns the refreshed sketch; the input sketch keeps serving
// untouched. Training resumes the sketch's persisted Adam state (sketch
// format v2) so a delta workload reaches full-build quality in a fraction
// of the epochs; v1-era sketches refresh from warm weights with a cold
// optimizer.
func Refresh(ctx context.Context, s *Sketch, labeled []LabeledQuery, opts RefreshOptions, mon *Monitor) (*Sketch, error) {
	return core.Refresh(ctx, s, labeled, opts, mon)
}

// NewIMDb generates the synthetic IMDb-like database the demo's IMDb mode
// runs on ("a real-world dataset that contains many correlations"): skewed,
// correlated, deterministic in the seed.
func NewIMDb(cfg IMDbConfig) *DB { return datagen.IMDb(cfg) }

// NewTPCH generates the synthetic TPC-H-like database of the demo's TPC-H
// mode.
func NewTPCH(cfg TPCHConfig) *DB { return datagen.TPCH(cfg) }

// NewMonitor returns a fresh creation-progress monitor.
func NewMonitor() *Monitor { return trainmon.New() }

// DefaultModelConfig returns the default MSCN hyperparameters.
func DefaultModelConfig() ModelConfig { return mscn.DefaultConfig() }

// Build creates a Deep Sketch over the database: generates uniform training
// queries, executes them (in parallel) for true cardinalities, draws the
// samples, and trains the MSCN, featurizing each minibatch — sample bitmaps
// included — the way an estimate is featurized. mon may be nil.
func Build(d *DB, cfg Config, mon *Monitor) (*Sketch, error) {
	return core.Build(d, cfg, mon)
}

// BuildWithWorkload creates a sketch from a pre-labeled workload (e.g. one
// read by ReadWorkloadFile), skipping query generation and execution.
func BuildWithWorkload(d *DB, cfg Config, labeled []LabeledQuery, mon *Monitor) (*Sketch, error) {
	return core.BuildWithWorkload(d, cfg, labeled, mon)
}

// ReadWorkloadFile reads a labeled workload in the original artifact's CSV
// format (tables#joins#predicates#cardinality), validating it against the
// schema.
func ReadWorkloadFile(d *DB, path string) ([]LabeledQuery, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return workload.ReadCSV(d, f)
}

// MaxSketchBytes is how much Load accepts from an input that cannot report
// its length (a network stream, a pipe) — the cap to put on an upload body.
const MaxSketchBytes = core.MaxSketchBytes

// Load reads a serialized sketch. No length field in the input is believed
// beyond the input's own size (MaxSketchBytes when that is unknown), so a
// forged file is an error, never a large allocation.
func Load(r io.Reader) (*Sketch, error) { return core.Load(r) }

// LoadFile reads a serialized sketch from a file.
func LoadFile(path string) (*Sketch, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return core.Load(f)
}

// SaveFile writes a sketch to a file atomically and durably (streamed to
// path+".tmp", fsynced, renamed over path): after a crash or a failed write
// path holds either its previous content or the whole new sketch, never a
// torn one.
//
//deepsketch:durable
func SaveFile(s *Sketch, path string) error {
	return fsx.AtomicWrite(path, 0o666, s.Save)
}

// ParseSQL parses a SQL string of the supported dialect against a database
// (or a sketch's SchemaDB) and returns the query. Placeholder statements
// return an error here; use ParseTemplateSQL.
func ParseSQL(d *DB, sql string) (Query, error) {
	res, err := sqlparse.Parse(d, sql)
	if err != nil {
		return Query{}, err
	}
	if res.Placeholder != nil {
		return Query{}, fmt.Errorf("deepsketch: statement has a placeholder; use ParseTemplateSQL")
	}
	return res.Query, nil
}

// ParseTemplateSQL parses a SQL string containing a `?` placeholder into a
// Template.
func ParseTemplateSQL(d *DB, sql string) (Template, error) {
	res, err := sqlparse.Parse(d, sql)
	if err != nil {
		return Template{}, err
	}
	return res.Template()
}

// TrueCardinality executes the query exactly (the ground truth the demo
// obtains from HyPer).
func TrueCardinality(d *DB, q Query) (int64, error) { return d.Count(q) }

// JOBLight builds the 70-query JOB-light-style evaluation workload on an
// IMDb-schema database (Table 1's workload).
func JOBLight(d *DB, seed int64) ([]Query, error) { return workload.JOBLight(d, seed) }

// GenerateWorkload produces uniformly distributed queries (the training
// query distribution of the paper's step 2).
func GenerateWorkload(d *DB, cfg GenConfig) ([]Query, error) {
	g, err := workload.NewGenerator(d, cfg)
	if err != nil {
		return nil, err
	}
	return g.Generate(), nil
}

// LabelWorkload executes queries in parallel, one worker per GOMAXPROCS,
// to obtain true cardinalities.
func LabelWorkload(d *DB, qs []Query) ([]LabeledQuery, error) {
	return workload.Label(d, qs, 0, nil)
}

// Estimation interface: the one entry point every backend implements.
type (
	// Estimator is the unified estimation interface (see the package doc).
	Estimator = estimator.Estimator
	// Estimate is one estimation result: cardinality, source backend name,
	// latency, and whether it was served from a cache.
	Estimate = estimator.Estimate
)

// PostgresEstimator builds the PostgreSQL-style estimator (per-column MCVs,
// histograms, independence assumption).
func PostgresEstimator(d *DB) Estimator {
	return estimator.NewPostgres(d, estimator.PostgresOptions{})
}

// HyperEstimator builds the HyPer-style sampling estimator with the given
// sample size (educated-guess fallback in 0-tuple situations).
func HyperEstimator(d *DB, sampleSize int, seed int64) (Estimator, error) {
	return estimator.NewHyper(d, sampleSize, seed)
}

// TruthEstimator wraps exact query execution as an Estimator (the ground
// truth the demo obtains from HyPer).
func TruthEstimator(d *DB) Estimator { return &estimator.Truth{DB: d} }

// Serving layer: composable middleware over any Estimator.
type (
	// EstimateCache is an LRU estimate cache (see WithCache).
	EstimateCache = serve.Cache
	// Coalescer merges concurrent Estimate calls into batched forward
	// passes (see NewCoalescer). It remains only because the benchmark's
	// replay stack (bench/replay.go) names it.
	Coalescer = serve.Coalescer
	// CoalesceOptions tune the coalescer's batch size. It remains only
	// because the benchmark's replay stack (bench/replay.go) names it.
	CoalesceOptions = serve.CoalesceOptions
)

// WithCache wraps an estimator with an LRU estimate cache keyed on the
// canonical query fingerprint (clause order does not matter).
func WithCache(e Estimator, capacity int) *EstimateCache { return serve.NewCache(e, capacity) }

// NewCoalescer starts a micro-batching coalescer over the backend: while
// one batch is in flight, concurrently arriving single-query requests are
// merged into the next batched forward pass. Call Close when done. It
// remains only because the benchmark's replay stack (bench/replay.go)
// names it; serve through EstimateBatch to batch instead.
func NewCoalescer(e Estimator, opts CoalesceOptions) *Coalescer { return serve.NewCoalescer(e, opts) }

// Clamp bounds every cardinality into [1, max]; max <= 0 only enforces ≥ 1.
func Clamp(e Estimator, max float64) Estimator { return serve.Clamp(e, max) }

// Fallback chains backends: each query is answered by the first backend
// that succeeds (e.g. Router → PostgreSQL for uncovered queries).
func Fallback(backends ...Estimator) Estimator { return serve.Fallback(backends...) }

// MaxCardinality returns the product of all table sizes — the natural
// Clamp bound for a database.
func MaxCardinality(d *DB) float64 { return serve.MaxCardinality(d) }

// QError returns the q-error between an estimate and a true cardinality.
func QError(estimate, truth float64) float64 { return metrics.QError(estimate, truth) }

// Compare evaluates estimators on a labeled workload and returns
// Table-1-style summary rows (median/90th/95th/99th/max/mean q-error), in
// input order. Each estimator runs its batched path; ctx cancels mid-run.
func Compare(ctx context.Context, labeled []LabeledQuery, systems []Estimator) ([]ReportRow, error) {
	qs := make([]db.Query, len(labeled))
	for i, lq := range labeled {
		qs[i] = lq.Query
	}
	rows := make([]ReportRow, 0, len(systems))
	for _, sys := range systems {
		ests, err := sys.EstimateBatch(ctx, qs)
		if err != nil {
			return nil, fmt.Errorf("deepsketch: %s failed: %w", sys.Name(), err)
		}
		qerrs := make([]float64, len(labeled))
		for i, lq := range labeled {
			qerrs[i] = metrics.QError(ests[i].Cardinality, float64(lq.Card))
		}
		rows = append(rows, ReportRow{Name: sys.Name(), Summary: metrics.Summarize(qerrs)})
	}
	return rows, nil
}

// FormatReport renders comparison rows in the layout of the paper's Table 1.
func FormatReport(rows []ReportRow) string { return metrics.FormatTable(rows) }
