// Package core implements Deep Sketches, the paper's contribution: "compact
// model-based representations of databases that allow us to estimate the
// result sizes of SQL queries. A Deep Sketch is essentially a wrapper for a
// (serialized) neural network and a set of materialized samples."
//
// A sketch is created from a database in the four steps of Figure 1a
// (define, generate training queries, execute them, featurize + train) and
// afterwards answers cardinality estimates for ad-hoc queries without
// touching the database again (Figure 1b): base-table selections run
// against the embedded samples to produce bitmaps, the query is featurized,
// and one MSCN forward pass yields the estimate.
package core

import (
	"context"
	"fmt"
	"sync"
	"time"

	"deepsketch/internal/db"
	"deepsketch/internal/estimator"
	"deepsketch/internal/featurize"
	"deepsketch/internal/mscn"
	"deepsketch/internal/nn"
	"deepsketch/internal/sample"
	"deepsketch/internal/sqlparse"
	"deepsketch/internal/workload"
)

// Config is what a user chooses in step 1 of sketch creation: "select a
// subset of tables and define a few parameters such as the number of
// training queries".
type Config struct {
	// Name labels the sketch (shown by the demo UI / CLI).
	Name string `json:"name"`
	// Tables is the table subset the sketch covers; nil means every table.
	Tables []string `json:"tables"`
	// SampleSize is the number of materialized sample tuples per base table
	// (the paper's example: 1000).
	SampleSize int `json:"sample_size"`
	// TrainQueries is the number of generated training queries; "for a
	// small number of tables, 10,000 queries will already be sufficient".
	TrainQueries int `json:"train_queries"`
	// MaxJoins caps join depth of generated training queries. 0 defaults to
	// min(4, #tables−1), covering the JOB-light query class.
	MaxJoins int `json:"max_joins"`
	// MaxPreds caps selections per training query (default 3).
	MaxPreds int `json:"max_preds"`
	// Workers bounds the parallel stages of sketch creation: training-query
	// execution (the paper's "multiple HyPer instances") and the
	// data-parallel minibatch sharding of MSCN training
	// (mscn.TrainOptions.Parallelism); 0 uses GOMAXPROCS. It sets only
	// throughput: the sketch is the same at every worker count, so the
	// file does not record it.
	Workers int `json:"-"`
	// Seed drives query generation, sampling and training determinism.
	Seed int64 `json:"seed"`
	// Model holds the MSCN hyperparameters (epochs are step 1's "number of
	// training epochs").
	Model mscn.Config `json:"model"`
}

func (c Config) withDefaults(d *db.DB) Config {
	if c.Name == "" {
		c.Name = d.Name
	}
	if c.Tables == nil {
		c.Tables = d.TableNames()
	}
	if c.SampleSize == 0 {
		c.SampleSize = 1000
	}
	if c.TrainQueries == 0 {
		c.TrainQueries = 10000
	}
	if c.MaxJoins == 0 {
		c.MaxJoins = len(c.Tables) - 1
		if c.MaxJoins > 4 {
			c.MaxJoins = 4
		}
		if c.MaxJoins < 1 {
			c.MaxJoins = 1
		}
	}
	if c.MaxPreds == 0 {
		c.MaxPreds = 3
	}
	return c
}

// Sketch is a trained Deep Sketch. It is self-contained: estimation needs no
// access to the original database. "The interface of a sketch is very
// simple, it consumes a SQL query and returns a cardinality estimate" —
// concretely, Sketch implements estimator.Estimator, so it drops into
// routers, serving stacks and evaluation harnesses next to every other
// backend.
type Sketch struct {
	// Cfg records the creation parameters (including the sketch name).
	Cfg Config
	// Encoder holds the featurization vocabulary and normalizers.
	Encoder *featurize.Encoder
	// Model is the trained MSCN.
	Model *mscn.Model
	// Samples are the embedded materialized samples.
	Samples *sample.Set
	// Epochs records per-epoch training metrics.
	Epochs []mscn.EpochStats
	// DBName is the source database name (imdb, tpch, ...).
	DBName string

	schemaOnce sync.Once
	schema     *db.DB // lazily built from samples, for SQL parsing
}

var _ estimator.Estimator = (*Sketch)(nil)

// Name implements estimator.Estimator with the sketch's configured name.
func (s *Sketch) Name() string { return s.Cfg.Name }

// SetEnginePrecision selects the precision the sketch's inference engine
// stores its weights at (mscn.Precision: at F32 they are rounded to single
// precision, the arithmetic stays float64). Call it before the first
// estimate — on a fresh Clone, say: the first estimate builds the engine,
// and from then on it panics (mscn.Model.SetPrecision). It remains only
// because bench/layers.go names it.
func (s *Sketch) SetEnginePrecision(p mscn.Precision) { s.Model.SetPrecision(p) }

// ReleaseEngine drops the inference engine's weight snapshot and element
// memo and keeps none until ServeEngine (mscn.Engine.Release): the
// registry calls it on a version that stops serving. An estimate meanwhile
// transposes the weights for itself and returns the bits it returned
// before.
func (s *Sketch) ReleaseEngine() { s.Model.Engine().Release() }

// ServeEngine builds the engine, with its snapshot, or builds the
// snapshot again after ReleaseEngine (mscn.Engine.Serve): the registry
// calls it on every version it routes traffic to, before the traffic
// arrives.
func (s *Sketch) ServeEngine() { s.Model.Engine().Serve() }

// Estimate implements the sketch interface of Figure 1b for an already-
// parsed query: evaluate base-table selections on the embedded samples,
// featurize straight into packed rows, one MSCN forward pass, denormalize.
// It is EstimateBatch on a batch of one, on the caller's ctx, so a single
// estimate and a batched one take the same path and return the same bits.
// It implements estimator.Estimator.
func (s *Sketch) Estimate(ctx context.Context, q db.Query) (estimator.Estimate, error) {
	ests, err := s.EstimateBatch(ctx, []db.Query{q})
	if err != nil {
		return estimator.Estimate{}, err
	}
	return ests[0], nil
}

// Cardinality is the bare estimation path of Figure 1b, without the result
// envelope and without a caller context: BatchCardinalities on a batch of
// one — bitmaps, featurized straight into the engine's pooled packed batch,
// one MSCN forward pass, denormalize — so it returns the bits Estimate does.
//
//deepsketch:ctxorigin an offline single estimate has no caller context and runs one chunk
func (s *Sketch) Cardinality(q db.Query) (float64, error) {
	cards, err := s.BatchCardinalities(context.Background(), []db.Query{q})
	if err != nil {
		return 0, err
	}
	return cards[0], nil
}

// EstimateBatch implements estimator.Estimator with batched MSCN inference:
// queries featurize directly into packed inference batches and predict in
// chunked forward passes. Estimate is this on a batch of one; ctx is
// checked before each chunk, so a cancellation mid-batch aborts within one
// chunk's featurize+forward work. Per-query Latency is the amortized batch
// time.
func (s *Sketch) EstimateBatch(ctx context.Context, qs []db.Query) ([]estimator.Estimate, error) {
	start := time.Now()
	cards, err := s.BatchCardinalities(ctx, qs)
	if err != nil {
		return nil, err
	}
	per := time.Duration(0)
	if len(qs) > 0 {
		per = time.Since(start) / time.Duration(len(qs))
	}
	out := make([]estimator.Estimate, len(cards))
	for i, c := range cards {
		out[i] = estimator.Estimate{Cardinality: c, Source: s.Name(), Latency: per}
	}
	return out, nil
}

// BatchCardinalities is the bare batched estimation path: it returns one
// cardinality per query, computed in packed MSCN forward passes that
// amortize per-call overhead across the batch. Queries featurize *directly
// into* the engine's pooled packed batches — no intermediate per-query
// feature vectors — and any mix of shapes shares one ragged forward pass
// that costs exactly its valid set elements: no shape grouping, no padding
// waste. Work proceeds in inference-batch chunks that fan out across cores
// (featurization included), with ctx checked between chunks. Cardinality is
// this on a batch of one.
func (s *Sketch) BatchCardinalities(ctx context.Context, qs []db.Query) ([]float64, error) {
	out := make([]float64, len(qs))
	src := &querySource{enc: s.Encoder, samples: s.Samples, qs: qs}
	if err := s.Model.Engine().PredictSourceInto(ctx, src, len(qs), out); err != nil {
		return nil, err
	}
	for i, y := range out {
		out[i] = s.Encoder.Norm.Denormalize(y)
	}
	return out, nil
}

// querySource is the one featurization path of the package: query i's
// bitmaps over samples, encoded by enc straight into the valued runs of
// the packed sets BuildFrom hands out, on demand. Estimates
// (BatchCardinalities), builds and refreshes (Examples) all pack through
// it.
type querySource struct {
	enc     *featurize.Encoder
	samples *sample.Set
	qs      []db.Query
}

func (src *querySource) EncodeTo(i int, t, j, p *nn.RunIndex) error {
	q := src.qs[i]
	bms, err := src.samples.Bitmaps(q)
	if err != nil {
		return fmt.Errorf("core: query %d (%s): %w", i, q.SQL(nil), err)
	}
	if err := src.enc.EncodeQueryTo(q, bms, t, j, p); err != nil {
		return fmt.Errorf("core: query %d (%s): %w", i, q.SQL(nil), err)
	}
	return nil
}

// Examples returns one training example per labeled query: a reference to
// the query, featurized by enc over samples — the path an estimate takes —
// whenever the trainer packs its minibatch, and its cardinality. The
// examples hold no feature rows, so training data costs the queries, not
// their dense featurization.
func Examples(enc *featurize.Encoder, samples *sample.Set, labeled []workload.LabeledQuery) []mscn.Example {
	src := &querySource{enc: enc, samples: samples, qs: make([]db.Query, len(labeled))}
	examples := make([]mscn.Example, len(labeled))
	for i, lq := range labeled {
		src.qs[i] = lq.Query
		examples[i] = mscn.Example{Src: src, I: i, Card: lq.Card}
	}
	return examples
}

// EstimateSQL parses a SQL string against the sketch's embedded schema (the
// sample tables carry column types and dictionaries) and estimates it. SQL
// strings with a placeholder are rejected here; use Template instead.
func (s *Sketch) EstimateSQL(ctx context.Context, sql string) (estimator.Estimate, error) {
	res, err := sqlparse.Parse(s.SchemaDB(), sql)
	if err != nil {
		return estimator.Estimate{}, err
	}
	if res.Placeholder != nil {
		return estimator.Estimate{}, fmt.Errorf("core: query has a placeholder; use Template estimation")
	}
	return s.Estimate(ctx, res.Query)
}

// TemplateResult is one instantiated template estimate (a point of the
// demo's chart: X = placeholder value, Y = estimated cardinality).
type TemplateResult struct {
	Label    string
	Lo, Hi   int64
	Estimate float64
	Query    db.Query
}

// EstimateTemplate expands a template using the sketch's samples ("to create
// such an instance, we draw a value from the column sample that is part of
// the sketch") and estimates every instance in one batched pass.
func (s *Sketch) EstimateTemplate(ctx context.Context, tpl workload.Template, g workload.Grouping, buckets int) ([]TemplateResult, error) {
	insts, err := tpl.Instantiate(s.Samples, g, buckets)
	if err != nil {
		return nil, err
	}
	qs := make([]db.Query, len(insts))
	for i, inst := range insts {
		qs[i] = inst.Query
	}
	ests, err := s.BatchCardinalities(ctx, qs)
	if err != nil {
		return nil, err
	}
	out := make([]TemplateResult, len(insts))
	for i, inst := range insts {
		out[i] = TemplateResult{Label: inst.Label, Lo: inst.Lo, Hi: inst.Hi, Estimate: ests[i], Query: inst.Query}
	}
	return out, nil
}

// EstimateTemplateSQL parses a placeholder SQL statement and estimates its
// instantiations.
func (s *Sketch) EstimateTemplateSQL(ctx context.Context, sql string, g workload.Grouping, buckets int) ([]TemplateResult, error) {
	res, err := sqlparse.Parse(s.SchemaDB(), sql)
	if err != nil {
		return nil, err
	}
	tpl, err := res.Template()
	if err != nil {
		return nil, err
	}
	return s.EstimateTemplate(ctx, tpl, g, buckets)
}

// SchemaDB returns a schema shim built from the embedded samples: same
// tables, columns, types and dictionaries as the source database but with
// only the sampled rows. It powers SQL parsing and validation after the
// sketch has been detached from the database (e.g. deployed "in a web
// browser or within a cell phone").
func (s *Sketch) SchemaDB() *db.DB {
	s.schemaOnce.Do(func() {
		d := db.NewDB(s.DBName)
		for _, name := range s.Cfg.Tables {
			if ts := s.Samples.For(name); ts != nil {
				d.MustAddTable(ts.Data)
			}
		}
		s.schema = d
	})
	return s.schema
}
