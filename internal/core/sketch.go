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
	// (mscn.TrainOptions.Parallelism); 0 uses GOMAXPROCS.
	Workers int `json:"workers"`
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
	engineOnce sync.Once
}

var _ estimator.Estimator = (*Sketch)(nil)

// Name implements estimator.Estimator with the sketch's configured name.
func (s *Sketch) Name() string { return s.Cfg.Name }

// SetEnginePrecision selects the numeric format of the sketch's MSCN
// inference engine (f64 reference or f32). Safe to call on a serving
// sketch; in-flight estimates finish on the precision they started with.
// Estimates are tagged with the precision that computed them
// (Estimate.Engine).
func (s *Sketch) SetEnginePrecision(p mscn.Precision) { s.Model.SetPrecision(p) }

// EnginePrecision reports the current inference precision.
func (s *Sketch) EnginePrecision() mscn.Precision { return s.Model.Precision() }

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

// engine returns the model's inference engine, having handed it — once per
// Sketch value, so a clone, a loaded and a refreshed sketch each do it for
// their own model — the table rows that recur (referenceRows). On
// JOB-light-style traffic about half of all table rows are these; the
// engine keeps their h2 in its element table, beside the join and zero
// rows', computed once per weight generation instead of once per
// occurrence.
func (s *Sketch) engine() *mscn.Engine {
	s.engineOnce.Do(func() { s.Model.Engine().SetReferenceRows(s.referenceRows()) })
	return s.Model.Engine()
}

// referenceRows returns, per table of the sketch, the row an unfiltered
// reference to it encodes to: its one-hot plus an all-ones bitmap of the
// table's actual sample size (shorter than SampleSize for small tables).
// The rows come from the same Bitmaps → EncodeQueryTo path every estimate
// takes, so they are what serving produces by construction; a table that
// path cannot encode has no row.
func (s *Sketch) referenceRows() [][]float64 {
	enc := s.Encoder
	// An unfiltered one-table query has no join and no predicate: its join
	// and predicate rows stay zero.
	join, pred := make([]float64, enc.JoinDim()), make([]float64, enc.PredDim())
	var rows [][]float64
	for _, t := range enc.Tables {
		q := db.Query{Tables: []db.TableRef{{Table: t, Alias: t}}}
		bms, err := s.Samples.Bitmaps(q)
		if err != nil {
			continue
		}
		row := make([]float64, enc.TableDim())
		if enc.EncodeQueryTo(q, bms, func() []float64 { return row }, func() []float64 { return join }, func() []float64 { return pred }) == nil {
			rows = append(rows, row)
		}
	}
	return rows
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
	engine := s.Model.Precision().String()
	for i, c := range cards {
		out[i] = estimator.Estimate{Cardinality: c, Source: s.Name(), Latency: per, Engine: engine}
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
	src := &querySource{s: s, qs: qs}
	if err := s.engine().PredictSourceInto(ctx, src, len(qs), out); err != nil {
		return nil, err
	}
	for i, y := range out {
		out[i] = s.Encoder.Norm.Denormalize(y)
	}
	return out, nil
}

// querySource adapts a query slice to the engine's direct featurization
// interface: bitmaps and feature rows are produced on demand, written
// straight into the packed batch.
type querySource struct {
	s  *Sketch
	qs []db.Query
}

func (src *querySource) RowCounts(i int) (t, j, p int) {
	return src.s.Encoder.RowCounts(src.qs[i])
}

func (src *querySource) EncodeTo(i int, nextT, nextJ, nextP func() []float64) error {
	q := src.qs[i]
	bms, err := src.s.Samples.Bitmaps(q)
	if err != nil {
		return fmt.Errorf("core: query %d (%s): %w", i, q.SQL(nil), err)
	}
	if err := src.s.Encoder.EncodeQueryTo(q, bms, nextT, nextJ, nextP); err != nil {
		return fmt.Errorf("core: query %d (%s): %w", i, q.SQL(nil), err)
	}
	return nil
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
