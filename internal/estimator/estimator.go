// Package estimator defines the estimation contract of the system — the
// paper's "consumes a SQL query and returns a cardinality estimate" — and
// provides the traditional cardinality estimators the demo compares Deep
// Sketches against: a PostgreSQL-style estimator built on per-column
// statistics (MCVs, equi-depth histograms, n_distinct) with the
// attribute-independence assumption, and a HyPer-style estimator that
// evaluates base-table predicates on materialized samples and falls back to
// an educated guess in 0-tuple situations. Both combine base-table
// selectivities across PK/FK joins with the classic System-R formula.
//
// Every estimation backend — sketches, the sketch router, the traditional
// estimators, and the serving middleware stacked on top of them — implements
// the one Estimator interface, so harnesses, servers and callers never care
// which backend answers.
package estimator

import (
	"context"
	"fmt"
	"time"

	"deepsketch/internal/db"
)

// Estimate is one cardinality estimation result.
type Estimate struct {
	// Cardinality is the estimated COUNT(*) result size (≥ 1 by
	// convention, so q-errors stay finite).
	Cardinality float64 `json:"cardinality"`
	// Source names the backend that produced the estimate ("Deep Sketch",
	// "PostgreSQL", a sketch name behind a router, ...).
	Source string `json:"source"`
	// Latency is the wall time the estimation took. An estimate cache
	// reports the caller-observed latency, which for a hit is the lookup
	// time, not the original computation time.
	Latency time.Duration `json:"latency_ns"`
	// CacheHit is true when the estimate was served from an estimate cache
	// rather than computed.
	CacheHit bool `json:"cache_hit,omitempty"`
	// Version is the registry version of the sketch that answered, when the
	// answering backend is versioned (a sketch behind a lifecycle registry's
	// router, including a canary split). 0 means unversioned: a bare sketch,
	// a traditional estimator, or a fallback backend.
	Version int `json:"version,omitempty"`
}

// Estimator is the single estimation entry point: anything that can
// estimate the result size of a COUNT(*) query. Implementations must be
// safe for concurrent use after construction.
type Estimator interface {
	// Name identifies the estimator in reports ("PostgreSQL", ...).
	Name() string
	// Estimate answers one query, honoring ctx cancellation.
	Estimate(ctx context.Context, q db.Query) (Estimate, error)
	// EstimateBatch answers many queries in one call — backends with a
	// batched inference path (the MSCN) amortize per-call overhead here.
	// Results are positional and match Estimate query-by-query.
	EstimateBatch(ctx context.Context, qs []db.Query) ([]Estimate, error)
}

// Run times one estimation function and wraps its result, checking ctx
// first. It is the shared implementation behind the leaf estimators.
func Run(ctx context.Context, source string, q db.Query, fn func(db.Query) (float64, error)) (Estimate, error) {
	if err := ctx.Err(); err != nil {
		return Estimate{}, err
	}
	start := time.Now()
	card, err := fn(q)
	if err != nil {
		return Estimate{}, err
	}
	return Estimate{Cardinality: card, Source: source, Latency: time.Since(start)}, nil
}

// SequentialBatch implements EstimateBatch by calling e.Estimate per query,
// checking ctx between queries so a cancellation mid-batch stops promptly.
// It is the default batch path for backends without batched inference.
func SequentialBatch(ctx context.Context, e Estimator, qs []db.Query) ([]Estimate, error) {
	out := make([]Estimate, len(qs))
	for i, q := range qs {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		est, err := e.Estimate(ctx, q)
		if err != nil {
			return nil, fmt.Errorf("estimator: %s failed on query %d: %w", e.Name(), i, err)
		}
		out[i] = est
	}
	return out, nil
}

// Func adapts a plain estimation function to the Estimator interface — the
// escape hatch for ad-hoc backends in comparison harnesses (the role the
// removed System struct used to play).
type Func struct {
	// EstimatorName is reported by Name.
	EstimatorName string
	// Fn computes the cardinality of one query.
	Fn func(q db.Query) (float64, error)
}

// Name implements Estimator.
func (f Func) Name() string { return f.EstimatorName }

// Estimate implements Estimator.
func (f Func) Estimate(ctx context.Context, q db.Query) (Estimate, error) {
	return Run(ctx, f.EstimatorName, q, f.Fn)
}

// EstimateBatch implements Estimator sequentially.
func (f Func) EstimateBatch(ctx context.Context, qs []db.Query) ([]Estimate, error) {
	return SequentialBatch(ctx, f, qs)
}

// Truth is the ground-truth oracle: it executes the query exactly. It plays
// HyPer's "true cardinality" role from the demo ("we issue the query against
// HyPer to compute its true cardinality").
type Truth struct {
	DB *db.DB
}

// Name implements Estimator.
func (t *Truth) Name() string { return "True cardinality" }

// Estimate implements Estimator by exact execution.
func (t *Truth) Estimate(ctx context.Context, q db.Query) (Estimate, error) {
	return Run(ctx, t.Name(), q, t.Cardinality)
}

// EstimateBatch implements Estimator by sequential exact execution.
func (t *Truth) EstimateBatch(ctx context.Context, qs []db.Query) ([]Estimate, error) {
	return SequentialBatch(ctx, t, qs)
}

// Cardinality executes the query exactly and returns the true count.
func (t *Truth) Cardinality(q db.Query) (float64, error) {
	c, err := t.DB.Count(q)
	if err != nil {
		return 0, err
	}
	return float64(c), nil
}

// joinSelectivity computes the System-R selectivity of one equi-join using
// distinct counts: 1/max(nd(left), nd(right)). For the PK/FK joins of the
// supported schemas this equals 1/|PK table| and is exact under referential
// integrity and independence.
func joinSelectivity(d *db.DB, q db.Query, j db.JoinPred, nd func(table, col string) float64) (float64, error) {
	lt, ok := q.RefByAlias(j.LeftAlias)
	if !ok {
		return 0, fmt.Errorf("estimator: join alias %s not in query", j.LeftAlias)
	}
	rt, ok := q.RefByAlias(j.RightAlias)
	if !ok {
		return 0, fmt.Errorf("estimator: join alias %s not in query", j.RightAlias)
	}
	ndl := nd(lt.Table, j.LeftCol)
	ndr := nd(rt.Table, j.RightCol)
	m := ndl
	if ndr > m {
		m = ndr
	}
	if m < 1 {
		m = 1
	}
	return 1 / m, nil
}

func clampCard(c float64) float64 {
	if c < 1 {
		return 1
	}
	return c
}
