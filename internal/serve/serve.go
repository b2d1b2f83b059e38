// Package serve is the serving layer stacked on top of estimation backends:
// composable middleware that turns any estimator.Estimator into a
// production-shaped service. It provides an LRU estimate cache keyed on the
// canonical query fingerprint (optionally qualified by the answering sketch
// version via Cache.KeyFunc, so swaps and canary splits never surface a
// stale version's answer), sanity clamping of estimates into [1, |DB|], and
// fallback chains so an uncovered query falls through to the next backend
// (Router → PostgreSQL) instead of erroring. Every wrapper answers on its
// caller's goroutine; a caller with many queries batches them through
// EstimateBatch.
//
// Every wrapper implements estimator.Estimator itself, so stacks compose
// freely:
//
//	est := serve.NewCache(serve.Fallback(serve.Clamp(sketch, maxCard), postgres), 1024)
package serve

import (
	"context"
	"fmt"
	"strings"

	"deepsketch/internal/db"
	"deepsketch/internal/estimator"
)

// Clamp returns an estimator that clamps every cardinality into [1, max] —
// the sanity bound no estimate should escape (an MSCN extrapolating far
// outside its training distribution can produce estimates beyond the
// database's maximum possible join size). max <= 0 disables the upper
// bound and only enforces the ≥ 1 convention.
func Clamp(inner estimator.Estimator, max float64) estimator.Estimator {
	return &clamp{inner: inner, max: max}
}

type clamp struct {
	inner estimator.Estimator
	max   float64
}

func (c *clamp) Name() string { return c.inner.Name() }

func (c *clamp) apply(e estimator.Estimate) estimator.Estimate {
	if e.Cardinality < 1 {
		e.Cardinality = 1
	}
	if c.max > 0 && e.Cardinality > c.max {
		e.Cardinality = c.max
	}
	return e
}

func (c *clamp) Estimate(ctx context.Context, q db.Query) (estimator.Estimate, error) {
	e, err := c.inner.Estimate(ctx, q)
	if err != nil {
		return estimator.Estimate{}, err
	}
	return c.apply(e), nil
}

func (c *clamp) EstimateBatch(ctx context.Context, qs []db.Query) ([]estimator.Estimate, error) {
	ests, err := c.inner.EstimateBatch(ctx, qs)
	if err != nil {
		return nil, err
	}
	for i := range ests {
		ests[i] = c.apply(ests[i])
	}
	return ests, nil
}

// MaxCardinality returns the largest possible COUNT(*) result over the
// database — the product of all table sizes — as the natural Clamp bound.
func MaxCardinality(d *db.DB) float64 {
	max := 1.0
	for _, name := range d.TableNames() {
		max *= float64(d.Table(name).NumRows())
	}
	return max
}

// Fallback returns an estimator that tries each backend in order until one
// answers. The canonical chain is Router → PostgreSQL: a query no sketch
// covers falls through to the statistics estimator instead of erroring.
// An error is returned only when every backend fails (the last error wins),
// or immediately when ctx is done.
func Fallback(backends ...estimator.Estimator) estimator.Estimator {
	if len(backends) == 1 {
		return backends[0]
	}
	names := make([]string, len(backends))
	for i, b := range backends {
		names[i] = b.Name()
	}
	return &fallback{backends: backends, name: strings.Join(names, " → ")}
}

type fallback struct {
	backends []estimator.Estimator
	name     string
}

func (f *fallback) Name() string { return f.name }

func (f *fallback) Estimate(ctx context.Context, q db.Query) (estimator.Estimate, error) {
	var lastErr error
	for _, b := range f.backends {
		if err := ctx.Err(); err != nil {
			return estimator.Estimate{}, err
		}
		est, err := b.Estimate(ctx, q)
		if err == nil {
			return est, nil
		}
		lastErr = err
	}
	if lastErr == nil {
		lastErr = fmt.Errorf("serve: fallback chain is empty")
	}
	return estimator.Estimate{}, fmt.Errorf("serve: every backend failed: %w", lastErr)
}

// EstimateBatch tries the whole batch on the first backend, keeping its
// batched inference path; if that fails, each query walks the chain on its
// own.
func (f *fallback) EstimateBatch(ctx context.Context, qs []db.Query) ([]estimator.Estimate, error) {
	if len(f.backends) > 0 {
		if ests, err := f.backends[0].EstimateBatch(ctx, qs); err == nil && len(ests) == len(qs) {
			return ests, nil
		}
	}
	return estimator.SequentialBatch(ctx, f, qs)
}
