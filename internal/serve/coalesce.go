package serve

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"time"

	"deepsketch/internal/db"
	"deepsketch/internal/estimator"
)

// CoalesceOptions tune the micro-batching coalescer. It remains only
// because the benchmark's replay stack (bench/replay.go) names it.
type CoalesceOptions struct {
	// MaxBatch is the largest coalesced batch (default 64, matching the
	// MSCN inference batch size so one flush is one forward pass).
	MaxBatch int
}

func (o CoalesceOptions) withDefaults() CoalesceOptions {
	if o.MaxBatch <= 0 {
		o.MaxBatch = 64
	}
	return o
}

// Coalescer merges concurrent single-query Estimate calls into one batched
// EstimateBatch call on the backend. No binary serves through it: it
// remains only because the benchmark's replay stack (bench/replay.go)
// names it, and goes once that stack is built the daemon's way. Callers
// with several queries batch them through EstimateBatch instead.
//
// Batches form naturally: requests enqueue on a buffered channel while a
// flush is in flight, and the next flush absorbs everything queued at once,
// so an idle coalescer serves a lone request immediately (no artificial
// wait) and a loaded one batches as deep as its arrival rate. Results are
// the backend's batched results, which for sketches match the sequential
// path bit for bit.
//
// A Coalescer owns a background flush goroutine; call Close when done.
type Coalescer struct {
	inner estimator.Estimator
	opts  CoalesceOptions
	reqs  chan coalesceReq
	stop  chan struct{}
	done  chan struct{}
	once  sync.Once

	// respPool recycles the per-request response channels. A channel is
	// returned to the pool only by the caller that received its response —
	// an abandoned (cancelled) request's channel is left for the GC, since
	// the flusher may still send into it.
	respPool sync.Pool

	// Flush-goroutine-local scratch, reused across flushes.
	batch []coalesceReq
	qs    []db.Query
}

type coalesceReq struct {
	// ctx is the caller's context. Multi-request flushes ignore it (no
	// single caller may cancel its batch-mates' work), but a singleton
	// flush has exactly one caller and honors it.
	ctx  context.Context
	q    db.Query
	resp chan coalesceResp
}

type coalesceResp struct {
	est estimator.Estimate
	err error
}

// NewCoalescer starts a coalescer over the backend. It remains only
// because the benchmark's replay stack (bench/replay.go) names it.
func NewCoalescer(inner estimator.Estimator, opts CoalesceOptions) *Coalescer {
	opts = opts.withDefaults()
	c := &Coalescer{
		inner: inner,
		opts:  opts,
		reqs:  make(chan coalesceReq, opts.MaxBatch),
		stop:  make(chan struct{}),
		done:  make(chan struct{}),
	}
	go c.loop()
	return c
}

// Name implements estimator.Estimator.
func (c *Coalescer) Name() string { return c.inner.Name() }

// Close stops the flush goroutine. Pending requests are answered first;
// Estimate calls after Close fail.
func (c *Coalescer) Close() {
	c.once.Do(func() { close(c.stop) })
	<-c.done
}

func (c *Coalescer) loop() {
	defer close(c.done)
	for {
		var first coalesceReq
		select {
		case <-c.stop:
			c.drain()
			return
		case first = <-c.reqs:
		}
		batch := append(c.batch[:0], first)
		yielded := false
		for len(batch) < c.opts.MaxBatch {
			select {
			case r := <-c.reqs:
				batch = append(batch, r)
				continue
			default:
			}
			if yielded {
				break
			}
			// The queue is momentarily empty, but concurrent callers may be
			// one scheduler pass away from enqueueing (the forward pass is
			// now fast enough that flushes outrun arrivals). Yield exactly
			// once: under load this deepens the batch dramatically; on an
			// idle server it costs one no-op scheduler call, so a lone
			// request still flushes immediately.
			runtime.Gosched()
			yielded = true
		}
		c.flush(batch)
		// Keep the (possibly grown) scratch but drop its contents: stale
		// entries would pin request contexts, queries and response channels
		// until the next equally deep batch overwrote them.
		for i := range batch {
			batch[i] = coalesceReq{}
		}
		c.batch = batch
		c.qs = clearQueries(c.qs)
	}
}

func clearQueries(qs []db.Query) []db.Query {
	for i := range qs {
		qs[i] = db.Query{}
	}
	return qs[:0]
}

// drain answers requests that were already queued when Close fired. A
// request racing past the final empty check here is not hung: its caller
// gets the closed-coalescer error from Estimate's <-c.done branch (the one
// stranded entry stays buffered until the Coalescer itself is collected).
func (c *Coalescer) drain() {
	for {
		select {
		case r := <-c.reqs:
			est, err := c.inner.Estimate(r.ctx, r.q)
			r.resp <- coalesceResp{est: est, err: err}
		default:
			return
		}
	}
}

// flush answers one coalesced batch. The batch runs under a background
// context: it serves multiple independent callers, so no single caller's
// cancellation may abort it — a caller whose ctx dies stops waiting in
// Estimate instead. If the batched call fails, each request retries
// individually so one poisoned query cannot sink its batch-mates; the
// retries run under their own caller's context — a cancelled caller's
// query is answered with its ctx error instead of burning a forward pass,
// and a live caller can still cancel its retry mid-flight.
//
//deepsketch:ctxorigin batch serves many callers; per-caller retries honor each caller's own ctx
func (c *Coalescer) flush(batch []coalesceReq) {
	if len(batch) == 1 {
		// Singleton fast path: skip the batch plumbing, and honor the one
		// caller's context — a disconnected client's lone request should
		// not consume a forward pass.
		est, err := c.inner.Estimate(batch[0].ctx, batch[0].q)
		batch[0].resp <- coalesceResp{est: est, err: err}
		return
	}
	start := time.Now()
	qs := c.qs[:0]
	for _, r := range batch {
		qs = append(qs, r.q)
	}
	c.qs = qs
	ests, err := c.inner.EstimateBatch(context.Background(), qs)
	if err != nil || len(ests) != len(batch) {
		for _, r := range batch {
			if cerr := r.ctx.Err(); cerr != nil {
				r.resp <- coalesceResp{err: cerr}
				continue
			}
			est, rerr := c.inner.Estimate(r.ctx, r.q)
			r.resp <- coalesceResp{est: est, err: rerr}
		}
		return
	}
	elapsed := time.Since(start)
	for i, r := range batch {
		est := ests[i]
		est.Latency = elapsed
		r.resp <- coalesceResp{est: est}
	}
}

// Estimate implements estimator.Estimator by enqueueing the query for the
// next coalesced flush and waiting for its result (or ctx cancellation).
func (c *Coalescer) Estimate(ctx context.Context, q db.Query) (estimator.Estimate, error) {
	// Refuse early once closed — narrows (but cannot eliminate) the window
	// in which a request is enqueued after the final drain; see drain.
	select {
	case <-c.stop:
		return estimator.Estimate{}, fmt.Errorf("serve: coalescer closed")
	default:
	}
	resp, _ := c.respPool.Get().(chan coalesceResp)
	if resp == nil {
		resp = make(chan coalesceResp, 1)
	}
	select {
	case c.reqs <- coalesceReq{ctx: ctx, q: q, resp: resp}:
	case <-ctx.Done():
		c.respPool.Put(resp)
		return estimator.Estimate{}, ctx.Err()
	case <-c.stop:
		c.respPool.Put(resp)
		return estimator.Estimate{}, fmt.Errorf("serve: coalescer closed")
	}
	select {
	case r := <-resp:
		c.respPool.Put(resp)
		return r.est, r.err
	case <-ctx.Done():
		return estimator.Estimate{}, ctx.Err()
	case <-c.done:
		// The flush loop exited. Our request either made it into the final
		// drain (its response is already buffered) or raced past it.
		select {
		case r := <-resp:
			c.respPool.Put(resp)
			return r.est, r.err
		default:
			return estimator.Estimate{}, fmt.Errorf("serve: coalescer closed")
		}
	}
}

// EstimateBatch implements estimator.Estimator by passing the already-
// batched call straight to the backend.
func (c *Coalescer) EstimateBatch(ctx context.Context, qs []db.Query) ([]estimator.Estimate, error) {
	return c.inner.EstimateBatch(ctx, qs)
}
