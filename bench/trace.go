package main

import (
	"context"
	"encoding/json"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"deepsketch"
)

// span is one call across a layer boundary, recorded from outside the
// layer by a wrapper around its exported interface.
type span struct {
	Layer string `json:"layer"`
	// Request identifies the replayed request the call belongs to; -1 for a
	// call that served a coalesced batch of several requests at once.
	Request int `json:"request"`
	// Parent is the index of the span that caused this one; -1 for a
	// request's outermost span and for batch calls, whose parents are the
	// coalescer spans that waited for them (see serving).
	Parent int   `json:"parent"`
	Start  int64 `json:"start_ns"`
	End    int64 `json:"end_ns"`
	// Queries is how many queries the call carried.
	Queries int `json:"queries"`
	// CacheHit marks an outermost span answered from the estimate cache.
	CacheHit bool `json:"cache_hit,omitempty"`
}

func (s span) duration() int64 { return s.End - s.Start }

// recorder keeps spans in memory until the run ends.
type recorder struct {
	epoch  time.Time
	paused atomic.Bool // warm-up traffic passes through unrecorded
	mu     sync.Mutex
	spans  []span
}

func (r *recorder) pause(on bool) { r.paused.Store(on) }

// newRecorder reserves room for a replay's spans up front, so that
// recording one is an append without a copy.
func newRecorder() *recorder {
	return &recorder{epoch: time.Now(), spans: make([]span, 0, 1<<16)}
}

func (r *recorder) now() int64 { return time.Since(r.epoch).Nanoseconds() }

func (r *recorder) add(s span) int {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans = append(r.spans, s)
	return len(r.spans) - 1
}

func (r *recorder) finish(i int, end int64, hit bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans[i].End = end
	r.spans[i].CacheHit = hit
}

// cursor is how a span finds its parent: the context of a traced request
// carries the request id and the index of the innermost open span. One
// cursor serves the whole request — its spans nest, and the coalescer's
// flush goroutine only touches it while the request's own goroutine is
// blocked on the answer — so opening a span allocates nothing.
type cursor struct{ request, parent int }

type cursorKey struct{}

func withRequest(ctx context.Context, request int) context.Context {
	return context.WithValue(ctx, cursorKey{}, &cursor{request: request, parent: -1})
}

// traced wraps an Estimator so that every call through it is a span of the
// named layer. The serving stack is built from the same constructors the
// daemon uses, with one of these slipped in at every boundary.
type traced struct {
	layer string
	inner deepsketch.Estimator
	rec   *recorder
}

func (r *recorder) wrap(layer string, inner deepsketch.Estimator) deepsketch.Estimator {
	return &traced{layer: layer, inner: inner, rec: r}
}

func (t *traced) Name() string { return t.inner.Name() }

// open starts a span under the request's innermost open span and returns
// what close needs to end it.
func (t *traced) open(ctx context.Context, queries int) (cur *cursor, i, parent int) {
	cur, _ = ctx.Value(cursorKey{}).(*cursor)
	if cur == nil {
		// The coalescer flushes a multi-request batch under its own
		// context: the call belongs to no single request.
		return nil, t.rec.add(span{Layer: t.layer, Request: -1, Parent: -1, Start: t.rec.now(), Queries: queries}), -1
	}
	parent = cur.parent
	i = t.rec.add(span{Layer: t.layer, Request: cur.request, Parent: parent, Start: t.rec.now(), Queries: queries})
	cur.parent = i
	return cur, i, parent
}

func (t *traced) close(cur *cursor, i, parent int, hit bool) {
	t.rec.finish(i, t.rec.now(), hit)
	if cur != nil {
		cur.parent = parent
	}
}

func (t *traced) Estimate(ctx context.Context, q deepsketch.Query) (deepsketch.Estimate, error) {
	if t.rec.paused.Load() {
		return t.inner.Estimate(ctx, q)
	}
	cur, i, parent := t.open(ctx, 1)
	est, err := t.inner.Estimate(ctx, q)
	t.close(cur, i, parent, est.CacheHit)
	return est, err
}

func (t *traced) EstimateBatch(ctx context.Context, qs []deepsketch.Query) ([]deepsketch.Estimate, error) {
	if t.rec.paused.Load() {
		return t.inner.EstimateBatch(ctx, qs)
	}
	cur, i, parent := t.open(ctx, len(qs))
	ests, err := t.inner.EstimateBatch(ctx, qs)
	t.close(cur, i, parent, false)
	return ests, err
}

// selfTimes returns every span's self time in nanoseconds, positionally:
// its duration minus its children's. A span's children are the spans that
// name it as parent and, for a coalescer span, the backend call that served
// it (found by serving, since a coalesced call cannot name its many
// parents).
func selfTimes(spans []span, coalescer, backend string) []float64 {
	child := make([]int64, len(spans))
	for _, s := range spans {
		if s.Parent >= 0 {
			child[s.Parent] += s.duration()
		}
	}
	for waiter, call := range serving(spans, coalescer, backend) {
		if spans[call].Parent != waiter {
			child[waiter] += spans[call].duration()
		}
	}
	out := make([]float64, len(spans))
	for i, s := range spans {
		out[i] = float64(s.duration() - child[i])
	}
	return out
}

// selfP50US is the median self time, in microseconds, of the spans keep
// selects; 0 when it selects none.
func selfP50US(spans []span, self []float64, keep func(span) bool) float64 {
	var picked []float64
	for i, s := range spans {
		if keep(s) {
			picked = append(picked, self[i]/1e3)
		}
	}
	return median(picked)
}

// serving maps every coalescer span to the backend call that answered it.
// The coalescer flushes from one goroutine, so backend calls never overlap,
// and a request's answer is sent right after the flush that computed it:
// the serving call is the last one that ended within the waiter's span.
func serving(spans []span, coalescer, backend string) map[int]int {
	var calls []int
	for i, s := range spans {
		if s.Layer == backend {
			calls = append(calls, i)
		}
	}
	sort.Slice(calls, func(a, b int) bool { return spans[calls[a]].End < spans[calls[b]].End })
	out := map[int]int{}
	for i, s := range spans {
		if s.Layer != coalescer {
			continue
		}
		// First call ending after the waiter's end, minus one.
		k := sort.Search(len(calls), func(j int) bool { return spans[calls[j]].End > s.End }) - 1
		if k >= 0 && spans[calls[k]].End >= s.Start {
			out[i] = calls[k]
		}
	}
	return out
}

// traceFile is what a traced run leaves in bench/out.
type traceFile struct {
	Header  []string               `json:"header"`
	Metrics map[string]metricValue `json:"metrics"`
	Spans   []span                 `json:"spans"`
}

func writeTrace(path string, tf traceFile) error {
	blob, err := json.Marshal(tf)
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(blob, '\n'), 0o644)
}
