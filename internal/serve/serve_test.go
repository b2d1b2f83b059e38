package serve

import (
	"context"
	"fmt"
	"math"
	"strings"
	"sync"
	"testing"
	"time"

	"deepsketch/internal/db"
	"deepsketch/internal/estimator"
)

// fake is a controllable backend: cardinality is a pure function of the
// query, and every call is counted.
type fake struct {
	name string
	fn   func(q db.Query) (float64, error)

	mu         sync.Mutex
	single     int
	batches    int
	batchSizes []int
}

func newFake(name string) *fake {
	return &fake{name: name, fn: func(q db.Query) (float64, error) {
		if len(q.Preds) == 0 {
			return 1, nil
		}
		return float64(q.Preds[0].Val), nil
	}}
}

func (f *fake) Name() string { return f.name }

func (f *fake) Estimate(ctx context.Context, q db.Query) (estimator.Estimate, error) {
	f.mu.Lock()
	f.single++
	f.mu.Unlock()
	return estimator.Run(ctx, f.name, q, f.fn)
}

func (f *fake) EstimateBatch(ctx context.Context, qs []db.Query) ([]estimator.Estimate, error) {
	f.mu.Lock()
	f.batches++
	f.batchSizes = append(f.batchSizes, len(qs))
	f.mu.Unlock()
	out := make([]estimator.Estimate, len(qs))
	for i, q := range qs {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		card, err := f.fn(q)
		if err != nil {
			return nil, err
		}
		out[i] = estimator.Estimate{Cardinality: card, Source: f.name}
	}
	return out, nil
}

func (f *fake) counts() (single, batches int) {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.single, f.batches
}

// query builds a distinct single-table query per value.
func query(val int64) db.Query {
	return db.Query{
		Tables: []db.TableRef{{Table: "title", Alias: "t"}},
		Preds:  []db.Predicate{{Alias: "t", Col: "production_year", Op: db.OpGt, Val: val}},
	}
}

func TestCacheHitMiss(t *testing.T) {
	f := newFake("fake")
	c := NewCache(f, 8)
	ctx := context.Background()

	q := query(2000)
	first, err := c.Estimate(ctx, q)
	if err != nil {
		t.Fatal(err)
	}
	if first.CacheHit {
		t.Error("first lookup must be a miss")
	}
	second, err := c.Estimate(ctx, q)
	if err != nil {
		t.Fatal(err)
	}
	if !second.CacheHit {
		t.Error("second lookup must be a hit")
	}
	if second.Cardinality != first.Cardinality || second.Source != first.Source {
		t.Errorf("hit %+v differs from computed %+v", second, first)
	}
	if single, _ := f.counts(); single != 1 {
		t.Errorf("backend called %d times, want 1", single)
	}
	if hits, misses := c.Stats(); hits != 1 || misses != 1 {
		t.Errorf("stats = %d hits / %d misses, want 1/1", hits, misses)
	}
}

func TestCacheKeyIsCanonical(t *testing.T) {
	f := newFake("fake")
	c := NewCache(f, 8)
	ctx := context.Background()

	a := db.Query{
		Tables: []db.TableRef{{Table: "title", Alias: "t"}},
		Preds: []db.Predicate{
			{Alias: "t", Col: "production_year", Op: db.OpGt, Val: 2000},
			{Alias: "t", Col: "kind_id", Op: db.OpEq, Val: 1},
		},
	}
	b := a.Clone()
	b.Preds[0], b.Preds[1] = b.Preds[1], b.Preds[0]

	if _, err := c.Estimate(ctx, a); err != nil {
		t.Fatal(err)
	}
	got, err := c.Estimate(ctx, b)
	if err != nil {
		t.Fatal(err)
	}
	if !got.CacheHit {
		t.Error("set-equal query with reordered predicates must hit the cache")
	}
}

func TestCacheEviction(t *testing.T) {
	f := newFake("fake")
	c := NewCache(f, 2)
	ctx := context.Background()

	for _, v := range []int64{1, 2, 3} { // evicts query(1)
		if _, err := c.Estimate(ctx, query(v)); err != nil {
			t.Fatal(err)
		}
	}
	if c.Len() != 2 {
		t.Errorf("cache holds %d entries, want 2", c.Len())
	}
	got, err := c.Estimate(ctx, query(1))
	if err != nil {
		t.Fatal(err)
	}
	if got.CacheHit {
		t.Error("evicted entry must miss")
	}
	// query(3) is still resident.
	got, err = c.Estimate(ctx, query(3))
	if err != nil {
		t.Fatal(err)
	}
	if !got.CacheHit {
		t.Error("recently used entry must still hit")
	}
}

func TestCacheBatchServesHitsAndBatchesMisses(t *testing.T) {
	f := newFake("fake")
	c := NewCache(f, 8)
	ctx := context.Background()

	if _, err := c.Estimate(ctx, query(10)); err != nil {
		t.Fatal(err)
	}
	qs := []db.Query{query(10), query(11), query(12)}
	ests, err := c.EstimateBatch(ctx, qs)
	if err != nil {
		t.Fatal(err)
	}
	if !ests[0].CacheHit || ests[1].CacheHit || ests[2].CacheHit {
		t.Errorf("hit pattern = %v/%v/%v, want hit/miss/miss", ests[0].CacheHit, ests[1].CacheHit, ests[2].CacheHit)
	}
	for i, want := range []float64{10, 11, 12} {
		if ests[i].Cardinality != want {
			t.Errorf("batch[%d] = %v, want %v", i, ests[i].Cardinality, want)
		}
	}
	f.mu.Lock()
	sizes := append([]int(nil), f.batchSizes...)
	f.mu.Unlock()
	if len(sizes) != 1 || sizes[0] != 2 {
		t.Errorf("backend batch sizes = %v, want [2] (only the misses)", sizes)
	}
}

func TestCoalescerMatchesSequentialUnderConcurrentLoad(t *testing.T) {
	f := newFake("fake")
	co := NewCoalescer(f, CoalesceOptions{MaxBatch: 16})
	defer co.Close()

	const clients = 64
	results := make([]estimator.Estimate, clients)
	errs := make([]error, clients)
	var wg sync.WaitGroup
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			results[i], errs[i] = co.Estimate(context.Background(), query(int64(i+1)))
		}(i)
	}
	wg.Wait()
	for i := 0; i < clients; i++ {
		if errs[i] != nil {
			t.Fatalf("client %d: %v", i, errs[i])
		}
		// Sequential ground truth: the fake's pure function of the query.
		if want := float64(i + 1); results[i].Cardinality != want {
			t.Errorf("client %d got %v, want %v", i, results[i].Cardinality, want)
		}
		if results[i].Source != "fake" {
			t.Errorf("client %d source = %q", i, results[i].Source)
		}
	}
}

// gatedFake wires a fake whose query(0) flush blocks until release is
// closed — while it blocks, further requests pile up at the coalescer's
// rendezvous and the next flush must absorb them as one batch.
func gatedFake(name string) (f *fake, started, release chan struct{}) {
	f = newFake(name)
	started = make(chan struct{})
	release = make(chan struct{})
	var once sync.Once
	inner := f.fn
	f.fn = func(q db.Query) (float64, error) {
		if q.Preds[0].Val == 0 {
			once.Do(func() { close(started) })
			<-release
		}
		return inner(q)
	}
	return f, started, release
}

func TestCoalescerBatchesQueuedRequests(t *testing.T) {
	f, started, release := gatedFake("fake")
	co := NewCoalescer(f, CoalesceOptions{MaxBatch: 8})
	defer co.Close()

	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		if _, err := co.Estimate(context.Background(), query(0)); err != nil {
			t.Error(err)
		}
	}()
	<-started // the worker is now stuck flushing query(0)
	for i := int64(1); i <= 3; i++ {
		wg.Add(1)
		go func(i int64) {
			defer wg.Done()
			if _, err := co.Estimate(context.Background(), query(i)); err != nil {
				t.Error(err)
			}
		}(i)
	}
	time.Sleep(250 * time.Millisecond) // let all three park at the rendezvous
	close(release)
	wg.Wait()

	f.mu.Lock()
	sizes := append([]int(nil), f.batchSizes...)
	f.mu.Unlock()
	single, _ := f.counts()
	// The lone gate request takes the singleton fast path (one Estimate
	// call); the three queued behind it must flush as one batch.
	if single != 1 || len(sizes) != 1 || sizes[0] != 3 {
		t.Errorf("backend saw single=%d batches=%v, want single=1 batches=[3]", single, sizes)
	}
}

func TestCoalescerIsolatesPoisonedQuery(t *testing.T) {
	f, started, release := gatedFake("fake")
	base := f.fn
	f.fn = func(q db.Query) (float64, error) {
		if q.Preds[0].Val == 13 {
			return 0, fmt.Errorf("poisoned")
		}
		return base(q)
	}
	co := NewCoalescer(f, CoalesceOptions{MaxBatch: 8})
	defer co.Close()

	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		if _, err := co.Estimate(context.Background(), query(0)); err != nil {
			t.Error(err)
		}
	}()
	<-started
	errs := make([]error, 3)
	vals := []int64{12, 13, 14}
	for i := range vals {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, errs[i] = co.Estimate(context.Background(), query(vals[i]))
		}(i)
	}
	time.Sleep(250 * time.Millisecond) // the three queue into one batch
	close(release)
	wg.Wait()
	if errs[0] != nil || errs[2] != nil {
		t.Errorf("healthy batch-mates failed: %v, %v", errs[0], errs[2])
	}
	if errs[1] == nil {
		t.Error("poisoned query must keep its error")
	}
}

func TestCoalescerLoneRequestFlushesImmediately(t *testing.T) {
	f := newFake("fake")
	co := NewCoalescer(f, CoalesceOptions{MaxBatch: 64})
	defer co.Close()
	start := time.Now()
	if _, err := co.Estimate(context.Background(), query(1)); err != nil {
		t.Fatal(err)
	}
	// No artificial wait: a lone request on an idle coalescer must be
	// answered in far less than any batching window.
	if el := time.Since(start); el > 100*time.Millisecond {
		t.Errorf("lone request took %v", el)
	}
}

func TestCoalescerHonorsCallerCancellation(t *testing.T) {
	f := newFake("fake")
	block := make(chan struct{})
	f.fn = func(q db.Query) (float64, error) {
		<-block
		return 1, nil
	}
	co := NewCoalescer(f, CoalesceOptions{MaxBatch: 1})
	defer func() { close(block); co.Close() }()

	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	_, err := co.Estimate(ctx, query(1))
	if err != context.DeadlineExceeded {
		t.Errorf("err = %v, want context.DeadlineExceeded", err)
	}
}

func TestFallbackOrdering(t *testing.T) {
	primary := newFake("primary")
	primary.fn = func(q db.Query) (float64, error) {
		if q.Preds[0].Val >= 100 {
			return 0, fmt.Errorf("uncovered")
		}
		return float64(q.Preds[0].Val), nil
	}
	secondary := newFake("secondary")
	chain := Fallback(primary, secondary)
	ctx := context.Background()

	if chain.Name() != "primary → secondary" {
		t.Errorf("chain name = %q", chain.Name())
	}
	got, err := chain.Estimate(ctx, query(7))
	if err != nil {
		t.Fatal(err)
	}
	if got.Source != "primary" {
		t.Errorf("covered query answered by %q, want primary", got.Source)
	}
	if single, _ := secondary.counts(); single != 0 {
		t.Error("secondary must not be consulted when primary answers")
	}
	got, err = chain.Estimate(ctx, query(100))
	if err != nil {
		t.Fatal(err)
	}
	if got.Source != "secondary" {
		t.Errorf("uncovered query answered by %q, want secondary", got.Source)
	}
}

func TestFallbackBatchFallsThroughPerQuery(t *testing.T) {
	primary := newFake("primary")
	primary.fn = func(q db.Query) (float64, error) {
		if q.Preds[0].Val >= 100 {
			return 0, fmt.Errorf("uncovered")
		}
		return float64(q.Preds[0].Val), nil
	}
	secondary := newFake("secondary")
	chain := Fallback(primary, secondary)

	ests, err := chain.EstimateBatch(context.Background(), []db.Query{query(1), query(100), query(2)})
	if err != nil {
		t.Fatal(err)
	}
	wantSrc := []string{"primary", "secondary", "primary"}
	for i, w := range wantSrc {
		if ests[i].Source != w {
			t.Errorf("batch[%d] source = %q, want %q", i, ests[i].Source, w)
		}
	}
}

func TestFallbackAllFail(t *testing.T) {
	bad := newFake("bad")
	bad.fn = func(db.Query) (float64, error) { return 0, fmt.Errorf("nope") }
	if _, err := Fallback(bad, bad).Estimate(context.Background(), query(1)); err == nil {
		t.Error("chain of failing backends must error")
	}
}

func TestClamp(t *testing.T) {
	f := newFake("fake")
	f.fn = func(q db.Query) (float64, error) { return float64(q.Preds[0].Val) / 10, nil }
	clamped := Clamp(f, 5)
	ctx := context.Background()

	got, err := clamped.Estimate(ctx, query(2)) // raw 0.2 → 1
	if err != nil {
		t.Fatal(err)
	}
	if got.Cardinality != 1 {
		t.Errorf("low estimate clamped to %v, want 1", got.Cardinality)
	}
	ests, err := clamped.EstimateBatch(ctx, []db.Query{query(30), query(900)}) // raw 3, 90 → 3, 5
	if err != nil {
		t.Fatal(err)
	}
	if ests[0].Cardinality != 3 || ests[1].Cardinality != 5 {
		t.Errorf("batch clamped to %v/%v, want 3/5", ests[0].Cardinality, ests[1].Cardinality)
	}
}

// TestClampRejectsNonFinite: a backend that answers NaN or ±Inf gets an
// error from the clamp, not a clamped number, so in the daemon's stack
// shape — cache over fallback over clamp — the next backend answers that
// query, alone or in a batch, and nothing non-finite is cached.
func TestClampRejectsNonFinite(t *testing.T) {
	ctx := context.Background()
	for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		model := newFake("model")
		model.fn = func(q db.Query) (float64, error) {
			if q.Preds[0].Val == 13 {
				return bad, nil
			}
			return float64(q.Preds[0].Val), nil
		}
		if _, err := Clamp(model, 1e6).Estimate(ctx, query(13)); err == nil || !strings.Contains(err.Error(), "non-finite estimate from model") {
			t.Fatalf("%v: clamp error = %v, want one naming the non-finite estimate and the backend", bad, err)
		}
		stack := NewCache(Fallback(Clamp(model, 1e6), newFake("postgres")), 16)
		for round := 0; round < 2; round++ {
			got, err := stack.Estimate(ctx, query(13))
			if err != nil {
				t.Fatal(err)
			}
			if got.Source != "postgres" || got.Cardinality != 13 {
				t.Fatalf("%v round %d: answered %v by %q, want 13 by postgres", bad, round, got.Cardinality, got.Source)
			}
		}
		ests, err := stack.EstimateBatch(ctx, []db.Query{query(12), query(13), query(14)})
		if err != nil {
			t.Fatal(err)
		}
		for i, want := range []string{"model", "postgres", "model"} {
			if ests[i].Source != want || math.IsNaN(ests[i].Cardinality) || math.IsInf(ests[i].Cardinality, 0) {
				t.Errorf("%v: batch[%d] = %v from %q, want a finite answer from %s", bad, i, ests[i].Cardinality, ests[i].Source, want)
			}
		}
	}
}

func TestSequentialBatchCancellationMidBatch(t *testing.T) {
	f := newFake("fake")
	ctx, cancel := context.WithCancel(context.Background())
	n := 0
	f.fn = func(q db.Query) (float64, error) {
		n++
		if n == 2 {
			cancel() // cancel while the batch is in flight
		}
		return 1, nil
	}
	qs := []db.Query{query(1), query(2), query(3), query(4)}
	_, err := estimator.SequentialBatch(ctx, f, qs)
	if err != context.Canceled {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if n >= len(qs) {
		t.Errorf("batch ran to completion (%d queries) despite cancellation", n)
	}
}

func TestCacheRejectsCancelledContext(t *testing.T) {
	c := NewCache(newFake("fake"), 4)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := c.Estimate(ctx, query(1)); err != context.Canceled {
		t.Errorf("Estimate err = %v, want context.Canceled", err)
	}
	if _, err := c.EstimateBatch(ctx, []db.Query{query(1)}); err != context.Canceled {
		t.Errorf("EstimateBatch err = %v, want context.Canceled", err)
	}
}

func TestMaxCardinality(t *testing.T) {
	d := db.NewDB("t")
	d.MustAddTable(db.MustNewTable("a", db.NewIntColumn("x", []int64{1, 2, 3})))
	d.MustAddTable(db.MustNewTable("b", db.NewIntColumn("y", []int64{1, 2})))
	if got := MaxCardinality(d); got != 6 {
		t.Errorf("MaxCardinality = %v, want 6", got)
	}
}

func TestCacheInsertReplacesExistingEntry(t *testing.T) {
	// Two concurrent misses for the same query race through Estimate: the
	// fallback chain's secondary answers the first (transient primary failure), the
	// recovered primary answers the second. The second insert must replace
	// the cached entry — before the fix it only MoveToFront'd, pinning the
	// fallback's answer until eviction.
	c := NewCache(newFake("primary"), 8)
	q := query(42)
	key := q.Signature()
	c.insert(key, estimator.Estimate{Cardinality: 7, Source: "fallback"})
	c.insert(key, estimator.Estimate{Cardinality: 42, Source: "primary"})

	got, err := c.Estimate(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	if !got.CacheHit {
		t.Error("expected a cache hit")
	}
	if got.Cardinality != 42 || got.Source != "primary" {
		t.Errorf("cached entry = %v from %q, want 42 from primary (later insert must win)",
			got.Cardinality, got.Source)
	}
	if c.Len() != 1 {
		t.Errorf("Len = %d, want 1 (update must not duplicate the entry)", c.Len())
	}
}

func TestCacheStaleFallbackAnswerReplacedEndToEnd(t *testing.T) {
	// The same race end to end through the public API: request A computes
	// through the fallback (primary down), request B through the recovered
	// primary; B's result lands last and must be what the cache serves.
	primaryUp := false
	var mu sync.Mutex
	primary := newFake("primary")
	primary.fn = func(q db.Query) (float64, error) {
		mu.Lock()
		up := primaryUp
		mu.Unlock()
		if !up {
			return 0, fmt.Errorf("primary down")
		}
		return float64(q.Preds[0].Val), nil
	}
	secondary := newFake("secondary")
	c := NewCache(Fallback(primary, secondary), 8)
	ctx := context.Background()
	q := query(9)

	// A: miss, primary down, fallback answers and is cached.
	a, err := c.Estimate(ctx, q)
	if err != nil {
		t.Fatal(err)
	}
	if a.Source != "secondary" {
		t.Fatalf("first answer from %q, want secondary", a.Source)
	}
	// B raced A: it passed the lookup before A's insert and computes after
	// the primary recovered. Replay its insert path.
	mu.Lock()
	primaryUp = true
	mu.Unlock()
	b, err := Fallback(primary, secondary).Estimate(ctx, q)
	if err != nil {
		t.Fatal(err)
	}
	c.insert(q.Signature(), b)

	got, err := c.Estimate(ctx, q)
	if err != nil {
		t.Fatal(err)
	}
	if !got.CacheHit || got.Source != "primary" {
		t.Errorf("cache serves %q (hit=%v), want the primary's refreshed answer", got.Source, got.CacheHit)
	}
}

// ctxBackend always fails EstimateBatch (forcing the coalescer's sequential
// fallback) and records which query values reach single Estimate.
type ctxBackend struct {
	mu      sync.Mutex
	singles []int64
	gate    chan struct{} // blocks the val-0 singleton flush
	started chan struct{}
}

func (b *ctxBackend) Name() string { return "ctx" }

func (b *ctxBackend) Estimate(ctx context.Context, q db.Query) (estimator.Estimate, error) {
	val := q.Preds[0].Val
	if val == 0 {
		close(b.started)
		<-b.gate
	}
	b.mu.Lock()
	b.singles = append(b.singles, val)
	b.mu.Unlock()
	if err := ctx.Err(); err != nil {
		return estimator.Estimate{}, err
	}
	return estimator.Estimate{Cardinality: float64(val), Source: "ctx"}, nil
}

func (b *ctxBackend) EstimateBatch(ctx context.Context, qs []db.Query) ([]estimator.Estimate, error) {
	return nil, fmt.Errorf("batch failed")
}

func TestCoalescerFallbackHonorsCallerContext(t *testing.T) {
	// A failed batched flush falls back to sequential retries. A caller
	// whose context is already cancelled must get its ctx error without the
	// backend ever seeing the query — before the fix the retry ran under
	// context.Background() and burned a forward pass for a caller that had
	// already hung up.
	b := &ctxBackend{gate: make(chan struct{}), started: make(chan struct{})}
	co := NewCoalescer(b, CoalesceOptions{MaxBatch: 8})
	defer co.Close()

	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		if _, err := co.Estimate(context.Background(), query(0)); err != nil {
			t.Error(err)
		}
	}()
	<-b.started // the flush goroutine is stuck on the val-0 singleton

	ctx12, cancel12 := context.WithCancel(context.Background())
	errs := make([]error, 2)
	wg.Add(1)
	go func() {
		defer wg.Done()
		_, errs[0] = co.Estimate(ctx12, query(12))
	}()
	wg.Add(1)
	go func() {
		defer wg.Done()
		_, errs[1] = co.Estimate(context.Background(), query(14))
	}()
	time.Sleep(250 * time.Millisecond) // both park in the queue
	cancel12()                         // caller 12 hangs up before the flush
	close(b.gate)
	wg.Wait()

	if errs[0] != context.Canceled {
		t.Errorf("cancelled caller got %v, want context.Canceled", errs[0])
	}
	if errs[1] != nil {
		t.Errorf("live caller failed: %v", errs[1])
	}
	b.mu.Lock()
	seen := append([]int64(nil), b.singles...)
	b.mu.Unlock()
	for _, v := range seen {
		if v == 12 {
			t.Errorf("backend saw query 12 (%v) — cancelled caller's retry must be skipped", seen)
		}
	}
	want := map[int64]bool{0: false, 14: false}
	for _, v := range seen {
		if _, ok := want[v]; ok {
			want[v] = true
		}
	}
	for v, ok := range want {
		if !ok {
			t.Errorf("backend never saw query %d (saw %v)", v, seen)
		}
	}
}
