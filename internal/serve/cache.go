package serve

import (
	"container/list"
	"context"
	"sync"
	"time"

	"deepsketch/internal/db"
	"deepsketch/internal/estimator"
)

// Cache is an LRU estimate cache in front of any backend. Keys are the
// canonical query fingerprint (db.Query.Signature), so two queries that are
// equal as sets — same tables, joins and predicates in any clause order —
// share one entry. A single sketch is immutable once trained and its cached
// estimates never go stale; when the backend is a mutable registry (a
// Router whose sketches swap, canary and roll back under traffic), the
// bare signature is no longer a sound key — the same query's correct
// answer depends on which version answers it right now — so key the cache
// with KeyFunc(router.CacheKey), which qualifies the signature with the
// answering version.
type Cache struct {
	inner estimator.Estimator
	cap   int
	// keyFn derives the cache key for a query; nil means Query.Signature.
	// Set via KeyFunc. Immutable after construction-time wiring, so the
	// estimate paths read it without the mutex.
	keyFn func(db.Query) string

	mu      sync.Mutex
	entries map[string]*list.Element
	lru     *list.List // front = most recently used

	hits, misses uint64
}

type cacheEntry struct {
	key    string
	card   float64
	src    string
	ver    int
	engine string
}

// NewCache wraps inner with an LRU of the given capacity (entries).
// Capacity <= 0 defaults to 1024.
func NewCache(inner estimator.Estimator, capacity int) *Cache {
	if capacity <= 0 {
		capacity = 1024
	}
	return &Cache{
		inner:   inner,
		cap:     capacity,
		entries: make(map[string]*list.Element, capacity),
		lru:     list.New(),
	}
}

// Name implements estimator.Estimator.
func (c *Cache) Name() string { return c.inner.Name() }

// Stats returns cumulative hit/miss counters.
func (c *Cache) Stats() (hits, misses uint64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.hits, c.misses
}

// Len returns the number of cached entries.
func (c *Cache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.lru.Len()
}

// KeyFunc sets the function that derives a query's cache key, replacing
// the default Query.Signature. Wire it to the backing router's CacheKey
// when the backend serves multiple versions of a sketch (swaps, canary
// splits): the key then embeds the version that would answer, so a version
// transition makes the old entry unreachable instead of stale — canary
// traffic can never be answered from the previous version's cache line.
// Call during stack construction, before traffic; returns c for chaining.
func (c *Cache) KeyFunc(fn func(db.Query) string) *Cache {
	c.keyFn = fn
	return c
}

// key derives the cache key for q.
func (c *Cache) key(q db.Query) string {
	if c.keyFn != nil {
		return c.keyFn(q)
	}
	return q.Signature()
}

// lookup returns the cached estimate for key, marking it recently used.
func (c *Cache) lookup(key string, start time.Time) (estimator.Estimate, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.entries[key]
	if !ok {
		c.misses++
		return estimator.Estimate{}, false
	}
	c.hits++
	c.lru.MoveToFront(el)
	ent := el.Value.(*cacheEntry)
	return estimator.Estimate{
		Cardinality: ent.card,
		Source:      ent.src,
		Version:     ent.ver,
		Engine:      ent.engine,
		Latency:     time.Since(start),
		CacheHit:    true,
	}, true
}

// insert stores an estimate under key, evicting the LRU entry when full. An
// existing entry is overwritten, not merely refreshed: when concurrent
// misses race — e.g. one answered by a Fallback chain's secondary during a
// transient primary failure, the other by the recovered primary — the
// later, fresher computation must win, or the fallback's answer would be
// pinned until eviction.
func (c *Cache) insert(key string, e estimator.Estimate) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.entries[key]; ok {
		ent := el.Value.(*cacheEntry)
		ent.card, ent.src, ent.ver, ent.engine = e.Cardinality, e.Source, e.Version, e.Engine
		c.lru.MoveToFront(el)
		return
	}
	c.entries[key] = c.lru.PushFront(&cacheEntry{key: key, card: e.Cardinality, src: e.Source, ver: e.Version, engine: e.Engine})
	for c.lru.Len() > c.cap {
		oldest := c.lru.Back()
		c.lru.Remove(oldest)
		delete(c.entries, oldest.Value.(*cacheEntry).key)
	}
}

// Estimate implements estimator.Estimator: serve from the cache when
// possible, otherwise compute through the backend and remember the answer.
func (c *Cache) Estimate(ctx context.Context, q db.Query) (estimator.Estimate, error) {
	if err := ctx.Err(); err != nil {
		return estimator.Estimate{}, err
	}
	start := time.Now()
	key := c.key(q)
	if est, ok := c.lookup(key, start); ok {
		return est, nil
	}
	est, err := c.inner.Estimate(ctx, q)
	if err != nil {
		return estimator.Estimate{}, err
	}
	if c.keyStable(q, key) {
		c.insert(key, est)
	}
	return est, nil
}

// keyStable re-derives the query's cache key after a computation and
// reports whether it still matches the pre-computation key. With a
// version-aware KeyFunc, the key and the answer come from two separate
// routing decisions: a swap/promote/rollback between them would store the
// new version's answer under the old version's key — served as a stale
// hit if the registry later returns to that version. Such racing results
// are simply not cached (the next request recomputes under the new key).
// The default signature key cannot change, so the check short-circuits.
func (c *Cache) keyStable(q db.Query, key string) bool {
	return c.keyFn == nil || c.key(q) == key
}

// EstimateBatch implements estimator.Estimator: hits are answered from the
// cache and only the misses travel to the backend, as one batch.
func (c *Cache) EstimateBatch(ctx context.Context, qs []db.Query) ([]estimator.Estimate, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	start := time.Now()
	out := make([]estimator.Estimate, len(qs))
	keys := make([]string, len(qs))
	var missIdx []int
	for i, q := range qs {
		keys[i] = c.key(q)
		if est, ok := c.lookup(keys[i], start); ok {
			out[i] = est
		} else {
			missIdx = append(missIdx, i)
		}
	}
	if len(missIdx) == 0 {
		return out, nil
	}
	missQs := make([]db.Query, len(missIdx))
	for j, i := range missIdx {
		missQs[j] = qs[i]
	}
	ests, err := c.inner.EstimateBatch(ctx, missQs)
	if err != nil {
		return nil, err
	}
	for j, i := range missIdx {
		out[i] = ests[j]
		if c.keyStable(qs[i], keys[i]) {
			c.insert(keys[i], ests[j])
		}
	}
	return out, nil
}
