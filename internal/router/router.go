// Package router selects among multiple Deep Sketches. The paper leaves
// open "for which schema parts we should build such sketches" and expects
// deployments to hold several (the demo's SHOW SKETCHES list); the router
// answers estimation requests from whichever registered sketch covers the
// query's tables, preferring the most specific (smallest) covering sketch —
// specialist sketches see a denser training distribution over their
// subschema and estimate it better than a generalist.
//
// # Canary routing
//
// A registered name may additionally carry a canary: a candidate sketch
// (typically a freshly refreshed version) that answers a configured
// fraction of the name's traffic while the primary keeps the rest. The
// split is a deterministic hash of the query's canonical signature
// (CanarySplit), so a given query always lands on the same side at a fixed
// fraction, raising the fraction only moves new signatures onto the canary
// (never off it), and cached estimates stay coherent per split. Promote
// makes the canary the primary; Clear aborts it. The lifecycle registry
// drives these transitions as a state machine with version bookkeeping.
package router

import (
	"context"
	"fmt"
	"hash/fnv"
	"strconv"
	"sync"
	"sync/atomic"

	"deepsketch/internal/core"
	"deepsketch/internal/db"
	"deepsketch/internal/estimator"
)

// entry is one registered sketch with its coverage precomputed: the table
// set is materialized once at Register time, so the covers test on the
// dispatch hot path is pure map lookups — no per-query allocation. Entries
// are immutable after install (mutations copy-on-write the slice AND the
// touched entry), so a snapshot can be read without locks.
type entry struct {
	s      *core.Sketch
	tables map[string]bool
	size   int // len(s.Cfg.Tables): dispatch prefers the smallest cover
	ver    int // registry version of s; 0 = unversioned
	// inc is the name's registration incarnation: assigned at Register,
	// preserved across swaps/canaries/promotes, fresh after an Unregister
	// re-registers the name. Cache keys embed it so a re-registered name
	// restarting at version 1 can never collide with the previous
	// incarnation's cached answers.
	inc    uint64
	canary *canarySplit
}

// canarySplit is an entry's optional canary arm: candidate sketch, its
// registry version, and the traffic fraction it answers.
type canarySplit struct {
	s        *core.Sketch
	ver      int
	fraction float64
}

// CanarySplit reports whether a query with the given canonical signature
// belongs to the canary arm at the given traffic fraction. The split is a
// pure function of (signature, fraction): FNV-1a of the signature mapped
// uniformly onto [0,1) and compared against the fraction. Properties the
// serving layers rely on:
//
//   - Stability: the same signature lands on the same side at a fixed
//     fraction, across processes and restarts (no seed, no state).
//   - Monotonicity: a signature in the canary at fraction f stays in the
//     canary at every f' > f; growing the split only adds signatures.
//   - Uniformity: over many signatures the canary share approaches the
//     fraction.
func CanarySplit(sig string, fraction float64) bool {
	if fraction <= 0 {
		return false
	}
	if fraction >= 1 {
		return true
	}
	h := fnv.New64a()
	h.Write([]byte(sig))
	// Top 53 bits → exactly representable float64 in [0,1).
	return float64(h.Sum64()>>11)/(1<<53) < fraction
}

func (e *entry) covers(q db.Query) bool {
	for _, tr := range q.Tables {
		if !e.tables[tr.Table] {
			return false
		}
	}
	return true
}

// Router is a concurrency-safe registry of sketches with coverage-based
// dispatch. It implements estimator.Estimator, so a whole fleet of sketches
// serves through the same interface as a single one. Sketches can be
// swapped and unregistered under live traffic: every mutation installs a
// fresh entry slice (copy-on-write) and bumps the registry generation, so
// in-flight batches keep routing against the snapshot they started with;
// caches stay coherent through version-aware keys (CacheKey).
type Router struct {
	mu      sync.RWMutex
	entries []*entry
	// gen is atomic, not mutex-guarded, so reading it never touches the
	// registry mutex the estimate hot path takes once per batch.
	gen atomic.Uint64
	// serial hands out entry incarnations (see entry.inc).
	serial atomic.Uint64
}

var _ estimator.Estimator = (*Router)(nil)

// New returns an empty router.
func New() *Router { return &Router{} }

func newEntry(s *core.Sketch, ver int) *entry {
	e := &entry{s: s, tables: make(map[string]bool, len(s.Cfg.Tables)), size: len(s.Cfg.Tables), ver: ver}
	for _, t := range s.Cfg.Tables {
		e.tables[t] = true
	}
	return e
}

// Register adds a sketch. Sketches may overlap; dispatch prefers the
// smallest covering table set, breaking ties by registration order.
func (r *Router) Register(s *core.Sketch) { r.RegisterVersion(s, 0) }

// RegisterVersion is Register with a registry version number stamped on the
// sketch's estimates (lifecycle registries install versioned sketches; 0
// means unversioned).
func (r *Router) RegisterVersion(s *core.Sketch, ver int) {
	e := newEntry(s, ver)
	e.inc = r.serial.Add(1)
	r.mu.Lock()
	defer r.mu.Unlock()
	next := make([]*entry, len(r.entries), len(r.entries)+1)
	copy(next, r.entries)
	r.entries = append(next, e)
	r.gen.Add(1)
}

// Swap atomically replaces the registered sketch whose name matches with a
// new one, keeping its position (and therefore its dispatch tie-break
// order). Traffic in flight keeps its pre-swap snapshot; every estimate
// routed after Swap returns sees the new sketch. The new sketch's coverage
// may differ from the old one's. An active canary on the name is cleared —
// a direct swap invalidates whatever comparison the canary was running.
// Returns an error when no sketch of that name is registered.
func (r *Router) Swap(name string, s *core.Sketch) error { return r.SwapVersion(name, s, 0) }

// SwapVersion is Swap with a registry version number stamped on the
// sketch's estimates.
func (r *Router) SwapVersion(name string, s *core.Sketch, ver int) error {
	e := newEntry(s, ver)
	r.mu.Lock()
	defer r.mu.Unlock()
	i, ok := r.indexLocked(name)
	if !ok {
		return fmt.Errorf("router: no sketch named %q to swap", name)
	}
	e.inc = r.entries[i].inc
	r.replaceLocked(i, e)
	return nil
}

// indexLocked finds the entry position for name; r.mu must be held.
func (r *Router) indexLocked(name string) (int, bool) {
	for i, e := range r.entries {
		if e.s.Name() == name {
			return i, true
		}
	}
	return 0, false
}

// replaceLocked installs e at position i copy-on-write and bumps the
// generation; r.mu must be held.
func (r *Router) replaceLocked(i int, e *entry) {
	next := make([]*entry, len(r.entries))
	copy(next, r.entries)
	next[i] = e
	r.entries = next
	r.gen.Add(1)
}

// SetCanary installs (or re-fractions) a canary arm on the named entry: s
// answers the given fraction of the name's traffic, hash-split by query
// signature, while the primary keeps the rest. The canary must cover the
// same table set as the primary — the split must never change which
// queries the name can answer, only which version answers them. Fraction
// must be in (0, 1]; use ClearCanary to remove the arm.
func (r *Router) SetCanary(name string, s *core.Sketch, ver int, fraction float64) error {
	if fraction <= 0 || fraction > 1 {
		return fmt.Errorf("router: canary fraction %v outside (0, 1]", fraction)
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	i, ok := r.indexLocked(name)
	if !ok {
		return fmt.Errorf("router: no sketch named %q to canary", name)
	}
	old := r.entries[i]
	cand := newEntry(s, ver)
	if len(cand.tables) != len(old.tables) {
		return fmt.Errorf("router: canary for %q covers %d tables, primary covers %d — coverage must match", name, len(cand.tables), len(old.tables))
	}
	for t := range old.tables {
		if !cand.tables[t] {
			return fmt.Errorf("router: canary for %q does not cover table %q", name, t)
		}
	}
	next := &entry{s: old.s, tables: old.tables, size: old.size, ver: old.ver, inc: old.inc,
		canary: &canarySplit{s: s, ver: ver, fraction: fraction}}
	r.replaceLocked(i, next)
	return nil
}

// PromoteCanary makes the named entry's canary the primary (100% of
// traffic) and removes the arm, atomically.
func (r *Router) PromoteCanary(name string) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	i, ok := r.indexLocked(name)
	if !ok {
		return fmt.Errorf("router: no sketch named %q", name)
	}
	c := r.entries[i].canary
	if c == nil {
		return fmt.Errorf("router: %q has no canary to promote", name)
	}
	e := newEntry(c.s, c.ver)
	e.inc = r.entries[i].inc
	r.replaceLocked(i, e)
	return nil
}

// ClearCanary removes the named entry's canary arm; the primary resumes
// answering all traffic.
func (r *Router) ClearCanary(name string) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	i, ok := r.indexLocked(name)
	if !ok {
		return fmt.Errorf("router: no sketch named %q", name)
	}
	old := r.entries[i]
	if old.canary == nil {
		return fmt.Errorf("router: %q has no canary to clear", name)
	}
	r.replaceLocked(i, &entry{s: old.s, tables: old.tables, size: old.size, ver: old.ver, inc: old.inc})
	return nil
}

// Canary reports the named entry's canary arm: its version and traffic
// fraction, with ok=false when the name is unknown or has no canary.
func (r *Router) Canary(name string) (ver int, fraction float64, ok bool) {
	for _, e := range r.snapshot() {
		if e.s.Name() == name {
			if e.canary == nil {
				return 0, 0, false
			}
			return e.canary.ver, e.canary.fraction, true
		}
	}
	return 0, 0, false
}

// Unregister removes the sketch with the given name, reporting whether one
// was registered. In-flight batches holding a pre-removal snapshot finish
// against it.
func (r *Router) Unregister(name string) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	for i, old := range r.entries {
		if old.s.Name() == name {
			next := make([]*entry, 0, len(r.entries)-1)
			next = append(next, r.entries[:i]...)
			next = append(next, r.entries[i+1:]...)
			r.entries = next
			r.gen.Add(1)
			return true
		}
	}
	return false
}

// Generation returns a counter that increments on every registry mutation
// (Register, Swap, Unregister, canary changes).
func (r *Router) Generation() uint64 { return r.gen.Load() }

// snapshot returns the current entry list under one brief RLock. Mutations
// are copy-on-write — they install a fresh slice instead of editing this
// one — so the returned slice is immutable: a whole batch can route
// against one consistent snapshot without holding the lock, even while
// sketches are swapped or unregistered.
func (r *Router) snapshot() []*entry {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return r.entries
}

// Len returns the number of registered sketches.
func (r *Router) Len() int { return len(r.snapshot()) }

// Names lists registered sketch names in registration order.
func (r *Router) Names() []string {
	entries := r.snapshot()
	names := make([]string, len(entries))
	for i, e := range entries {
		names[i] = e.s.Name()
	}
	return names
}

// Name implements estimator.Estimator. Estimates carry the name of the
// sketch that answered in their Source field, not this name.
func (r *Router) Name() string { return "Sketch Router" }

// routeIn picks the covering entry from one snapshot: smallest table set
// wins, ties go to the earliest registered (a linear min scan — no
// allocation, no sort). When the winning entry carries a canary arm, the
// query's signature decides which version answers. The returned version is
// the answering sketch's registry version (0 when unversioned).
func routeIn(entries []*entry, q db.Query) (*core.Sketch, int, *entry, error) {
	var best *entry
	for _, e := range entries {
		if (best == nil || e.size < best.size) && e.covers(q) {
			best = e
		}
	}
	if best == nil {
		return nil, 0, nil, fmt.Errorf("router: no sketch covers tables of %s", q.SQL(nil))
	}
	if c := best.canary; c != nil && CanarySplit(q.Signature(), c.fraction) {
		return c.s, c.ver, best, nil
	}
	return best.s, best.ver, best, nil
}

// Route returns the sketch that will answer the query, or an error when no
// registered sketch covers every referenced table.
func (r *Router) Route(q db.Query) (*core.Sketch, error) {
	s, _, _, err := routeIn(r.snapshot(), q)
	return s, err
}

// RouteVersion is Route plus the answering sketch's registry version —
// under a canary, the version the query's hash split selects.
func (r *Router) RouteVersion(q db.Query) (*core.Sketch, int, error) {
	s, ver, _, err := routeIn(r.snapshot(), q)
	return s, ver, err
}

// VersionedCacheKey is the shared key shape version-aware serving caches
// use: the query's canonical signature qualified by the answering name's
// registration incarnation and registry version. Router.CacheKey and the
// lifecycle registry's CacheKey both produce it, so dedicated and routed
// stacks key identically. The incarnation distinguishes a name that was
// unregistered and re-registered — its versions restart at 1, and without
// the incarnation its keys would collide with the previous sketch's
// cached answers.
func VersionedCacheKey(sig, name string, inc uint64, ver int) string {
	return sig + "\x00" + name + "\x00" + strconv.FormatUint(inc, 10) + "v" + strconv.Itoa(ver)
}

// CacheKey returns the serving-version-aware cache key for q: the query's
// canonical signature qualified by the name and version of the sketch that
// would answer it right now. Serving caches keyed with this function
// (serve.Cache.KeyFunc) stay correct across swaps, canary starts, fraction
// changes and promotions without wholesale invalidation: when the answering
// version for a signature changes, so does its key, and the stale entry is
// simply never looked up again. For uncovered or unversioned queries the
// bare signature is returned (such answers do not vary by version).
func (r *Router) CacheKey(q db.Query) string {
	sig := q.Signature()
	s, ver, e, err := routeIn(r.snapshot(), q)
	if err != nil || ver == 0 {
		return sig
	}
	return VersionedCacheKey(sig, s.Name(), e.inc, ver)
}

// Estimate implements estimator.Estimator: route, then ask the covering
// sketch (or its canary arm, per the query's hash split). The returned
// estimate's Source is the answering sketch's name and Version its registry
// version.
func (r *Router) Estimate(ctx context.Context, q db.Query) (estimator.Estimate, error) {
	s, ver, _, err := routeIn(r.snapshot(), q)
	if err != nil {
		return estimator.Estimate{}, err
	}
	est, err := s.Estimate(ctx, q)
	if err != nil {
		return estimator.Estimate{}, err
	}
	est.Version = ver
	return est, nil
}

// EstimateBatch implements estimator.Estimator: queries are grouped by the
// sketch that covers them — the only grouping that still exists on the
// batched path; within a sketch, the packed inference engine takes queries
// of any shapes in one ragged forward pass. The whole batch routes against
// one registry snapshot taken under a single RLock (not one per query), so
// a concurrent Register cannot split a batch across two registry views,
// and groups evaluate in first-appearance order — deterministic for a
// given batch. Results are positional; if any query is uncovered the whole
// batch fails, like Estimate would for that query.
func (r *Router) EstimateBatch(ctx context.Context, qs []db.Query) ([]estimator.Estimate, error) {
	entries := r.snapshot()
	return EstimateGrouped(ctx, qs, func(q db.Query) (*core.Sketch, int, error) {
		s, ver, _, err := routeIn(entries, q)
		if err != nil {
			return nil, 0, fmt.Errorf("router: %w", err)
		}
		return s, ver, nil
	})
}

// EstimateGrouped is the shared batched-dispatch loop behind every
// versioned serving view (the Router's coverage dispatch, the lifecycle
// registry's per-name canary view): each query is routed, the batch is
// grouped by answering sketch — the only grouping left on the batched
// path; within a sketch the packed engine takes any shapes in one ragged
// forward pass — groups evaluate in first-appearance order (deterministic
// for a given batch), and every estimate is stamped with its group's
// registry version. Results are positional; a route error fails the whole
// batch, like the single-query path would for that query.
func EstimateGrouped(ctx context.Context, qs []db.Query, route func(db.Query) (*core.Sketch, int, error)) ([]estimator.Estimate, error) {
	groups := make(map[*core.Sketch][]int)
	vers := make(map[*core.Sketch]int)
	var order []*core.Sketch // deterministic iteration: first appearance
	for i, q := range qs {
		s, ver, err := route(q)
		if err != nil {
			return nil, fmt.Errorf("query %d: %w", i, err)
		}
		if _, ok := groups[s]; !ok {
			order = append(order, s)
			vers[s] = ver
		}
		groups[s] = append(groups[s], i)
	}
	out := make([]estimator.Estimate, len(qs))
	for _, s := range order {
		idxs := groups[s]
		sub := make([]db.Query, len(idxs))
		for j, i := range idxs {
			sub[j] = qs[i]
		}
		ests, err := s.EstimateBatch(ctx, sub)
		if err != nil {
			return nil, err
		}
		ver := vers[s]
		for j, i := range idxs {
			ests[j].Version = ver
			out[i] = ests[j]
		}
	}
	return out, nil
}
