// Package router selects among multiple Deep Sketches. The paper leaves
// open "for which schema parts we should build such sketches" and expects
// deployments to hold several (the demo's SHOW SKETCHES list); the router
// answers estimation requests from whichever installed sketch covers the
// query's tables, preferring the most specific (smallest) covering sketch —
// specialist sketches see a denser training distribution over their
// subschema and estimate it better than a generalist.
//
// The router decides nothing about versions: what it serves for a name is a
// Serving, an immutable projection of state the lifecycle registry owns,
// replaced whole by Install. The router only reads it — on the estimate
// path, without any lock the registry's mutations hold.
//
// # Canary routing
//
// A Serving may carry a canary arm: a candidate sketch (typically a freshly
// refreshed version) that answers a configured fraction of the name's
// traffic while the primary keeps the rest. The split is a deterministic
// hash of the query's canonical signature (CanarySplit), so a given query
// always lands on the same side at a fixed fraction, raising the fraction
// only moves new signatures onto the canary (never off it), and cached
// estimates stay coherent per split.
package router

import (
	"context"
	"fmt"
	"hash/fnv"
	"strconv"
	"sync"

	"deepsketch/internal/core"
	"deepsketch/internal/db"
	"deepsketch/internal/estimator"
)

// Serving is what answers one name right now: the primary sketch and its
// registry version, an optional canary arm with the traffic fraction it
// takes, and the name's registration incarnation. The lifecycle registry
// derives it from a name's version history on every mutation; the router
// never edits one.
type Serving struct {
	Primary *core.Sketch
	Version int
	// Canary, when non-nil, answers Fraction of the name's traffic, hash-split
	// by query signature, and stamps CanaryVersion on those estimates.
	Canary        *core.Sketch
	CanaryVersion int
	Fraction      float64
	// Inc is the name's registration incarnation: kept across swaps, canaries
	// and promotes, fresh when an unregistered name is published again. Cache
	// keys embed it so a re-registered name restarting at version 1 can never
	// collide with the previous incarnation's cached answers.
	Inc uint64
}

// entry is one installed name with its coverage precomputed: the table set
// is materialized once at Install time, so the covers test on the dispatch
// hot path is pure map lookups — no per-query allocation. Entries are
// immutable after install (Install replaces the slice AND the entry), so a
// snapshot can be read without locks.
type entry struct {
	Serving
	name   string
	tables map[string]bool
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

// pick is the one place the canary split is decided: the sketch and registry
// version that answer a query with the given canonical signature. Without a
// canary arm the signature is not read.
func (e *entry) pick(sig string) (*core.Sketch, int) {
	if e.Canary != nil && CanarySplit(sig, e.Fraction) {
		return e.Canary, e.CanaryVersion
	}
	return e.Primary, e.Version
}

// answer is pick for a query. Building the canonical signature is the
// costliest part of a route, so it is skipped when no canary arm reads it.
func (e *entry) answer(q db.Query) (*core.Sketch, int) {
	if e.Canary == nil {
		return e.pick("")
	}
	return e.pick(q.Signature())
}

// table is the copy-on-write list of installed entries that a Router and
// every View of it share.
type table struct {
	mu      sync.RWMutex
	entries []*entry
}

// Router is a concurrency-safe table of what serves each name, with
// coverage-based dispatch: it is the coverage View of its own table, plus
// the two mutations. It implements estimator.Estimator, so a whole fleet of
// sketches serves through the same interface as a single one. Names are
// installed and unregistered under live traffic: every mutation publishes a
// fresh entry slice (copy-on-write), so in-flight batches keep routing
// against the snapshot they started with; caches stay coherent through
// version-aware keys (CacheKey).
type Router struct {
	View
}

var _ estimator.Estimator = (*Router)(nil)

// New returns an empty router.
func New() *Router { return &Router{View{t: &table{}}} }

func tableSet(s *core.Sketch) map[string]bool {
	tables := make(map[string]bool, len(s.Cfg.Tables))
	for _, t := range s.Cfg.Tables {
		tables[t] = true
	}
	return tables
}

// index finds name's position in one snapshot, -1 when it is not installed.
func index(entries []*entry, name string) int {
	for i, e := range entries {
		if e.name == name {
			return i
		}
	}
	return -1
}

// Install makes sv what serves name, atomically: a new name joins the end of
// the dispatch order (ties between equal-sized covers go to the earliest
// installed), an installed one is replaced in place and keeps its position.
// Traffic in flight keeps its pre-install snapshot; every estimate routed
// after Install returns sees sv. Both sketches must carry the name — the
// router dispatches and reports sources by it — and a canary arm must cover
// exactly the primary's table set, at a fraction in (0, 1]: the split must
// never change which queries the name can answer, only which version
// answers them. A refused Install changes nothing.
func (r *Router) Install(name string, sv Serving) error {
	if name == "" {
		return fmt.Errorf("router: empty sketch name")
	}
	if sv.Primary == nil {
		return fmt.Errorf("router: no primary sketch for %q", name)
	}
	for _, s := range []*core.Sketch{sv.Primary, sv.Canary} {
		if s != nil && s.Name() != name {
			return fmt.Errorf("router: sketch is named %q, installing as %q — set Cfg.Name first", s.Name(), name)
		}
	}
	e := &entry{Serving: sv, name: name, tables: tableSet(sv.Primary)}
	if sv.Canary != nil {
		if sv.Fraction <= 0 || sv.Fraction > 1 {
			return fmt.Errorf("router: canary fraction %v outside (0, 1]", sv.Fraction)
		}
		cand := tableSet(sv.Canary)
		if len(cand) != len(e.tables) {
			return fmt.Errorf("router: canary for %q covers %d tables, primary covers %d — coverage must match", name, len(cand), len(e.tables))
		}
		for t := range e.tables {
			if !cand[t] {
				return fmt.Errorf("router: canary for %q does not cover table %q", name, t)
			}
		}
	}
	t := r.t
	t.mu.Lock()
	defer t.mu.Unlock()
	next := make([]*entry, len(t.entries), len(t.entries)+1)
	copy(next, t.entries)
	if i := index(next, name); i >= 0 {
		next[i] = e
	} else {
		next = append(next, e)
	}
	t.entries = next
	return nil
}

// Unregister removes name, reporting whether it was installed. In-flight
// batches holding a pre-removal snapshot finish against it.
func (r *Router) Unregister(name string) bool {
	t := r.t
	t.mu.Lock()
	defer t.mu.Unlock()
	i := index(t.entries, name)
	if i < 0 {
		return false
	}
	next := make([]*entry, 0, len(t.entries)-1)
	next = append(next, t.entries[:i]...)
	t.entries = append(next, t.entries[i+1:]...)
	return true
}

// snapshot returns the current entry list under one brief RLock. Mutations
// are copy-on-write — they install a fresh slice instead of editing this
// one — so the returned slice is immutable: a whole batch can route
// against one consistent snapshot without holding the lock, even while
// names are installed or unregistered.
func (t *table) snapshot() []*entry {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return t.entries
}

// Len returns the number of installed names.
func (r *Router) Len() int { return len(r.t.snapshot()) }

// Names lists installed names in dispatch (first-install) order.
func (r *Router) Names() []string {
	entries := r.t.snapshot()
	names := make([]string, len(entries))
	for i, e := range entries {
		names[i] = e.name
	}
	return names
}

// ServingVersion reports which version of name answers a query with the
// given canonical signature right now; ok=false when name is not installed.
func (r *Router) ServingVersion(name, sig string) (ver int, ok bool) {
	entries := r.t.snapshot()
	i := index(entries, name)
	if i < 0 {
		return 0, false
	}
	_, ver = entries[i].pick(sig)
	return ver, true
}

// View is the serving read path over a router's snapshots. The two views
// differ only in how they find the entry that answers a query — the smallest
// cover (the Router's own Estimator methods) or one fixed name (Named) —
// and share everything after that: the canary split, the version stamped on
// estimates, batching and cache keys.
type View struct {
	t *table
	// name pins the view to one installed name; empty dispatches by coverage.
	name string
}

var _ estimator.Estimator = View{}

// Named returns the view pinned to one name: every query is answered by
// whichever version of name its signature selects right now, whatever other
// sketches cover it. It is how a serving stack dedicated to one sketch
// takes part in canary rollouts. The name need not be installed yet;
// estimates fail until it is.
func (r *Router) Named(name string) View { return View{t: r.t, name: name} }

// find picks the answering entry from one snapshot. By coverage, the
// smallest table set wins and ties go to the earliest installed (a linear
// min scan — no allocation, no sort).
func (v View) find(entries []*entry, q db.Query) (*entry, error) {
	if v.name != "" {
		if i := index(entries, v.name); i >= 0 {
			return entries[i], nil
		}
		return nil, fmt.Errorf("router: no sketch named %q", v.name)
	}
	var best *entry
	for _, e := range entries {
		if (best == nil || len(e.tables) < len(best.tables)) && e.covers(q) {
			best = e
		}
	}
	if best == nil {
		return nil, fmt.Errorf("router: no sketch covers tables of %s", q.SQL(nil))
	}
	return best, nil
}

// Name implements estimator.Estimator. Estimates carry the name of the
// sketch that answered in their Source field; only a pinned view's name is
// that same name.
func (v View) Name() string {
	if v.name != "" {
		return v.name
	}
	return "Sketch Router"
}

// RouteVersion returns the sketch that will answer the query and its
// registry version — under a canary, the arm the query's hash split selects
// — or an error when the view finds no entry for it.
func (v View) RouteVersion(q db.Query) (*core.Sketch, int, error) {
	e, err := v.find(v.t.snapshot(), q)
	if err != nil {
		return nil, 0, err
	}
	s, ver := e.answer(q)
	return s, ver, nil
}

// VersionedCacheKey is the shared key shape version-aware serving caches
// use: the query's canonical signature qualified by the answering name's
// registration incarnation and registry version. Both views' CacheKey
// produce it, so dedicated and routed stacks key identically. The incarnation distinguishes a name that was
// unregistered and re-registered — its versions restart at 1, and without
// the incarnation its keys would collide with the previous sketch's
// cached answers.
func VersionedCacheKey(sig, name string, inc uint64, ver int) string {
	return sig + "\x00" + name + "\x00" + strconv.FormatUint(inc, 10) + "v" + strconv.Itoa(ver)
}

// CacheKey returns the serving-version-aware cache key for q: the query's
// canonical signature qualified by the name, incarnation and version of the
// sketch that would answer it right now. Serving caches keyed with this
// function (serve.Cache.KeyFunc) stay correct across swaps, canary starts,
// fraction changes and promotions without wholesale invalidation: when the
// answering version for a signature changes, so does its key, and the stale
// entry is simply never looked up again. A query the view finds no entry
// for keys by its bare signature (such answers do not vary by version).
func (v View) CacheKey(q db.Query) string {
	sig := q.Signature()
	e, err := v.find(v.t.snapshot(), q)
	if err != nil {
		return sig
	}
	_, ver := e.pick(sig)
	return VersionedCacheKey(sig, e.name, e.Inc, ver)
}

// Estimate implements estimator.Estimator: route, then ask the answering
// sketch. The returned estimate's Source is that sketch's name and Version
// its registry version.
func (v View) Estimate(ctx context.Context, q db.Query) (estimator.Estimate, error) {
	s, ver, err := v.RouteVersion(q)
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
// sketch that answers them — the only grouping that still exists on the
// batched path; within a sketch, the packed inference engine takes queries
// of any shapes in one ragged forward pass. The whole batch routes against
// one snapshot taken under a single RLock (not one per query), so a
// concurrent Install cannot split a batch across two views of the table,
// and groups evaluate in first-appearance order — deterministic for a
// given batch. Every estimate is stamped with its group's registry version.
// Results are positional; if any query finds no entry the whole batch
// fails, like Estimate would for that query.
func (v View) EstimateBatch(ctx context.Context, qs []db.Query) ([]estimator.Estimate, error) {
	entries := v.t.snapshot()
	// One group per (sketch, version): the same sketch object may answer as
	// two versions of a name, and each estimate carries its own.
	type arm struct {
		s   *core.Sketch
		ver int
	}
	groups := make(map[arm][]int)
	var order []arm // deterministic iteration: first appearance
	for i, q := range qs {
		e, err := v.find(entries, q)
		if err != nil {
			return nil, fmt.Errorf("query %d: %w", i, err)
		}
		var a arm
		a.s, a.ver = e.answer(q)
		if _, ok := groups[a]; !ok {
			order = append(order, a)
		}
		groups[a] = append(groups[a], i)
	}
	out := make([]estimator.Estimate, len(qs))
	for _, a := range order {
		idxs := groups[a]
		sub := make([]db.Query, len(idxs))
		for j, i := range idxs {
			sub[j] = qs[i]
		}
		ests, err := a.s.EstimateBatch(ctx, sub)
		if err != nil {
			return nil, err
		}
		for j, i := range idxs {
			ests[j].Version = a.ver
			out[i] = ests[j]
		}
	}
	return out, nil
}
