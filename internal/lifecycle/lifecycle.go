// Package lifecycle manages long-lived serving sketches. The paper's deep
// sketches are built once from a database snapshot, but a production
// deployment must refresh them as the data drifts (Kipf et al. retrain on
// updated workloads; adaptive-input work on cardinality sketches makes the
// same point): a serving sketch is a versioned, replaceable artifact, not
// an immutable one.
//
// The Registry keeps named sketches with full version history and owns all
// of that state; the router.Router beneath it serves a projection of it
// (router.Serving) that each mutation installs exactly once:
//
//   - Publish installs a sketch (first version, or a new version of an
//     existing name) atomically — traffic in flight keeps the snapshot it
//     routed against, every later request sees the new version.
//   - Swap replaces a live sketch under traffic; Rollback reverts to the
//     previous version. Like every mutation here, each edits the history
//     and ends in one router.Install of what the edited history serves.
//   - Refresh warm-start retrains the live version on a drift-delta
//     workload (resuming its Adam state via core.Refresh) and swaps the
//     result in; RefreshCandidate stops before the install, so a caller
//     can judge the candidate and then Swap or StartCanary it.
//
// # Canary state machine
//
// A refreshed version does not have to take 100% of traffic at once. The
// canary state machine de-risks the transition:
//
//	publish/refresh ──StartCanary(f)──▶ canarying ──PromoteCanary──▶ live
//	                                       │
//	                                       └──AbortCanary──▶ previous live keeps serving
//
// StartCanary appends the candidate to the version history (so an aborted
// canary is never lost from the record) and routes fraction f of the name's
// traffic to it via the router's deterministic per-query hash split;
// SetCanaryFraction widens or narrows the split; PromoteCanary makes the
// candidate live for all traffic; AbortCanary withdraws it. At most one
// canary per name is active at a time, and a direct Publish/Swap/Rollback
// aborts an active canary first — the history it was being compared against
// has changed. Restore and ResumeCanary rebuild the same state from a
// persistent store after a restart, so an interrupted canary resumes where
// it left off.
//
// Serving caches stay coherent across every mutation by being keyed with
// serve.Cache.KeyFunc(router.CacheKey) (or Registry.CacheKey for a
// single-name stack): the key embeds the version that would answer, so a
// swap, canary split, promote or rollback makes exactly the remapped
// queries' old entries unreachable — no wholesale invalidation, no manual
// resets.
package lifecycle

import (
	"context"
	"fmt"
	"sort"
	"sync"

	"deepsketch/internal/core"
	"deepsketch/internal/db"
	"deepsketch/internal/estimator"
	"deepsketch/internal/router"
	"deepsketch/internal/trainmon"
	"deepsketch/internal/workload"
)

// Registry is a concurrency-safe versioned sketch registry. The zero value
// is not usable; construct with New.
//
// The registry's per-name history is the only record of which versions
// exist, which is live, whether a canary splits traffic and which
// incarnation of the name this is. What the router serves is a projection
// of it: every mutation is "check, change a copy of the history, install
// the copy's projection in the router, commit the copy" — so a refused
// install leaves the history untouched, and the two can never disagree.
// Serving reads (Serving, CacheKey, ServingVersion, the Router's own
// dispatch) go to the router's snapshot and never take the registry's lock.
type Registry struct {
	r *router.Router

	mu      sync.Mutex
	entries map[string]history // guarded by mu
	serial  uint64             // hands out history incarnations; guarded by mu
}

// history is one name's version chain. versions[i] is version i+1; live
// indexes the currently serving version. Rollback moves live backwards;
// Publish always appends, so history is monotone and a rollback is never
// lost from the record. canary, when non-nil, indexes the version serving
// the canary split and records its traffic fraction. Histories are copied
// by value and a canaryState is replaced, never edited, so a mutation's
// working copy shares nothing it writes with the committed one.
type history struct {
	versions []*core.Sketch
	live     int
	canary   *canaryState
	// inc is the name's registration incarnation (see router.Serving.Inc):
	// fresh per Unregister+re-Publish, embedded in version-aware cache keys
	// so the restarted version numbering cannot collide with the previous
	// sketch's cached answers.
	inc uint64
}

// canaryState is one active canary: which history entry serves the split
// and how much traffic it takes.
type canaryState struct {
	idx      int
	fraction float64
}

// VersionInfo describes one version of a registered sketch.
type VersionInfo struct {
	Version  int     `json:"version"`
	Live     bool    `json:"live"`
	Canary   bool    `json:"canary,omitempty"`     // serving the canary split
	Pruned   bool    `json:"pruned,omitempty"`     // artifact removed by retention; number kept
	Epochs   int     `json:"epochs"`               // cumulative training epochs recorded
	ValMeanQ float64 `json:"val_mean_q,omitempty"` // last recorded validation mean q-error
}

// CanaryInfo describes a name's active canary.
type CanaryInfo struct {
	// Version is the canary's version number in the name's history.
	Version int `json:"version"`
	// BaseVersion is the live version the canary is being compared against.
	BaseVersion int `json:"base_version"`
	// Fraction is the share of traffic hash-routed to the canary.
	Fraction float64 `json:"fraction"`
}

// New returns an empty registry over its own router.
func New() *Registry {
	return &Registry{r: router.New(), entries: make(map[string]history)}
}

// Router exposes the underlying router for building serving stacks
// (caches, clamps, fallbacks) over its coverage dispatch. It is a read
// path: all mutations must go through the Registry, whose history the
// router's table is derived from.
func (g *Registry) Router() *router.Router { return g.r }

// lookup returns a copy of name's history for a mutation to change and
// commit, or for a read; g.mu must be held.
//
//deepsketch:locked mu
func (g *Registry) lookup(name string) (history, error) {
	h, ok := g.entries[name]
	if !ok {
		return history{}, fmt.Errorf("lifecycle: no sketch named %q", name)
	}
	return h, nil
}

// commit is the one router write of every mutation: it installs h's
// projection as what serves name and, only if the router accepted it
// (names match, canary coverage and fraction are legal), records h as the
// name's history; g.mu must be held.
//
//deepsketch:locked mu
func (g *Registry) commit(name string, h history) error {
	sv := router.Serving{Primary: h.versions[h.live], Version: h.live + 1, Inc: h.inc}
	if c := h.canary; c != nil {
		sv.Canary, sv.CanaryVersion, sv.Fraction = h.versions[c.idx], c.idx+1, c.fraction
	}
	// A version that serves has its engine's snapshot built before it is
	// installed (ServeEngine); one that stops serving keeps its weights,
	// one Rollback away, but not the snapshot (ReleaseEngine).
	for _, s := range h.serving() {
		s.ServeEngine()
	}
	if err := g.r.Install(name, sv); err != nil {
		return err
	}
	prev := g.entries[name]
	g.entries[name] = h
	for _, s := range prev.serving() {
		if s != sv.Primary && s != sv.Canary {
			s.ReleaseEngine()
		}
	}
	return nil
}

// serving returns the sketches that answer h's traffic: the live version
// and the canary, if any. The zero history has none.
func (h history) serving() []*core.Sketch {
	if len(h.versions) == 0 {
		return nil
	}
	if h.canary == nil {
		return []*core.Sketch{h.versions[h.live]}
	}
	return []*core.Sketch{h.versions[h.live], h.versions[h.canary.idx]}
}

// Publish installs s as the newest version of name and makes it live
// atomically: version 1 for a new name, the next version (a swap under
// traffic) for an existing one. The sketch's own name must equal the
// registry name — the router dispatches and reports sources by it.
func (g *Registry) Publish(name string, s *core.Sketch) (int, error) {
	return g.publish(name, s, true)
}

// Swap replaces the live version of an existing name with s. It is Publish
// restricted to already-registered names — the verb for "replace under
// traffic", where Publish also covers first installs.
func (g *Registry) Swap(name string, s *core.Sketch) (int, error) {
	return g.publish(name, s, false)
}

func (g *Registry) publish(name string, s *core.Sketch, create bool) (int, error) {
	g.mu.Lock()
	defer g.mu.Unlock()
	h, err := g.lookup(name)
	if err != nil {
		if !create {
			return 0, err
		}
		g.serial++
		h = history{inc: g.serial}
	}
	// A direct publish ends an active canary: it replaces whatever the
	// canary was being compared against.
	h.versions = append(h.versions, s)
	h.live, h.canary = len(h.versions)-1, nil
	if err := g.commit(name, h); err != nil {
		return 0, err
	}
	return h.live + 1, nil
}

// Live returns the serving sketch and its version number.
func (g *Registry) Live(name string) (*core.Sketch, int, error) {
	g.mu.Lock()
	defer g.mu.Unlock()
	h, err := g.lookup(name)
	if err != nil {
		return nil, 0, err
	}
	return h.versions[h.live], h.live + 1, nil
}

// LiveVersion returns the serving version number of name, or false when
// the name is not registered — the cheap lookup estimate handlers use to
// tag responses.
func (g *Registry) LiveVersion(name string) (int, bool) {
	_, ver, err := g.Live(name)
	return ver, err == nil
}

// Versions lists every version of name in version order, flagging the live
// one.
func (g *Registry) Versions(name string) ([]VersionInfo, error) {
	g.mu.Lock()
	defer g.mu.Unlock()
	h, err := g.lookup(name)
	if err != nil {
		return nil, err
	}
	out := make([]VersionInfo, len(h.versions))
	for i, s := range h.versions {
		vi := VersionInfo{Version: i + 1, Live: i == h.live}
		vi.Canary = h.canary != nil && h.canary.idx == i
		if s == nil {
			vi.Pruned = true
		} else {
			vi.Epochs = len(s.Epochs)
			if n := len(s.Epochs); n > 0 {
				vi.ValMeanQ = s.Epochs[n-1].ValMeanQ
			}
		}
		out[i] = vi
	}
	return out, nil
}

// Names lists registered sketch names, sorted.
func (g *Registry) Names() []string {
	g.mu.Lock()
	defer g.mu.Unlock()
	names := make([]string, 0, len(g.entries))
	for n := range g.entries {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// Rollback reverts name to the version before the live one and makes it
// serve, returning the now-live version number and sketch. History is
// kept: a later Publish appends the next version number, it does not
// overwrite. An active canary is aborted — its comparison base is gone.
// Rolling back past version 1 is an error.
func (g *Registry) Rollback(name string) (int, *core.Sketch, error) {
	g.mu.Lock()
	defer g.mu.Unlock()
	h, err := g.lookup(name)
	if err != nil {
		return 0, nil, err
	}
	if h.live == 0 {
		return 0, nil, fmt.Errorf("lifecycle: %q is at version 1, nothing to roll back to", name)
	}
	target := h.versions[h.live-1]
	if target == nil {
		return 0, nil, fmt.Errorf("lifecycle: version %d of %q was pruned by retention, cannot roll back to it", h.live, name)
	}
	h.live, h.canary = h.live-1, nil
	if err := g.commit(name, h); err != nil {
		return 0, nil, err
	}
	return h.live + 1, target, nil
}

// StartCanary publishes s as the newest version of name WITHOUT making it
// live: the version is appended to the history, and fraction of the name's
// traffic is hash-routed to it while the live version keeps the rest.
// Returns the canary's version number. At most one canary per name may be
// active; promote or abort the current one first. A candidate the router
// refuses — misnamed, or covering other tables than the live version —
// leaves the history as it was.
func (g *Registry) StartCanary(name string, s *core.Sketch, fraction float64) (int, error) {
	g.mu.Lock()
	defer g.mu.Unlock()
	h, err := g.lookup(name)
	if err != nil {
		return 0, err
	}
	if h.canary != nil {
		return 0, fmt.Errorf("lifecycle: %q already has a canary at version %d — promote or abort it first", name, h.canary.idx+1)
	}
	h.versions = append(h.versions, s)
	h.canary = &canaryState{idx: len(h.versions) - 1, fraction: fraction}
	if err := g.commit(name, h); err != nil {
		return 0, err
	}
	return len(h.versions), nil
}

// SetCanaryFraction widens or narrows the active canary's traffic split.
// The hash split is monotone in the fraction: widening only moves new query
// signatures onto the canary, it never moves one off.
func (g *Registry) SetCanaryFraction(name string, fraction float64) error {
	g.mu.Lock()
	defer g.mu.Unlock()
	h, err := g.activeCanary(name)
	if err != nil {
		return err
	}
	h.canary = &canaryState{idx: h.canary.idx, fraction: fraction}
	return g.commit(name, h)
}

// PromoteCanary makes the active canary the live version for 100% of
// traffic and ends the canary, returning the promoted version number. The
// previous live version stays in the history, one Rollback away.
func (g *Registry) PromoteCanary(name string) (int, error) {
	g.mu.Lock()
	defer g.mu.Unlock()
	h, err := g.activeCanary(name)
	if err != nil {
		return 0, err
	}
	h.live, h.canary = h.canary.idx, nil
	if err := g.commit(name, h); err != nil {
		return 0, err
	}
	return h.live + 1, nil
}

// AbortCanary withdraws the active canary: the live version resumes
// answering all traffic. The aborted version stays in the history (not
// live) so the record of the failed candidate is kept.
func (g *Registry) AbortCanary(name string) error {
	g.mu.Lock()
	defer g.mu.Unlock()
	h, err := g.activeCanary(name)
	if err != nil {
		return err
	}
	h.canary = nil
	return g.commit(name, h)
}

// activeCanary is lookup for the mutations that need a canary to act on;
// g.mu must be held.
//
//deepsketch:locked mu
func (g *Registry) activeCanary(name string) (history, error) {
	h, err := g.lookup(name)
	if err == nil && h.canary == nil {
		err = fmt.Errorf("lifecycle: %q has no active canary", name)
	}
	return h, err
}

// Canary reports the name's active canary, with ok=false when none is.
func (g *Registry) Canary(name string) (CanaryInfo, bool) {
	g.mu.Lock()
	defer g.mu.Unlock()
	h := g.entries[name] // the zero history, canary-less, when name is unknown
	if h.canary == nil {
		return CanaryInfo{}, false
	}
	return CanaryInfo{
		Version:     h.canary.idx + 1,
		BaseVersion: h.live + 1,
		Fraction:    h.canary.fraction,
	}, true
}

// Sketch returns one version of name from the history (1-based).
func (g *Registry) Sketch(name string, version int) (*core.Sketch, error) {
	g.mu.Lock()
	defer g.mu.Unlock()
	h, err := g.lookup(name)
	if err != nil {
		return nil, err
	}
	if version < 1 || version > len(h.versions) {
		return nil, fmt.Errorf("lifecycle: %q has no version %d (history 1..%d)", name, version, len(h.versions))
	}
	if h.versions[version-1] == nil {
		return nil, fmt.Errorf("lifecycle: version %d of %q was pruned by retention", version, name)
	}
	return h.versions[version-1], nil
}

// Serving returns an estimator view pinned to one registered name that
// honours the canary split: each query is answered by whichever version
// its signature selects right now, and estimates carry that version. It is
// how a serving stack dedicated to one sketch (rather than the coverage-
// routing Router) takes part in canary rollouts. Pair the stack's cache
// with CacheKey(name) so entries are version-coherent.
func (g *Registry) Serving(name string) estimator.Estimator { return g.r.Named(name) }

// CacheKey returns a cache-key function for a Serving(name) stack: the
// query signature qualified by the version that would answer it (the same
// router.VersionedCacheKey shape the Router's CacheKey produces).
func (g *Registry) CacheKey(name string) func(db.Query) string { return g.r.Named(name).CacheKey }

// ServingVersion reports which version of name answers a query with the
// given canonical signature right now: the canary version when a canary is
// active and the signature hashes into its split, the live version
// otherwise. ok=false when the name is unknown.
func (g *Registry) ServingVersion(name, sig string) (int, bool) {
	return g.r.ServingVersion(name, sig)
}

// Restore installs a full version history for name in one step — the
// store-loading path after a daemon restart. versions[i] becomes version
// i+1, liveVersion (1-based) serves. A nil entry is a version whose
// artifact was pruned by retention: its number is preserved in the
// history (so later version numbers, cache keys and WAL records stay
// coherent) but it cannot serve, be rolled back to, or canary. The live
// version must be present, and the name must not already be registered.
// Use ResumeCanary afterwards to re-arm an interrupted canary.
func (g *Registry) Restore(name string, versions []*core.Sketch, liveVersion int) error {
	g.mu.Lock()
	defer g.mu.Unlock()
	if _, ok := g.entries[name]; ok {
		return fmt.Errorf("lifecycle: %q is already registered", name)
	}
	if len(versions) == 0 {
		return fmt.Errorf("lifecycle: restore of %q with no versions", name)
	}
	if liveVersion < 1 || liveVersion > len(versions) {
		return fmt.Errorf("lifecycle: live version %d outside history 1..%d", liveVersion, len(versions))
	}
	if versions[liveVersion-1] == nil {
		return fmt.Errorf("lifecycle: live version %d of %q is missing", liveVersion, name)
	}
	for i, s := range versions {
		// The router checks the names it is handed (live now, a canary
		// later); the rest of the history must carry the name too, or a
		// later Rollback would find out under traffic.
		if s != nil && s.Name() != name {
			return fmt.Errorf("lifecycle: restored version %d of %q is misnamed %q", i+1, name, s.Name())
		}
	}
	g.serial++
	return g.commit(name, history{versions: versions, live: liveVersion - 1, inc: g.serial})
}

// ResumeCanary re-arms a canary from the restored history — the restart
// path that lets a daemon interrupted mid-canary pick the rollout back up.
// version (1-based) must be a non-live history entry.
func (g *Registry) ResumeCanary(name string, version int, fraction float64) error {
	g.mu.Lock()
	defer g.mu.Unlock()
	h, err := g.lookup(name)
	if err != nil {
		return err
	}
	if h.canary != nil {
		return fmt.Errorf("lifecycle: %q already has a canary", name)
	}
	if version < 1 || version > len(h.versions) {
		return fmt.Errorf("lifecycle: canary version %d outside history 1..%d", version, len(h.versions))
	}
	if version-1 == h.live {
		return fmt.Errorf("lifecycle: version %d is live, cannot also be the canary", version)
	}
	if h.versions[version-1] == nil {
		return fmt.Errorf("lifecycle: canary version %d of %q was pruned by retention", version, name)
	}
	h.canary = &canaryState{idx: version - 1, fraction: fraction}
	return g.commit(name, h)
}

// Unregister removes name and its whole version history; in-flight batches
// holding a pre-removal router snapshot finish against it.
func (g *Registry) Unregister(name string) error {
	g.mu.Lock()
	defer g.mu.Unlock()
	if _, err := g.lookup(name); err != nil {
		return err
	}
	delete(g.entries, name)
	g.r.Unregister(name)
	return nil
}

// RefreshOptions parameterizes Registry.Refresh.
type RefreshOptions struct {
	// Name selects the registered sketch to refresh.
	Name string
	// Workload is the labeled drift-delta workload to fine-tune on.
	Workload []workload.LabeledQuery
	// Epochs caps the fine-tune budget (0: the sketch's configured
	// full-build epoch count).
	Epochs int
	// StopAtValQ ends the fine-tune once the validation mean q-error
	// reaches this value or better (0 disables).
	StopAtValQ float64
	// Workers bounds data-parallel training (0: GOMAXPROCS); the candidate
	// is the same at every worker count.
	Workers int
	// Monitor receives stage/epoch events (nil for none).
	Monitor *trainmon.Monitor
}

// RefreshCandidate warm-start retrains the live version of o.Name on the
// delta workload and returns the candidate WITHOUT installing it: no swap,
// no canary, no new version number. It is the judgment seam of the refresh
// path — a caller (the drift controller's pinned-benchmark rail, an
// offline gate) evaluates the candidate first and only then installs it
// via StartCanary or Swap. The live sketch serves untouched throughout.
func (g *Registry) RefreshCandidate(ctx context.Context, o RefreshOptions) (*core.Sketch, error) {
	live, _, err := g.Live(o.Name)
	if err != nil {
		return nil, err
	}
	return core.Refresh(ctx, live, o.Workload, core.RefreshOptions{
		Epochs: o.Epochs, StopAtValQ: o.StopAtValQ, Workers: o.Workers,
	}, o.Monitor)
}

// Refresh warm-start retrains the live version of o.Name on the delta
// workload and swaps the result in, returning the new version number and
// sketch. The live sketch serves untouched for the whole fine-tune; the
// swap at the end is the same atomic copy-on-write mutation as Publish.
// Two concurrent refreshes of one name both fine-tune from the version
// that was live when they started, and the later swap wins.
func (g *Registry) Refresh(ctx context.Context, o RefreshOptions) (int, *core.Sketch, error) {
	ns, err := g.RefreshCandidate(ctx, o)
	if err != nil {
		return 0, nil, err
	}
	v, err := g.Swap(o.Name, ns)
	if err != nil {
		return 0, nil, err
	}
	return v, ns, nil
}
