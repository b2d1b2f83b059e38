package router

import (
	"context"
	"fmt"
	"math"
	"testing"

	"deepsketch/internal/attack"
	"deepsketch/internal/datagen"
	"deepsketch/internal/db"
)

// TestCanarySplitStability: the split is a pure function of (signature,
// fraction) — the same signature always lands on the same side at a fixed
// fraction, across calls and router instances.
func TestCanarySplitStability(t *testing.T) {
	const fraction = 0.25
	for i := 0; i < 500; i++ {
		sig := fmt.Sprintf("sig-%d", i)
		first := CanarySplit(sig, fraction)
		for rep := 0; rep < 5; rep++ {
			if CanarySplit(sig, fraction) != first {
				t.Fatalf("split of %q flapped at fixed fraction", sig)
			}
		}
	}
	if CanarySplit("anything", 0) || CanarySplit("anything", -0.5) {
		t.Error("fraction <= 0 must never select the canary")
	}
	if !CanarySplit("anything", 1) || !CanarySplit("anything", 1.5) {
		t.Error("fraction >= 1 must always select the canary")
	}
}

// TestCanarySplitStabilityUnderAdaptiveProber drives the real attack-side
// canary prober against a router serving a canary arm, re-installed across
// a rising fraction ladder the way the registry re-fractions one. The
// stability contract under an adaptive adversary: within a fraction no
// signature ever flaps between arms (re-probing buys the prober nothing),
// and across fractions membership moves strictly monotonically — a
// signature that joined the canary at fraction f is in it at every f' > f,
// so an operator widening a canary never silently swaps the probed arm out
// from under the traffic an adversary (or a legit client) has concentrated.
func TestCanarySplitStabilityUnderAdaptiveProber(t *testing.T) {
	ctx := context.Background()
	d := datagen.IMDb(datagen.IMDbConfig{Seed: 59, Titles: 300, Keywords: 20, Companies: 10, Persons: 50})
	v1 := buildSub(t, d, "imdb", nil)
	v2 := buildSub(t, d, "imdb", nil)
	r := New()
	// Prime-strided predicate values: FNV-1a on near-identical signatures
	// produces long same-arm runs, so sequential values would leave one arm
	// empty at small fractions (see the attack package's pool helper).
	pool := make([]db.Query, 64)
	for i := range pool {
		pool[i] = db.Query{
			Tables: []db.TableRef{{Table: "title", Alias: "t"}},
			Preds:  []db.Predicate{{Alias: "t", Col: "production_year", Op: db.OpGt, Val: int64(1900 + i*1237)}},
		}
	}
	probe := func(f float64) *attack.Transcript {
		if err := r.Install("imdb", Serving{Primary: v1, Version: 1, Canary: v2, CanaryVersion: 2, Fraction: f, Inc: 1}); err != nil {
			t.Fatal(err)
		}
		tr, err := attack.NewCanaryProber(attack.CanaryProberConfig{
			Seed: 5, Queries: pool, Budget: 3 * len(pool),
		}).Run(ctx, attack.Target{Estimate: r.Estimate})
		if err != nil {
			t.Fatalf("prober at fraction %v: %v", f, err)
		}
		return tr
	}
	armOf := func(tr *attack.Transcript, f float64) map[string]bool {
		arm := map[string]bool{}
		seen := map[string]int{}
		for _, st := range tr.Steps {
			if prev, ok := seen[st.Signature]; ok && prev != st.Version {
				t.Fatalf("signature %q flapped v%d→v%d within fraction %v", st.Signature, prev, st.Version, f)
			}
			seen[st.Signature] = st.Version
			arm[st.Signature] = st.Version == 2
		}
		return arm
	}

	var prev map[string]bool
	for _, f := range []float64{0.1, 0.3, 0.5, 0.8} {
		tr := probe(f)
		arm := armOf(tr, f)
		// The prober must see both arms at every rung of this ladder and
		// lock onto the canary one.
		if !tr.Detected || tr.TargetArm != 2 {
			t.Fatalf("prober at fraction %v: detected=%v target=v%d, want a detected v2 arm", f, tr.Detected, tr.TargetArm)
		}
		// Re-probing at the same fraction is a fixed point: an identical
		// second campaign maps every signature to the same arm.
		for sig, in := range armOf(probe(f), f) {
			if arm[sig] != in {
				t.Fatalf("signature %q changed arms on re-probe at fraction %v", sig, f)
			}
		}
		// Monotonic across fractions: canary membership only grows.
		if prev != nil {
			grew := false
			for sig, in := range prev {
				if in && !arm[sig] {
					t.Fatalf("signature %q left the canary when the fraction grew to %v", sig, f)
				}
				if !in && arm[sig] {
					grew = true
				}
			}
			if !grew {
				t.Errorf("no signature joined the canary when the fraction grew to %v — pool too small to observe the move", f)
			}
		}
		prev = arm
	}
}

// TestCanarySplitFractionMoves: raising the fraction from f1 to f2 moves
// only the expected share of signatures onto the canary and moves none off
// it (monotonicity); the canary share tracks the fraction.
func TestCanarySplitFractionMoves(t *testing.T) {
	const n = 5000
	sigs := make([]string, n)
	for i := range sigs {
		sigs[i] = fmt.Sprintf("SELECT-shape-%d#pred%d", i, i%7)
	}
	share := func(f float64) (int, map[string]bool) {
		in := make(map[string]bool)
		for _, s := range sigs {
			if CanarySplit(s, f) {
				in[s] = true
			}
		}
		return len(in), in
	}
	for _, f := range []float64{0.1, 0.3, 0.5} {
		got, _ := share(f)
		if frac := float64(got) / n; math.Abs(frac-f) > 0.03 {
			t.Errorf("canary share at fraction %v = %.3f, want within ±0.03", f, frac)
		}
	}
	n1, in1 := share(0.1)
	n2, in2 := share(0.3)
	for s := range in1 {
		if !in2[s] {
			t.Fatalf("signature %q left the canary when the fraction grew 0.1→0.3", s)
		}
	}
	moved := n2 - n1
	if frac := float64(moved) / n; math.Abs(frac-0.2) > 0.03 {
		t.Errorf("fraction change 0.1→0.3 moved %.3f of signatures, want ≈0.2", frac)
	}
}

// TestRouterCanaryRouting: with a canary arm installed, the hash split
// decides which version answers, estimates carry the answering version,
// cache keys differ per split, the pinned view agrees with coverage
// dispatch, and installing a Serving without the arm (a promote, an abort)
// moves all traffic at once.
func TestRouterCanaryRouting(t *testing.T) {
	d := datagen.IMDb(datagen.IMDbConfig{Seed: 53, Titles: 400, Keywords: 30, Companies: 15, Persons: 60})
	v1 := buildSub(t, d, "imdb", nil)
	v2 := buildSub(t, d, "imdb", nil)

	r := New()
	if err := r.Install("imdb", Serving{Primary: v1, Version: 1, Inc: 1}); err != nil {
		t.Fatal(err)
	}
	canarying := Serving{Primary: v1, Version: 1, Canary: v2, CanaryVersion: 2, Fraction: 0.5, Inc: 1}
	if err := r.Install("imdb", canarying); err != nil {
		t.Fatal(err)
	}
	// A refused install (fraction outside (0, 1]) leaves the split as it was.
	for _, f := range []float64{0, -0.1, 1.5} {
		bad := canarying
		bad.Fraction = f
		if err := r.Install("imdb", bad); err == nil {
			t.Errorf("fraction %v should be rejected", f)
		}
	}
	pinned := r.Named("imdb")
	if _, _, err := r.Named("other").RouteVersion(db.Query{}); err == nil {
		t.Error("a view pinned to a name that is not installed should fail to route")
	}
	if _, ok := r.ServingVersion("other", "sig"); ok {
		t.Error("ServingVersion of a name that is not installed reported ok")
	}

	// Queries with varied signatures: each must route to the sketch its
	// split selects, and the estimate must carry that version.
	ctx := context.Background()
	years := []int64{1950, 1960, 1970, 1980, 1990, 2000, 2005, 2010}
	sawPrimary, sawCanary := false, false
	var qs []db.Query
	for _, y := range years {
		q := db.Query{
			Tables: []db.TableRef{{Table: "title", Alias: "t"}},
			Preds:  []db.Predicate{{Alias: "t", Col: "production_year", Op: db.OpGt, Val: y}},
		}
		qs = append(qs, q)
		wantCanary := CanarySplit(q.Signature(), 0.5)
		s, ver, err := r.RouteVersion(q)
		if err != nil {
			t.Fatal(err)
		}
		if wantCanary {
			sawCanary = true
			if s != v2 || ver != 2 {
				t.Errorf("year %d: canary-split query routed to v%d", y, ver)
			}
		} else {
			sawPrimary = true
			if s != v1 || ver != 1 {
				t.Errorf("year %d: primary-split query routed to v%d", y, ver)
			}
		}
		if ps, pver, err := pinned.RouteVersion(q); err != nil || ps != s || pver != ver {
			t.Errorf("year %d: pinned view routed to v%d (%v), coverage dispatch to v%d", y, pver, err, ver)
		}
		if sv, ok := r.ServingVersion("imdb", q.Signature()); !ok || sv != ver {
			t.Errorf("year %d: ServingVersion = v%d ok=%v, routed to v%d", y, sv, ok, ver)
		}
		est, err := r.Estimate(ctx, q)
		if err != nil {
			t.Fatal(err)
		}
		if est.Version != ver {
			t.Errorf("estimate version %d, want %d", est.Version, ver)
		}
		want, err := s.Cardinality(q)
		if err != nil {
			t.Fatal(err)
		}
		if est.Cardinality != want {
			t.Errorf("estimate %v, split sketch answers %v", est.Cardinality, want)
		}
		// The cache key embeds the installed incarnation and the answering
		// version, identically through both views.
		key := r.CacheKey(q)
		if wantKey := VersionedCacheKey(q.Signature(), "imdb", 1, ver); key != wantKey {
			t.Errorf("cache key %q, want %q", key, wantKey)
		}
		if pkey := pinned.CacheKey(q); pkey != key {
			t.Errorf("pinned view keys %q, coverage dispatch %q", pkey, key)
		}
	}
	if !sawPrimary || !sawCanary {
		t.Fatalf("probe years did not exercise both splits (primary=%v canary=%v) — pick different predicates", sawPrimary, sawCanary)
	}

	// Batched path agrees with the single path, version included, through
	// either view.
	ests, err := r.EstimateBatch(ctx, qs)
	if err != nil {
		t.Fatal(err)
	}
	pests, err := pinned.EstimateBatch(ctx, qs)
	if err != nil {
		t.Fatal(err)
	}
	for i, q := range qs {
		one, err := r.Estimate(ctx, q)
		if err != nil {
			t.Fatal(err)
		}
		if ests[i].Cardinality != one.Cardinality || ests[i].Version != one.Version {
			t.Errorf("batch[%d] = (%v, v%d), single = (%v, v%d)",
				i, ests[i].Cardinality, ests[i].Version, one.Cardinality, one.Version)
		}
		if pests[i].Cardinality != one.Cardinality || pests[i].Version != one.Version || pests[i].Source != one.Source {
			t.Errorf("pinned batch[%d] = (%v, v%d, %q), single = (%v, v%d, %q)",
				i, pests[i].Cardinality, pests[i].Version, pests[i].Source, one.Cardinality, one.Version, one.Source)
		}
	}

	// Promote: the canary installed as the primary, no arm — all traffic
	// moves to it in one step.
	promoted := Serving{Primary: v2, Version: 2, Inc: 1}
	if err := r.Install("imdb", promoted); err != nil {
		t.Fatal(err)
	}
	for _, q := range qs {
		s, ver, err := r.RouteVersion(q)
		if err != nil {
			t.Fatal(err)
		}
		if s != v2 || ver != 2 {
			t.Errorf("post-promote route = v%d, want promoted v2 for all traffic", ver)
		}
	}

	// Abort: a new arm installed and then withdrawn restores the primary
	// for all traffic.
	if err := r.Install("imdb", Serving{Primary: v2, Version: 2, Canary: v1, CanaryVersion: 3, Fraction: 0.5, Inc: 1}); err != nil {
		t.Fatal(err)
	}
	if err := r.Install("imdb", promoted); err != nil {
		t.Fatal(err)
	}
	for _, q := range qs {
		if _, ver, _ := r.RouteVersion(q); ver != 2 {
			t.Errorf("post-abort route = v%d, want primary v2", ver)
		}
	}
}

// TestRouterCanaryCoverageMismatch: a canary whose table set differs from
// the primary's is rejected — the split must never change coverage.
func TestRouterCanaryCoverageMismatch(t *testing.T) {
	d := datagen.IMDb(datagen.IMDbConfig{Seed: 54, Titles: 300, Keywords: 20, Companies: 10, Persons: 50})
	full := buildSub(t, d, "imdb", nil)
	sub := buildSub(t, d, "imdb", []string{"title", "movie_keyword", "keyword"})
	r := New()
	if err := r.Install("imdb", Serving{Primary: full, Version: 1, Inc: 1}); err != nil {
		t.Fatal(err)
	}
	if err := r.Install("imdb", Serving{Primary: full, Version: 1, Canary: sub, CanaryVersion: 2, Fraction: 0.5, Inc: 1}); err == nil {
		t.Error("coverage-shrinking canary should be rejected")
	}
	if err := r.Install("imdb", Serving{Primary: sub, Version: 1, Canary: full, CanaryVersion: 2, Fraction: 0.5, Inc: 1}); err == nil {
		t.Error("coverage-widening canary should be rejected")
	}
	if err := r.Install("imdb", Serving{Primary: full, Version: 1, Canary: renamed(full, "other"), CanaryVersion: 2, Fraction: 0.5, Inc: 1}); err == nil {
		t.Error("canary carrying another name should be rejected")
	}
	// Every refusal left the installed entry alone: no arm, full coverage.
	q := db.Query{Tables: []db.TableRef{{Table: "cast_info", Alias: "ci"}}}
	if s, ver, err := r.RouteVersion(q); err != nil || s != full || ver != 1 {
		t.Errorf("after refused installs: routed to v%d (%v), want the untouched v1", ver, err)
	}
}
