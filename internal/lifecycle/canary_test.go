package lifecycle

import (
	"context"
	"testing"

	"deepsketch/internal/core"
	"deepsketch/internal/db"
	"deepsketch/internal/router"
	"deepsketch/internal/serve"
)

// TestCanaryStateMachine walks publish → StartCanary → fraction change →
// PromoteCanary, then a second canary aborted, checking version history,
// live pointers and introspection at every transition.
func TestCanaryStateMachine(t *testing.T) {
	d := fixture(t)
	v1 := buildNamed(t, d, "imdb", 41)
	v2 := buildNamed(t, d, "imdb", 42)
	v3 := buildNamed(t, d, "imdb", 43)

	reg := New()
	if _, err := reg.StartCanary("imdb", v2, 0.2); err == nil {
		t.Error("canary before publish should fail")
	}
	if _, err := reg.Publish("imdb", v1); err != nil {
		t.Fatal(err)
	}
	if _, ok := reg.Canary("imdb"); ok {
		t.Error("fresh name reports a canary")
	}

	ver, err := reg.StartCanary("imdb", v2, 0.2)
	if err != nil || ver != 2 {
		t.Fatalf("StartCanary = v%d, %v", ver, err)
	}
	if _, err := reg.StartCanary("imdb", v3, 0.2); err == nil {
		t.Error("second canary while one is active should fail")
	}
	ci, ok := reg.Canary("imdb")
	if !ok || ci.Version != 2 || ci.BaseVersion != 1 || ci.Fraction != 0.2 {
		t.Fatalf("Canary = %+v ok=%v", ci, ok)
	}
	// Live is still v1; the canary is in the history, flagged, not live.
	if _, lv, err := reg.Live("imdb"); err != nil || lv != 1 {
		t.Fatalf("live version = %d, %v", lv, err)
	}
	vs, err := reg.Versions("imdb")
	if err != nil || len(vs) != 2 {
		t.Fatalf("versions = %+v, %v", vs, err)
	}
	if !vs[0].Live || vs[0].Canary || vs[1].Live || !vs[1].Canary {
		t.Errorf("version flags = %+v", vs)
	}

	if err := reg.SetCanaryFraction("imdb", 0.6); err != nil {
		t.Fatal(err)
	}
	if ci, _ := reg.Canary("imdb"); ci.Fraction != 0.6 {
		t.Errorf("fraction after widen = %v", ci.Fraction)
	}

	// ServingVersion matches the router's hash split.
	sig := "some-query-signature"
	wantVer := 1
	if router.CanarySplit(sig, 0.6) {
		wantVer = 2
	}
	if v, ok := reg.ServingVersion("imdb", sig); !ok || v != wantVer {
		t.Errorf("ServingVersion = %d ok=%v, want %d", v, ok, wantVer)
	}

	ver, err = reg.PromoteCanary("imdb")
	if err != nil || ver != 2 {
		t.Fatalf("PromoteCanary = v%d, %v", ver, err)
	}
	if _, lv, _ := reg.Live("imdb"); lv != 2 {
		t.Errorf("live after promote = v%d", lv)
	}
	if _, ok := reg.Canary("imdb"); ok {
		t.Error("canary survived promotion")
	}
	if _, err := reg.PromoteCanary("imdb"); err == nil {
		t.Error("promote without canary should fail")
	}

	// Abort path: v3 canaries, is withdrawn, stays in history non-live.
	if ver, err = reg.StartCanary("imdb", v3, 0.3); err != nil || ver != 3 {
		t.Fatalf("StartCanary(v3) = v%d, %v", ver, err)
	}
	if err := reg.AbortCanary("imdb"); err != nil {
		t.Fatal(err)
	}
	if err := reg.AbortCanary("imdb"); err == nil {
		t.Error("double abort should fail")
	}
	vs, _ = reg.Versions("imdb")
	if len(vs) != 3 || !vs[1].Live || vs[2].Live || vs[2].Canary {
		t.Errorf("history after abort = %+v", vs)
	}

	// Rollback from the promoted v2 returns to v1; a direct swap mid-canary
	// aborts the canary.
	if ver, _, err := reg.Rollback("imdb"); err != nil || ver != 1 {
		t.Fatalf("rollback = v%d, %v", ver, err)
	}
	if _, err := reg.StartCanary("imdb", v3, 0.3); err != nil {
		t.Fatal(err)
	}
	if _, err := reg.Swap("imdb", v2); err != nil {
		t.Fatal(err)
	}
	if _, ok := reg.Canary("imdb"); ok {
		t.Error("direct swap should abort the active canary")
	}
}

// TestRestoreAndResumeCanary rebuilds registry state the way the daemon's
// store-loading path does after a restart mid-canary.
func TestRestoreAndResumeCanary(t *testing.T) {
	d := fixture(t)
	v1 := buildNamed(t, d, "imdb", 44)
	v2 := buildNamed(t, d, "imdb", 45)

	reg := New()
	if err := reg.Restore("imdb", nil, 1); err == nil {
		t.Error("restore with no versions should fail")
	}
	if err := reg.Restore("imdb", []*core.Sketch{v1, v2}, 3); err == nil {
		t.Error("live version outside history should fail")
	}
	if err := reg.Restore("imdb", []*core.Sketch{v1, v2}, 1); err != nil {
		t.Fatal(err)
	}
	if err := reg.Restore("imdb", []*core.Sketch{v1}, 1); err == nil {
		t.Error("double restore should fail")
	}
	if _, lv, err := reg.Live("imdb"); err != nil || lv != 1 {
		t.Fatalf("restored live = v%d, %v", lv, err)
	}
	if vs, _ := reg.Versions("imdb"); len(vs) != 2 {
		t.Fatalf("restored history = %+v", vs)
	}

	if err := reg.ResumeCanary("imdb", 1, 0.25); err == nil {
		t.Error("resuming the live version as canary should fail")
	}
	if err := reg.ResumeCanary("imdb", 2, 0.25); err != nil {
		t.Fatal(err)
	}
	ci, ok := reg.Canary("imdb")
	if !ok || ci.Version != 2 || ci.Fraction != 0.25 {
		t.Fatalf("resumed canary = %+v ok=%v", ci, ok)
	}
	// The resumed canary actually routes: promoted, it serves everything.
	if ver, err := reg.PromoteCanary("imdb"); err != nil || ver != 2 {
		t.Fatalf("promote resumed canary = v%d, %v", ver, err)
	}
}

// TestCacheVersionAwareKeysUnderCanary is the regression test for the
// serving-cache staleness bug: a cache keyed only on the query signature
// keeps returning the old version's estimate to canary traffic (the warm
// pre-canary entry shadows the canary's answer). Keys derived from
// Router.CacheKey embed the answering version, so the canary split gets
// fresh entries while the primary split keeps its warm ones — no wholesale
// invalidation, no stale answers.
func TestCacheVersionAwareKeysUnderCanary(t *testing.T) {
	d := fixture(t)
	v1 := buildNamed(t, d, "imdb", 46)
	v2 := buildNamed(t, d, "imdb", 47)

	reg := New()
	if _, err := reg.Publish("imdb", v1); err != nil {
		t.Fatal(err)
	}
	// Two caches over the same router: one keyed on the bare signature (the
	// old behaviour), one version-aware. Nothing ever invalidates either —
	// the point is that keys alone must keep canary traffic correct.
	buggy := serve.NewCache(reg.Router(), 256)
	fixed := serve.NewCache(reg.Router(), 256).KeyFunc(reg.Router().CacheKey)

	probes := make([]db.Query, 0, 12)
	for _, lq := range labelDelta(t, d, 500, 12) {
		probes = append(probes, lq.Query)
	}
	ctx := context.Background()

	// Warm both caches with v1 answers.
	v1Answers := make([]float64, len(probes))
	for i, q := range probes {
		est, err := fixed.Estimate(ctx, q)
		if err != nil {
			t.Fatal(err)
		}
		v1Answers[i] = est.Cardinality
		if _, err := buggy.Estimate(ctx, q); err != nil {
			t.Fatal(err)
		}
	}

	const fraction = 0.5
	if _, err := reg.StartCanary("imdb", v2, fraction); err != nil {
		t.Fatal(err)
	}

	staleDemonstrated := false
	for i, q := range probes {
		inCanary := router.CanarySplit(q.Signature(), fraction)
		want := v1Answers[i]
		wantVer := 1
		if inCanary {
			c, err := v2.Cardinality(q)
			if err != nil {
				t.Fatal(err)
			}
			want, wantVer = c, 2
		}
		est, err := fixed.Estimate(ctx, q)
		if err != nil {
			t.Fatal(err)
		}
		if est.Cardinality != want || est.Version != wantVer {
			t.Errorf("probe %d (canary=%v): version-keyed cache answered %v (v%d), want %v (v%d)",
				i, inCanary, est.Cardinality, est.Version, want, wantVer)
		}
		if inCanary {
			// Primary-split entries stay warm; the canary split recomputes.
			if est.CacheHit {
				t.Errorf("probe %d: canary-split answer served from the pre-canary cache", i)
			}
			// The signature-keyed cache exhibits the original bug whenever
			// the two versions disagree on the query.
			bug, err := buggy.Estimate(ctx, q)
			if err != nil {
				t.Fatal(err)
			}
			if bug.Cardinality == v1Answers[i] && v1Answers[i] != want {
				staleDemonstrated = true
			}
		} else if !est.CacheHit {
			t.Errorf("probe %d: primary-split entry was needlessly dropped", i)
		}
	}
	if !staleDemonstrated {
		t.Error("no probe demonstrated the signature-keyed staleness — fixture sketches answered identically; strengthen the fixture")
	}
}

// TestCacheKeysAcrossUnregisterRepublish: a name unregistered and
// re-published restarts its versions at 1, but its cache keys must not
// collide with the previous incarnation's — the registration incarnation
// in the key guarantees the new sketch's answers are recomputed, not
// served from the old sketch's cache lines.
func TestCacheKeysAcrossUnregisterRepublish(t *testing.T) {
	d := fixture(t)
	first := buildNamed(t, d, "imdb", 48)
	second := buildNamed(t, d, "imdb", 49)

	reg := New()
	if _, err := reg.Publish("imdb", first); err != nil {
		t.Fatal(err)
	}
	cache := serve.NewCache(reg.Router(), 256).KeyFunc(reg.Router().CacheKey)

	probes := make([]db.Query, 0, 8)
	for _, lq := range labelDelta(t, d, 600, 8) {
		probes = append(probes, lq.Query)
	}
	ctx := context.Background()
	firstAnswers := make([]float64, len(probes))
	for i, q := range probes {
		est, err := cache.Estimate(ctx, q)
		if err != nil {
			t.Fatal(err)
		}
		firstAnswers[i] = est.Cardinality
	}

	if err := reg.Unregister("imdb"); err != nil {
		t.Fatal(err)
	}
	if _, err := reg.Publish("imdb", second); err != nil {
		t.Fatal(err)
	}

	changed := 0
	for i, q := range probes {
		want, err := second.Cardinality(q)
		if err != nil {
			t.Fatal(err)
		}
		est, err := cache.Estimate(ctx, q)
		if err != nil {
			t.Fatal(err)
		}
		if est.Cardinality != want {
			t.Errorf("probe %d: answered %v after re-publish, want new sketch's %v (old cached %v)",
				i, est.Cardinality, want, firstAnswers[i])
		}
		if est.CacheHit {
			t.Errorf("probe %d: re-published name served from the previous incarnation's cache", i)
		}
		if want != firstAnswers[i] {
			changed++
		}
	}
	if changed == 0 {
		t.Error("both sketches answered identically on every probe — the collision check has no power")
	}
}

// TestRestoreWithPrunedVersions is the retention path: old version
// artifacts are deleted from the store, their numbers stay in the
// history, and everything that would need the missing artifact fails
// loudly instead of panicking.
func TestRestoreWithPrunedVersions(t *testing.T) {
	d := fixture(t)
	v3 := buildNamed(t, d, "imdb", 48)
	v4 := buildNamed(t, d, "imdb", 49)

	reg := New()
	if err := reg.Restore("imdb", []*core.Sketch{nil, nil, v3, v4}, 2); err == nil {
		t.Error("restore with a pruned live version should fail")
	}
	if err := reg.Restore("imdb", []*core.Sketch{nil, nil, v3, v4}, 3); err != nil {
		t.Fatal(err)
	}
	if _, lv, err := reg.Live("imdb"); err != nil || lv != 3 {
		t.Fatalf("restored live = v%d, %v", lv, err)
	}
	vs, err := reg.Versions("imdb")
	if err != nil || len(vs) != 4 {
		t.Fatalf("history = %+v, %v", vs, err)
	}
	if !vs[0].Pruned || !vs[1].Pruned || vs[2].Pruned || vs[3].Pruned {
		t.Fatalf("pruned flags = %+v", vs)
	}
	if _, err := reg.Sketch("imdb", 1); err == nil {
		t.Error("fetching a pruned version should fail")
	}
	if _, err := reg.Sketch("imdb", 3); err != nil {
		t.Errorf("fetching a present version failed: %v", err)
	}
	if err := reg.ResumeCanary("imdb", 2, 0.25); err == nil {
		t.Error("resuming a pruned version as canary should fail")
	}
	if err := reg.ResumeCanary("imdb", 4, 0.25); err != nil {
		t.Fatal(err)
	}
	if _, err := reg.PromoteCanary("imdb"); err != nil {
		t.Fatal(err)
	}
	// Live is now v4; rolling back to present v3 works, then the next
	// rollback would target pruned v2 and must refuse.
	if ver, _, err := reg.Rollback("imdb"); err != nil || ver != 3 {
		t.Fatalf("rollback to v3 = v%d, %v", ver, err)
	}
	if _, _, err := reg.Rollback("imdb"); err == nil {
		t.Error("rollback onto a pruned version should fail")
	}
}
