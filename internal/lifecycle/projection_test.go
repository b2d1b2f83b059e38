package lifecycle

import (
	"context"
	"math/rand"
	"reflect"
	"testing"
	"time"

	"deepsketch/internal/core"
	"deepsketch/internal/db"
	"deepsketch/internal/estimator"
	"deepsketch/internal/mscn"
	"deepsketch/internal/router"
)

// refModel is the ten-line reference the registry is checked against: what
// a name's history is, and from it which version answers a signature.
type refModel struct {
	versions []*core.Sketch // nil when the name is not registered
	live     int            // 1-based
	canary   int            // 1-based, 0 = none
	fraction float64
	inc      uint64 // incarnations handed out so far; the current one when registered
}

func (m *refModel) answering(sig string) int {
	if m.canary != 0 && router.CanarySplit(sig, m.fraction) {
		return m.canary
	}
	return m.live
}

// TestRegistryProjectionUnderRandomMutations fires a seeded random
// interleaving of every registry mutation — legal and refused alike — at one
// name and, after every step, requires the three things that can say which
// version answers a query to agree for a fixed query set: the per-name view
// (Serving + CacheKey), the router's coverage dispatch, and the reference
// model. With the history as the only state and the router entry derived
// from it, a disagreement means a mutation forgot its install or a refused
// one leaked.
func TestRegistryProjectionUnderRandomMutations(t *testing.T) {
	d := fixture(t)
	pool := []*core.Sketch{buildNamed(t, d, "imdb", 61), buildNamed(t, d, "imdb", 62), buildNamed(t, d, "imdb", 63)}
	var probes []db.Query
	for _, lq := range labelDelta(t, d, 700, 12) {
		probes = append(probes, lq.Query)
	}
	ctx := context.Background()
	reg := New()
	view, key, rt := reg.Serving("imdb"), reg.CacheKey("imdb"), reg.Router()
	m := &refModel{}
	rng := rand.New(rand.NewSource(16))
	fractions := []float64{0.2, 0.5, 0.8, 1, 0, 1.5} // the last two are refused
	sawArm := map[bool]bool{}

	check := func(step int, op string) {
		t.Helper()
		if lv, ok := reg.LiveVersion("imdb"); ok != (m.versions != nil) || lv != m.live {
			t.Fatalf("step %d (%s): LiveVersion = v%d ok=%v, model v%d of %d", step, op, lv, ok, m.live, len(m.versions))
		}
		if ci, ok := reg.Canary("imdb"); ok != (m.canary != 0) || ci.Version != m.canary || (ok && (ci.Fraction != m.fraction || ci.BaseVersion != m.live)) {
			t.Fatalf("step %d (%s): Canary = %+v ok=%v, model v%d at %v", step, op, ci, ok, m.canary, m.fraction)
		}
		if vs, _ := reg.Versions("imdb"); len(vs) != len(m.versions) {
			t.Fatalf("step %d (%s): %d versions, model %d", step, op, len(vs), len(m.versions))
		}
		if m.versions == nil {
			for _, q := range probes {
				_, verr := view.Estimate(ctx, q)
				_, rerr := rt.Estimate(ctx, q)
				if verr == nil || rerr == nil {
					t.Fatalf("step %d (%s): an unregistered name answered (view err %v, router err %v)", step, op, verr, rerr)
				}
				if sig := q.Signature(); key(q) != sig || rt.CacheKey(q) != sig {
					t.Fatalf("step %d (%s): unregistered name keys %q / %q, want the bare signature", step, op, key(q), rt.CacheKey(q))
				}
			}
			return
		}
		batch, err := view.EstimateBatch(ctx, probes)
		if err != nil {
			t.Fatalf("step %d (%s): %v", step, op, err)
		}
		for i, q := range probes {
			sig := q.Signature()
			want := m.answering(sig)
			sawArm[want == m.canary] = true
			fromView, err := view.Estimate(ctx, q)
			if err != nil {
				t.Fatalf("step %d (%s): view: %v", step, op, err)
			}
			fromRouter, err := rt.Estimate(ctx, q)
			if err != nil {
				t.Fatalf("step %d (%s): router: %v", step, op, err)
			}
			for who, est := range map[string]estimator.Estimate{"view": fromView, "router": fromRouter, "view batch": batch[i]} {
				if est.Version != want || est.Source != "imdb" || est.Cardinality != fromView.Cardinality {
					t.Fatalf("step %d (%s) probe %d: %s answered %v from %q v%d, model says v%d (view single: %v)",
						step, op, i, who, est.Cardinality, est.Source, est.Version, want, fromView.Cardinality)
				}
			}
			if s, ver, err := rt.RouteVersion(q); err != nil || ver != want || s != m.versions[want-1] {
				t.Fatalf("step %d (%s) probe %d: routed to v%d (%v), model says v%d", step, op, i, ver, err, want)
			}
			if sv, ok := reg.ServingVersion("imdb", sig); !ok || sv != want {
				t.Fatalf("step %d (%s) probe %d: ServingVersion v%d ok=%v, model says v%d", step, op, i, sv, ok, want)
			}
			wantKey := router.VersionedCacheKey(sig, "imdb", m.inc, want)
			if key(q) != wantKey || rt.CacheKey(q) != wantKey {
				t.Fatalf("step %d (%s) probe %d: keys %q (view) / %q (router), want %q", step, op, i, key(q), rt.CacheKey(q), wantKey)
			}
		}
	}

	for step := 0; step < 300; step++ {
		s := pool[rng.Intn(len(pool))]
		f := fractions[rng.Intn(len(fractions))]
		legalFraction := f > 0 && f <= 1
		registered := m.versions != nil
		var op string
		var err error
		var legal bool
		switch rng.Intn(10) {
		case 0:
			op, legal = "Publish", true
			_, err = reg.Publish("imdb", s)
			if !registered {
				m.inc++
			}
			m.versions, m.live, m.canary = append(m.versions, s), len(m.versions)+1, 0
		case 1:
			op, legal = "Swap", registered
			_, err = reg.Swap("imdb", s)
			if legal {
				m.versions, m.live, m.canary = append(m.versions, s), len(m.versions)+1, 0
			}
		case 2:
			op, legal = "Rollback", registered && m.live > 1 && m.versions[m.live-2] != nil
			_, _, err = reg.Rollback("imdb")
			if legal {
				m.live, m.canary = m.live-1, 0
			}
		case 3:
			op, legal = "StartCanary", registered && m.canary == 0 && legalFraction
			_, err = reg.StartCanary("imdb", s, f)
			if legal {
				m.versions, m.canary, m.fraction = append(m.versions, s), len(m.versions)+1, f
			}
		case 4:
			op, legal = "SetCanaryFraction", m.canary != 0 && legalFraction
			err = reg.SetCanaryFraction("imdb", f)
			if legal {
				m.fraction = f
			}
		case 5:
			op, legal = "PromoteCanary", m.canary != 0
			_, err = reg.PromoteCanary("imdb")
			if legal {
				m.live, m.canary = m.canary, 0
			}
		case 6:
			op, legal = "AbortCanary", m.canary != 0
			err = reg.AbortCanary("imdb")
			if legal {
				m.canary = 0
			}
		case 7:
			// A restored history with a retention gap in front of the live version.
			op, legal = "Restore", !registered
			restored := []*core.Sketch{nil, pool[0], pool[1], s}
			err = reg.Restore("imdb", restored, 3)
			if legal {
				m.inc++
				m.versions, m.live, m.canary = restored, 3, 0
			}
		case 8:
			ver := 1 + rng.Intn(len(m.versions)+1)
			op = "ResumeCanary"
			legal = registered && m.canary == 0 && legalFraction && ver <= len(m.versions) && ver != m.live && m.versions[ver-1] != nil
			err = reg.ResumeCanary("imdb", ver, f)
			if legal {
				m.canary, m.fraction = ver, f
			}
		case 9:
			op, legal = "Unregister", registered
			err = reg.Unregister("imdb")
			if legal {
				m.versions, m.live, m.canary = nil, 0, 0
			}
		}
		if (err == nil) != legal {
			t.Fatalf("step %d: %s returned %v, the model says legal=%v", step, op, err, legal)
		}
		check(step, op)
	}
	if !sawArm[true] || !sawArm[false] {
		t.Errorf("the walk never had both arms answer (canary=%v primary=%v) — the agreement check has no power", sawArm[true], sawArm[false])
	}
}

// TestEstimatePathTakesNoRegistryLock: with the router entry a projection
// the registry installs, serving reads go to the router's snapshot alone.
// Holding the registry's mutex — the one every mutation, Versions and
// Restore hold — must not stall a single estimate, batch, cache key or
// serving-version lookup.
func TestEstimatePathTakesNoRegistryLock(t *testing.T) {
	d := fixture(t)
	reg := New()
	if _, err := reg.Publish("imdb", buildNamed(t, d, "imdb", 64)); err != nil {
		t.Fatal(err)
	}
	if _, err := reg.StartCanary("imdb", buildNamed(t, d, "imdb", 65), 0.5); err != nil {
		t.Fatal(err)
	}
	var probes []db.Query
	for _, lq := range labelDelta(t, d, 701, 6) {
		probes = append(probes, lq.Query)
	}

	reg.mu.Lock()
	defer reg.mu.Unlock()
	done := make(chan error, 1)
	go func() {
		ctx := context.Background()
		view := reg.Serving("imdb")
		for _, q := range probes {
			if _, err := view.Estimate(ctx, q); err != nil {
				done <- err
				return
			}
			reg.CacheKey("imdb")(q)
			reg.ServingVersion("imdb", q.Signature())
			reg.Router().CacheKey(q)
		}
		_, err := view.EstimateBatch(ctx, probes)
		done <- err
	}()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("the estimate path waited for the registry's mutex")
	}
}

// TestRefusedCanaryLeavesNoTrace: a candidate the router refuses — it
// covers other tables than the live version, or asks for a fraction outside
// (0, 1] — must leave the version history, the canary state and the routing
// exactly as they were; the install is attempted before anything commits.
func TestRefusedCanaryLeavesNoTrace(t *testing.T) {
	d := fixture(t)
	v1 := buildNamed(t, d, "imdb", 66)
	v2 := buildNamed(t, d, "imdb", 67)
	narrow, err := core.Build(d, core.Config{
		Name: "imdb", Tables: []string{"title", "movie_keyword", "keyword"}, SampleSize: 16,
		TrainQueries: 60, MaxJoins: 2, MaxPreds: 1, Seed: 3,
		Model: mscn.Config{HiddenUnits: 8, Epochs: 1, BatchSize: 16, Seed: 3},
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	var probes []db.Query
	for _, lq := range labelDelta(t, d, 702, 8) {
		probes = append(probes, lq.Query)
	}

	type observed struct {
		versions []VersionInfo
		canary   CanaryInfo
		active   bool
		routes   []*core.Sketch
		keys     []string
	}
	observe := func(reg *Registry) observed {
		t.Helper()
		var o observed
		var err error
		if o.versions, err = reg.Versions("imdb"); err != nil {
			t.Fatal(err)
		}
		o.canary, o.active = reg.Canary("imdb")
		for _, q := range probes {
			s, _, err := reg.Router().RouteVersion(q)
			if err != nil {
				t.Fatal(err)
			}
			o.routes = append(o.routes, s)
			o.keys = append(o.keys, reg.CacheKey("imdb")(q))
		}
		return o
	}

	reg := New()
	if _, err := reg.Publish("imdb", v1); err != nil {
		t.Fatal(err)
	}
	before := observe(reg)
	if _, err := reg.StartCanary("imdb", narrow, 0.5); err == nil {
		t.Fatal("a canary covering fewer tables than the live version was accepted")
	}
	if _, err := reg.StartCanary("imdb", v2, 0); err == nil {
		t.Fatal("a canary at fraction 0 was accepted")
	}
	if after := observe(reg); !reflect.DeepEqual(before, after) {
		t.Fatalf("refused StartCanary left a trace:\nbefore %+v\nafter  %+v", before, after)
	}

	// The refused candidates consumed no version number, and a refused
	// re-fraction or resume of a running canary leaves it running as it was.
	if ver, err := reg.StartCanary("imdb", v2, 0.5); err != nil || ver != 2 {
		t.Fatalf("StartCanary after the refusals = v%d, %v, want v2", ver, err)
	}
	before = observe(reg)
	if err := reg.SetCanaryFraction("imdb", 1.5); err == nil {
		t.Fatal("a canary fraction of 1.5 was accepted")
	}
	if after := observe(reg); !reflect.DeepEqual(before, after) {
		t.Fatalf("refused SetCanaryFraction left a trace:\nbefore %+v\nafter  %+v", before, after)
	}
}
