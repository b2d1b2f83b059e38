package lifecycle

import (
	"context"
	"math"
	"sync"
	"sync/atomic"
	"testing"

	"deepsketch/internal/core"
	"deepsketch/internal/datagen"
	"deepsketch/internal/db"
	"deepsketch/internal/mscn"
	"deepsketch/internal/serve"
	"deepsketch/internal/workload"
)

var (
	fixtureOnce sync.Once
	fixtureDB   *db.DB
)

func fixture(t *testing.T) *db.DB {
	t.Helper()
	fixtureOnce.Do(func() {
		fixtureDB = datagen.IMDb(datagen.IMDbConfig{Seed: 91, Titles: 900, Keywords: 50, Companies: 25, Persons: 150})
	})
	return fixtureDB
}

func buildNamed(t *testing.T, d *db.DB, name string, seed int64) *core.Sketch {
	t.Helper()
	s, err := core.Build(d, core.Config{
		Name: name, SampleSize: 48, TrainQueries: 400, MaxJoins: 2, MaxPreds: 2,
		Seed: seed, Workers: 2,
		Model: mscn.Config{HiddenUnits: 16, Epochs: 8, BatchSize: 32, Seed: seed},
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func labelDelta(t *testing.T, d *db.DB, seed int64, n int) []workload.LabeledQuery {
	t.Helper()
	g, err := workload.NewGenerator(d, workload.GenConfig{
		Seed: seed, Count: n, MaxJoins: 2, MaxPreds: 2, Dedup: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	labeled, err := workload.Label(d, g.Generate(), 2, nil)
	if err != nil {
		t.Fatal(err)
	}
	return labeled
}

func TestRegistryPublishSwapVersionsRollback(t *testing.T) {
	d := fixture(t)
	v1 := buildNamed(t, d, "imdb", 11)
	v2 := buildNamed(t, d, "imdb", 12)

	reg := New()
	if _, err := reg.Publish("", v1); err == nil {
		t.Error("empty name should fail")
	}
	if _, err := reg.Publish("other", v1); err == nil {
		t.Error("name mismatch should fail")
	}
	if _, err := reg.Swap("imdb", v1); err == nil {
		t.Error("swap before publish should fail")
	}
	ver, err := reg.Publish("imdb", v1)
	if err != nil || ver != 1 {
		t.Fatalf("first publish = v%d, %v", ver, err)
	}
	ver, err = reg.Swap("imdb", v2)
	if err != nil || ver != 2 {
		t.Fatalf("swap = v%d, %v", ver, err)
	}
	if live, lv, err := reg.Live("imdb"); err != nil || live != v2 || lv != 2 {
		t.Fatalf("live = %v v%d, %v", live, lv, err)
	}
	vs, err := reg.Versions("imdb")
	if err != nil || len(vs) != 2 || !vs[1].Live || vs[0].Live {
		t.Fatalf("versions = %+v, %v", vs, err)
	}
	if vs[0].Epochs != 8 || vs[0].ValMeanQ <= 0 {
		t.Errorf("version info lost training record: %+v", vs[0])
	}

	// Rollback to v1, then publish appends v3 (history monotone).
	ver, back, err := reg.Rollback("imdb")
	if err != nil || ver != 1 || back != v1 {
		t.Fatalf("rollback = v%d %v, %v", ver, back, err)
	}
	if _, _, err := reg.Rollback("imdb"); err == nil {
		t.Error("rollback past version 1 should fail")
	}
	ver, err = reg.Publish("imdb", v2)
	if err != nil || ver != 3 {
		t.Fatalf("publish after rollback = v%d, %v", ver, err)
	}
	if names := reg.Names(); len(names) != 1 || names[0] != "imdb" {
		t.Fatalf("names = %v", names)
	}
	if err := reg.Unregister("imdb"); err != nil {
		t.Fatal(err)
	}
	if err := reg.Unregister("imdb"); err == nil {
		t.Error("double unregister should fail")
	}
	if _, ok := reg.LiveVersion("imdb"); ok {
		t.Error("live version after unregister")
	}
	if reg.Router().Len() != 0 {
		t.Error("router entry left behind after unregister")
	}
}

// TestLifecycleEndToEnd is the acceptance test for the lifecycle redesign:
// build → serve through a version-keyed cache → warm-start Refresh
// with a delta workload (strictly fewer epochs than a cold rebuild to the
// same validation q-error, Adam state resumed) → atomic swap under
// concurrent traffic with zero failed requests and no post-swap cache hits
// from the old version. (v1-file compatibility is covered by
// core.TestLoadV1Sketch on the same format.)
func TestLifecycleEndToEnd(t *testing.T) {
	d := fixture(t)
	base := buildNamed(t, d, "imdb", 21)
	baseStep := base.Model.OptState().Step

	reg := New()
	if _, err := reg.Publish("imdb", base); err != nil {
		t.Fatal(err)
	}
	cache := serve.NewCache(serve.Clamp(reg.Router(), serve.MaxCardinality(d)), 1024).
		KeyFunc(reg.Router().CacheKey)

	// Fixed probe queries, all covered by the sketch.
	probeQs := make([]db.Query, 0, 8)
	for _, lq := range labelDelta(t, d, 300, 8) {
		probeQs = append(probeQs, lq.Query)
	}
	ctx := context.Background()

	// Warm the cache and remember the old version's answers.
	oldAnswers := make([]float64, len(probeQs))
	for i, q := range probeQs {
		est, err := cache.Estimate(ctx, q)
		if err != nil {
			t.Fatal(err)
		}
		oldAnswers[i] = est.Cardinality
	}

	// Concurrent traffic for the whole refresh+swap window. Zero failures
	// allowed: the swap must be invisible except for the answers changing.
	var failures atomic.Int64
	var requests atomic.Int64
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				requests.Add(1)
				if g%2 == 0 {
					if _, err := cache.Estimate(ctx, probeQs[g%len(probeQs)]); err != nil {
						failures.Add(1)
						t.Error(err)
						return
					}
				} else {
					if _, err := cache.EstimateBatch(ctx, probeQs); err != nil {
						failures.Add(1)
						t.Error(err)
						return
					}
				}
			}
		}(g)
	}

	// Cold-rebuild reference on the delta workload (fresh weights, fresh
	// optimizer, full epoch budget) fixes the quality target.
	delta := labelDelta(t, d, 301, 250)
	coldCfg := base.Cfg
	coldCfg.Name = "cold"
	cold, err := core.BuildWithWorkload(d, coldCfg, delta, nil)
	if err != nil {
		t.Fatal(err)
	}
	coldEpochs := len(cold.Epochs)
	targetQ := cold.Epochs[coldEpochs-1].ValMeanQ * 1.05

	// Warm-start refresh under traffic.
	ver, ns, err := reg.Refresh(ctx, RefreshOptions{
		Name: "imdb", Workload: delta, Epochs: coldEpochs, StopAtValQ: targetQ, Workers: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	if ver != 2 {
		t.Errorf("refresh produced v%d, want 2", ver)
	}
	warmEpochs := len(ns.Epochs) - len(base.Epochs)
	if warmEpochs >= coldEpochs {
		t.Errorf("warm refresh took %d epochs, want strictly fewer than cold's %d", warmEpochs, coldEpochs)
	}
	if lastQ := ns.Epochs[len(ns.Epochs)-1].ValMeanQ; lastQ > targetQ {
		t.Errorf("warm refresh stopped at val mean-q %.2f > target %.2f", lastQ, targetQ)
	}
	if ns.Model.OptState().Step <= baseStep {
		t.Errorf("refresh did not resume Adam state: step %d ≤ base %d", ns.Model.OptState().Step, baseStep)
	}

	close(stop)
	wg.Wait()
	if failures.Load() != 0 {
		t.Fatalf("%d of %d requests failed across the swap", failures.Load(), requests.Load())
	}
	t.Logf("traffic: %d requests across refresh+swap, 0 failures; warm %d epochs vs cold %d",
		requests.Load(), warmEpochs, coldEpochs)

	// Post-swap: every probe answer must be the new version's, never a
	// cached answer from the old version.
	changed := 0
	for i, q := range probeQs {
		want, err := ns.Cardinality(q)
		if err != nil {
			t.Fatal(err)
		}
		want = math.Max(1, math.Min(want, serve.MaxCardinality(d))) // the stack clamps
		est, err := cache.Estimate(ctx, q)
		if err != nil {
			t.Fatal(err)
		}
		if est.Cardinality != want {
			t.Errorf("probe %d: post-swap answer %v, want new version's %v (old was %v)",
				i, est.Cardinality, want, oldAnswers[i])
		}
		if est.Cardinality != oldAnswers[i] {
			changed++
		}
	}
	if changed == 0 {
		t.Error("fine-tuned model answered identically on every probe — stale-cache check has no power")
	}
}

// TestRegistryConcurrentMutations: publishes, swaps, rollbacks and refresh
// lookups racing with traffic (run with -race).
func TestRegistryConcurrentMutations(t *testing.T) {
	d := fixture(t)
	a := buildNamed(t, d, "imdb", 31)
	b := buildNamed(t, d, "imdb", 32)

	reg := New()
	if _, err := reg.Publish("imdb", a); err != nil {
		t.Fatal(err)
	}
	cache := serve.NewCache(reg.Router(), 256).KeyFunc(reg.Router().CacheKey)
	q := db.Query{Tables: []db.TableRef{{Table: "title", Alias: "t"}}}
	ctx := context.Background()

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < 3; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				if _, err := cache.Estimate(ctx, q); err != nil {
					t.Error(err)
					return
				}
				reg.LiveVersion("imdb")
				if _, err := reg.Versions("imdb"); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	cur := a
	for i := 0; i < 30; i++ {
		if cur == a {
			cur = b
		} else {
			cur = a
		}
		if _, err := reg.Swap("imdb", cur); err != nil {
			t.Error(err)
		}
		if i%3 == 2 {
			if _, _, err := reg.Rollback("imdb"); err != nil {
				t.Error(err)
			}
		}
	}
	close(stop)
	wg.Wait()
}

// RefreshCandidate is the judgment seam: it must train without touching
// the registry in any way — no new version, no canary, live unchanged —
// so a caller can reject the candidate at zero rollout cost.
func TestRefreshCandidateTrainsWithoutInstalling(t *testing.T) {
	d := fixture(t)
	reg := New()
	base := buildNamed(t, d, "imdb", 5)
	if _, err := reg.Publish("imdb", base); err != nil {
		t.Fatal(err)
	}
	delta := labelDelta(t, d, 23, 120)

	cand, err := reg.RefreshCandidate(context.Background(), RefreshOptions{
		Name: "imdb", Workload: delta, Epochs: 2, Workers: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	if cand == nil || cand == base {
		t.Fatal("RefreshCandidate must return a new trained sketch, not the live one")
	}
	if len(cand.Epochs) <= len(base.Epochs) {
		t.Errorf("candidate has %d epoch records, want more than base's %d (warm fine-tune)", len(cand.Epochs), len(base.Epochs))
	}

	// Nothing installed: still v1 live, one version in history, no canary.
	if live, lv, err := reg.Live("imdb"); err != nil || lv != 1 || live != base {
		t.Fatalf("after RefreshCandidate: live v%d (%v), want untouched v1", lv, err)
	}
	if vs, err := reg.Versions("imdb"); err != nil || len(vs) != 1 {
		t.Fatalf("version history has %d entries, want 1", len(vs))
	}
	if _, active := reg.Canary("imdb"); active {
		t.Fatal("RefreshCandidate installed a canary")
	}

	// The candidate installs cleanly through the normal seam afterwards.
	ver, err := reg.StartCanary("imdb", cand, 0.25)
	if err != nil || ver != 2 {
		t.Fatalf("StartCanary(candidate) = v%d, %v, want v2", ver, err)
	}
	if err := reg.AbortCanary("imdb"); err != nil {
		t.Fatal(err)
	}

	// Unknown names fail without training.
	if _, err := reg.RefreshCandidate(context.Background(), RefreshOptions{Name: "nope", Workload: delta}); err == nil {
		t.Error("RefreshCandidate of an unknown name succeeded")
	}
}

// snapshotted reports whether s's inference engine holds a weight snapshot.
func snapshotted(s *core.Sketch) bool { return s.Model.Engine().Snapshotted() }

// estimateAll answers qs through the registry's serving view of name.
func estimateAll(t *testing.T, reg *Registry, name string, qs []db.Query) []float64 {
	t.Helper()
	out := make([]float64, len(qs))
	for i, q := range qs {
		est, err := reg.Serving(name).Estimate(context.Background(), q)
		if err != nil {
			t.Fatal(err)
		}
		out[i] = est.Cardinality
	}
	return out
}

// TestRollbackAnswersAsWhenLive: a swap drops the retired version's engine
// snapshot, a late request on it keeps none, and a rollback to it answers
// bit for bit as it did when it was live, from a snapshot rebuilt as it
// is served again and kept.
func TestRollbackAnswersAsWhenLive(t *testing.T) {
	d := fixture(t)
	v1 := buildNamed(t, d, "imdb", 21)
	v2 := buildNamed(t, d, "imdb", 22)
	var qs []db.Query
	for _, lq := range labelDelta(t, d, 23, 40) {
		qs = append(qs, lq.Query)
	}
	reg := New()
	if _, err := reg.Publish("imdb", v1); err != nil {
		t.Fatal(err)
	}
	live := estimateAll(t, reg, "imdb", qs)
	if !snapshotted(v1) {
		t.Fatal("the live version answered without a snapshot — the test is vacuous")
	}
	if _, err := reg.Swap("imdb", v2); err != nil {
		t.Fatal(err)
	}
	if snapshotted(v1) {
		t.Fatal("the retired version still holds its snapshot after the swap")
	}
	// A request that chose v1 before the swap forwards on it after: it
	// answers as v1 did, and leaves no snapshot behind.
	for i, q := range qs {
		got, err := v1.Cardinality(q)
		if err != nil {
			t.Fatal(err)
		}
		if math.Float64bits(got) != math.Float64bits(live[i]) {
			t.Fatalf("query %d on the retired version: %v, %v when it was live", i, got, live[i])
		}
	}
	if snapshotted(v1) {
		t.Fatal("a request on the retired version left a snapshot behind")
	}
	swapped := estimateAll(t, reg, "imdb", qs)
	if _, _, err := reg.Rollback("imdb"); err != nil {
		t.Fatal(err)
	}
	if snapshotted(v2) {
		t.Fatal("the rolled-back-from version still holds its snapshot")
	}
	back := estimateAll(t, reg, "imdb", qs)
	if !snapshotted(v1) {
		t.Fatal("the version rolled back to serves without keeping a snapshot")
	}
	differs := false
	for i := range qs {
		if math.Float64bits(back[i]) != math.Float64bits(live[i]) {
			t.Fatalf("query %d: %v after the rollback, %v when the version was live", i, back[i], live[i])
		}
		differs = differs || swapped[i] != live[i]
	}
	if !differs {
		t.Fatal("the two versions answer alike — the test is vacuous")
	}
}

// TestRetiredVersionsReleaseSnapshots: through 20 swaps, with canaries
// started, promoted and aborted and a rollback among them, and traffic
// after each, only the live version and the canary hold an engine snapshot,
// and the live version does.
func TestRetiredVersionsReleaseSnapshots(t *testing.T) {
	d := fixture(t)
	base, err := core.Build(d, core.Config{
		Name: "imdb", SampleSize: 48, TrainQueries: 200, MaxJoins: 2, MaxPreds: 2, Seed: 31, Workers: 2,
		Model: mscn.Config{HiddenUnits: 64, Epochs: 2, BatchSize: 32, Seed: 31},
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	var qs []db.Query
	for _, lq := range labelDelta(t, d, 32, 12) {
		qs = append(qs, lq.Query)
	}
	reg := New()
	if _, err := reg.Publish("imdb", base); err != nil {
		t.Fatal(err)
	}
	check := func(step string) {
		t.Helper()
		estimateAll(t, reg, "imdb", qs)
		vs, err := reg.Versions("imdb")
		if err != nil {
			t.Fatal(err)
		}
		for _, v := range vs {
			s, err := reg.Sketch("imdb", v.Version)
			if err != nil {
				t.Fatal(err)
			}
			// A canary holds one once a query has hashed to it.
			if held := snapshotted(s); held != v.Live && !(v.Canary && held) {
				t.Fatalf("%s: version %d (live %v, canary %v) holds a snapshot: %v", step, v.Version, v.Live, v.Canary, held)
			}
		}
	}
	for i := 0; i < 20; i++ {
		if _, err := reg.Swap("imdb", base.Clone()); err != nil {
			t.Fatal(err)
		}
		check("swap")
		switch i % 5 {
		case 1:
			if _, err := reg.StartCanary("imdb", base.Clone(), 0.5); err != nil {
				t.Fatal(err)
			}
			check("canary")
			if _, err := reg.PromoteCanary("imdb"); err != nil {
				t.Fatal(err)
			}
			check("promote")
		case 2:
			if _, err := reg.StartCanary("imdb", base.Clone(), 0.5); err != nil {
				t.Fatal(err)
			}
			check("canary")
			if err := reg.AbortCanary("imdb"); err != nil {
				t.Fatal(err)
			}
			check("abort")
		case 3:
			if _, _, err := reg.Rollback("imdb"); err != nil {
				t.Fatal(err)
			}
			check("rollback")
		}
	}
}
