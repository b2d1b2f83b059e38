package router

import (
	"context"
	"fmt"
	"sync"
	"testing"

	"deepsketch/internal/core"
	"deepsketch/internal/datagen"
	"deepsketch/internal/db"
	"deepsketch/internal/mscn"
)

func buildSub(t *testing.T, d *db.DB, name string, tables []string) *core.Sketch {
	t.Helper()
	s, err := core.Build(d, core.Config{
		Name: name, Tables: tables, SampleSize: 16,
		TrainQueries: 60, MaxJoins: 2, MaxPreds: 1, Seed: 3,
		Model: mscn.Config{HiddenUnits: 8, Epochs: 1, BatchSize: 16, Seed: 3},
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// install makes s the whole of what serves its own name: version 1 of
// incarnation 1, no canary arm.
func install(t *testing.T, r *Router, s *core.Sketch) {
	t.Helper()
	if err := r.Install(s.Name(), Serving{Primary: s, Version: 1, Inc: 1}); err != nil {
		t.Error(err)
	}
}

// renamed is s under another name, sharing its model and samples.
func renamed(s *core.Sketch, name string) *core.Sketch {
	cfg := s.Cfg
	cfg.Name = name
	return &core.Sketch{Cfg: cfg, Encoder: s.Encoder, Model: s.Model, Samples: s.Samples, DBName: s.DBName}
}

func TestRouterPrefersSmallestCover(t *testing.T) {
	d := datagen.IMDb(datagen.IMDbConfig{Seed: 51, Titles: 400, Keywords: 30, Companies: 15, Persons: 60})
	full := buildSub(t, d, "full", nil)
	kw := buildSub(t, d, "keywords", []string{"title", "movie_keyword", "keyword"})
	r := New()
	install(t, r, full)
	install(t, r, kw)
	if r.Len() != 2 {
		t.Fatalf("Len = %d", r.Len())
	}
	if names := r.Names(); names[0] != "full" || names[1] != "keywords" {
		t.Fatalf("Names = %v", names)
	}

	// A keyword query routes to the specialist.
	q := db.Query{
		Tables: []db.TableRef{{Table: "title", Alias: "t"}, {Table: "movie_keyword", Alias: "mk"}},
		Joins:  []db.JoinPred{{LeftAlias: "mk", LeftCol: "movie_id", RightAlias: "t", RightCol: "id"}},
	}
	s, _, err := r.RouteVersion(q)
	if err != nil {
		t.Fatal(err)
	}
	if s.Name() != "keywords" {
		t.Errorf("routed to %s, want keywords", s.Name())
	}

	// A cast_info query only fits the full sketch.
	q2 := db.Query{Tables: []db.TableRef{{Table: "cast_info", Alias: "ci"}}}
	s2, _, err := r.RouteVersion(q2)
	if err != nil {
		t.Fatal(err)
	}
	if s2.Name() != "full" {
		t.Errorf("routed to %s, want full", s2.Name())
	}

	// Estimation through the router works end to end, and the estimate
	// reports which sketch answered.
	if est, err := r.Estimate(context.Background(), q); err != nil || est.Cardinality < 1 {
		t.Errorf("router estimate = %+v, %v", est, err)
	} else if est.Source != "keywords" {
		t.Errorf("estimate source = %q, want keywords", est.Source)
	}
}

func TestRouterNoCover(t *testing.T) {
	d := datagen.IMDb(datagen.IMDbConfig{Seed: 52, Titles: 300, Keywords: 20, Companies: 10, Persons: 50})
	kw := buildSub(t, d, "kw", []string{"title", "movie_keyword", "keyword"})
	r := New()
	install(t, r, kw)
	q := db.Query{Tables: []db.TableRef{{Table: "cast_info", Alias: "ci"}}}
	if _, _, err := r.RouteVersion(q); err == nil {
		t.Error("uncovered query should error")
	}
	if _, err := r.Estimate(context.Background(), q); err == nil {
		t.Error("uncovered estimate should error")
	}
}

func TestRouterEmptyAndConcurrent(t *testing.T) {
	r := New()
	if _, _, err := r.RouteVersion(db.Query{Tables: []db.TableRef{{Table: "x", Alias: "x"}}}); err == nil {
		t.Error("empty router should error")
	}
	// Concurrent install + route must be race-free (run with -race).
	d := datagen.IMDb(datagen.IMDbConfig{Seed: 53, Titles: 300, Keywords: 20, Companies: 10, Persons: 50})
	s := buildSub(t, d, "s", nil)
	q := db.Query{Tables: []db.TableRef{{Table: "title", Alias: "t"}}}
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			install(t, r, renamed(s, fmt.Sprintf("s%d", i)))
			if _, err := r.Estimate(context.Background(), q); err != nil {
				t.Error(err)
			}
		}()
	}
	wg.Wait()
	if r.Len() != 4 {
		t.Errorf("Len = %d", r.Len())
	}
}

func TestRouterTieBreakByRegistrationOrder(t *testing.T) {
	d := datagen.IMDb(datagen.IMDbConfig{Seed: 54, Titles: 300, Keywords: 20, Companies: 10, Persons: 50})
	a := buildSub(t, d, "first", []string{"title", "movie_keyword", "keyword"})
	b := buildSub(t, d, "second", []string{"title", "movie_keyword", "keyword"})
	r := New()
	install(t, r, a)
	install(t, r, b)
	q := db.Query{Tables: []db.TableRef{{Table: "title", Alias: "t"}}}
	s, _, err := r.RouteVersion(q)
	if err != nil {
		t.Fatal(err)
	}
	if s.Name() != "first" {
		t.Errorf("tie should go to first registered, got %s", s.Name())
	}
	// Re-installing a name replaces it in place: the later install of
	// "first" still outranks "second".
	a2 := renamed(b, "first")
	install(t, r, a2)
	if s, _, err := r.RouteVersion(q); err != nil || s != a2 {
		t.Errorf("after re-install the tie went to %v (%v), want the new \"first\"", s, err)
	}
	if names := r.Names(); len(names) != 2 || names[0] != "first" || names[1] != "second" {
		t.Errorf("Names after re-install = %v", names)
	}
}

func TestRouterEstimateBatchMatchesEstimate(t *testing.T) {
	d := datagen.IMDb(datagen.IMDbConfig{Seed: 55, Titles: 300, Keywords: 20, Companies: 10, Persons: 50})
	kw := buildSub(t, d, "keywords", []string{"title", "movie_keyword", "keyword"})
	full := buildSub(t, d, "full", nil)
	r := New()
	install(t, r, kw)
	install(t, r, full)
	ctx := context.Background()

	// A mixed batch: some queries covered by the specialist, some only by
	// the generalist.
	qs := []db.Query{
		{Tables: []db.TableRef{{Table: "title", Alias: "t"}},
			Preds: []db.Predicate{{Alias: "t", Col: "production_year", Op: db.OpGt, Val: 2000}}},
		{Tables: []db.TableRef{{Table: "cast_info", Alias: "ci"}}},
		{Tables: []db.TableRef{{Table: "movie_keyword", Alias: "mk"}}},
	}
	batch, err := r.EstimateBatch(ctx, qs)
	if err != nil {
		t.Fatal(err)
	}
	if len(batch) != len(qs) {
		t.Fatalf("batch size = %d", len(batch))
	}
	wantSrc := []string{"keywords", "full", "keywords"}
	for i, q := range qs {
		single, err := r.Estimate(ctx, q)
		if err != nil {
			t.Fatal(err)
		}
		if batch[i].Source != single.Source || batch[i].Source != wantSrc[i] {
			t.Errorf("query %d routed to %q (batch) / %q (single), want %q",
				i, batch[i].Source, single.Source, wantSrc[i])
		}
		if diff := batch[i].Cardinality - single.Cardinality; diff > 1e-9 || diff < -1e-9 {
			t.Errorf("query %d: batch %v vs single %v", i, batch[i].Cardinality, single.Cardinality)
		}
	}

	// One uncovered query fails the batch, like Estimate would.
	r2 := New()
	install(t, r2, kw)
	if _, err := r2.EstimateBatch(ctx, qs); err == nil {
		t.Error("batch with uncovered query should error")
	}
}

func TestRouterSwapAndUnregister(t *testing.T) {
	d := datagen.IMDb(datagen.IMDbConfig{Seed: 57, Titles: 300, Keywords: 20, Companies: 10, Persons: 50})
	full := buildSub(t, d, "full", nil)
	kw := buildSub(t, d, "spec", []string{"title", "movie_keyword", "keyword"})
	r := New()
	install(t, r, full)
	if err := r.Install("nope", Serving{Primary: kw, Version: 1}); err == nil {
		t.Error("installing a sketch under a name it does not carry should error")
	}
	if err := r.Install("", Serving{Primary: renamed(kw, ""), Version: 1}); err == nil {
		t.Error("installing under the empty name should error")
	}
	if err := r.Install("full", Serving{Version: 1}); err == nil {
		t.Error("installing no primary should error")
	}
	q := db.Query{Tables: []db.TableRef{{Table: "cast_info", Alias: "ci"}}}
	if s, _, err := r.RouteVersion(q); err != nil || s != full {
		t.Fatalf("refused installs changed routing: %v, %v", s, err)
	}
	// Replace the generalist with a specialist under the same name: the new
	// sketch's coverage may differ from the old one's.
	if err := r.Install("full", Serving{Primary: renamed(kw, "full"), Version: 2, Inc: 1}); err != nil {
		t.Fatal(err)
	}
	if names := r.Names(); len(names) != 1 || names[0] != "full" {
		t.Fatalf("Names after swap = %v", names)
	}
	if _, _, err := r.RouteVersion(q); err == nil {
		t.Error("swapped-in specialist should not cover cast_info")
	}
	if !r.Unregister("full") {
		t.Error("unregister existing sketch = false")
	}
	if r.Unregister("full") {
		t.Error("double unregister = true")
	}
	if r.Len() != 0 {
		t.Errorf("after unregister: len=%d", r.Len())
	}
}

// TestRouterSwapUnregisterRace: concurrent Install and Unregister
// during in-flight EstimateBatch traffic (run with -race). Every batch must
// either succeed with internally consistent routing or fail only because
// the registry was momentarily empty of covering sketches — never observe a
// half-applied mutation.
func TestRouterSwapUnregisterRace(t *testing.T) {
	d := datagen.IMDb(datagen.IMDbConfig{Seed: 58, Titles: 300, Keywords: 20, Companies: 10, Persons: 50})
	a := buildSub(t, d, "live", nil)
	b := buildSub(t, d, "live", nil) // same name: a swap target
	spec := buildSub(t, d, "spec", []string{"title", "movie_keyword", "keyword"})

	r := New()
	install(t, r, a)
	qs := []db.Query{
		{Tables: []db.TableRef{{Table: "title", Alias: "t"}}},
		{Tables: []db.TableRef{{Table: "cast_info", Alias: "ci"}}},
	}
	ctx := context.Background()

	var wg sync.WaitGroup
	stop := make(chan struct{})
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
				ests, err := r.EstimateBatch(ctx, qs)
				if err != nil {
					// Only acceptable when the generalist was unregistered
					// at routing time; cast_info is then uncovered.
					continue
				}
				if ests[1].Source != "live" {
					t.Errorf("cast_info answered by %q, want live", ests[1].Source)
					return
				}
			}
		}()
	}
	swapIn := a
	for i := 0; i < 50; i++ {
		if swapIn == a {
			swapIn = b
		} else {
			swapIn = a
		}
		install(t, r, swapIn)
		install(t, r, spec)
		if !r.Unregister("spec") {
			t.Error("spec was installed and could not be unregistered")
		}
	}
	close(stop)
	wg.Wait()
	if names := r.Names(); len(names) != 1 || names[0] != "live" {
		t.Errorf("Names after the race = %v, want [live]", names)
	}
}

func TestRouterBatchDeterministicUnderConcurrentRegister(t *testing.T) {
	// A batch must route against one consistent registry snapshot (one
	// RLock per batch, groups in first-appearance order): while sketches
	// register concurrently, every EstimateBatch result must be internally
	// consistent, and with the registry frozen repeated batches must be
	// identical.
	d := datagen.IMDb(datagen.IMDbConfig{Seed: 56, Titles: 300, Keywords: 20, Companies: 10, Persons: 50})
	full := buildSub(t, d, "full", nil)
	kw := buildSub(t, d, "kw", []string{"title", "movie_keyword", "keyword"})

	r := New()
	install(t, r, full)

	qs := []db.Query{
		{Tables: []db.TableRef{{Table: "title", Alias: "t"}}},
		{Tables: []db.TableRef{{Table: "cast_info", Alias: "ci"}}},
		{Tables: []db.TableRef{{Table: "movie_keyword", Alias: "mk"}}},
		{Tables: []db.TableRef{{Table: "keyword", Alias: "k"}}},
	}
	ctx := context.Background()

	// Registrations race with batches (run with -race). The specialist
	// covers queries 0, 2 and 3; inside any single batch each query must be
	// answered by a sketch that covers it, with the covered trio agreeing
	// on the snapshot (all-specialist or all-generalist, never a mix in one
	// direction per query count).
	var wg sync.WaitGroup
	stop := make(chan struct{})
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
				ests, err := r.EstimateBatch(ctx, qs)
				if err != nil {
					t.Error(err)
					return
				}
				if ests[1].Source != "full" {
					t.Errorf("cast_info answered by %q, want full", ests[1].Source)
					return
				}
				src := ests[0].Source
				if ests[2].Source != src || ests[3].Source != src {
					t.Errorf("one batch split across registry views: %q/%q/%q",
						ests[0].Source, ests[2].Source, ests[3].Source)
					return
				}
			}
		}()
	}
	for i := 0; i < 8; i++ {
		install(t, r, kw)
	}
	close(stop)
	wg.Wait()

	// Registry frozen: repeated batches must be byte-for-byte deterministic
	// in routing and cardinalities.
	a, err := r.EstimateBatch(ctx, qs)
	if err != nil {
		t.Fatal(err)
	}
	for rep := 0; rep < 5; rep++ {
		b, err := r.EstimateBatch(ctx, qs)
		if err != nil {
			t.Fatal(err)
		}
		for i := range a {
			if a[i].Source != b[i].Source || a[i].Cardinality != b[i].Cardinality {
				t.Fatalf("rep %d query %d: %q/%v vs %q/%v — batch routing must be deterministic",
					rep, i, a[i].Source, a[i].Cardinality, b[i].Source, b[i].Cardinality)
			}
		}
	}
	if got := a[0].Source; got != "kw" {
		t.Errorf("title routed to %q, want the smaller kw cover after registration", got)
	}
}
