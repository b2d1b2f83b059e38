package main

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"

	"deepsketch"
)

// The overlay caches: each dataset's true count, HyPer and PostgreSQL
// answers sit behind an LRU keyed by Query.Signature, shared by
// /api/estimate, /api/template and the drift monitor's ground truth.

// overlayCaches returns a dataset's truth, HyPer and PostgreSQL caches.
func overlayCaches(srv *server, dataset string) map[string]*deepsketch.EstimateCache {
	bl := srv.baseline[dataset]
	return map[string]*deepsketch.EstimateCache{"truth": bl.truth, "hyper": bl.hyper, "postgresql": bl.pg}
}

// checkOverlayStats fails unless every one of the dataset's overlay caches
// holds entries entries after hits hits and misses misses.
func checkOverlayStats(t *testing.T, srv *server, dataset string, entries int, hits, misses uint64) {
	t.Helper()
	for name, c := range overlayCaches(srv, dataset) {
		h, m := c.Stats()
		if n := c.Len(); n != entries || h != hits || m != misses {
			t.Errorf("%s %s cache: %d entries, %d hits, %d misses; want %d, %d, %d", dataset, name, n, h, m, entries, hits, misses)
		}
	}
}

// maskedBody is a response body with latency_ms, the one field that
// differs from run to run, masked.
func maskedBody(rec *httptest.ResponseRecorder) string {
	return latencyField.ReplaceAllString(rec.Body.String(), `"latency_ms":0`)
}

// TestOverlayHitMatchesMiss: an auto-routed estimate whose overlays all hit
// (the sketch's own stack asked first) answers the same bytes as one on a
// fresh daemon where every overlay misses. Both requests miss the router's
// estimate cache, so cache_hit is false in both.
func TestOverlayHitMatchesMiss(t *testing.T) {
	const sql = "SELECT COUNT(*) FROM title t, movie_keyword mk WHERE mk.movie_id=t.id AND t.production_year>1990"
	cold := testServer(t)
	hc := cold.routes()
	buildReadySketch(t, hc, "s")
	miss := post(t, hc, "/api/estimate", estimateReq{Dataset: "imdb", SQL: sql})
	checkOverlayStats(t, cold, "imdb", 1, 0, 1)

	warm := testServer(t)
	hw := warm.routes()
	id := buildReadySketch(t, hw, "s")
	if rec := post(t, hw, "/api/estimate", estimateReq{SketchID: id, SQL: sql}); rec.Code != http.StatusOK {
		t.Fatalf("estimate by id: %d %s", rec.Code, rec.Body)
	}
	hit := post(t, hw, "/api/estimate", estimateReq{Dataset: "imdb", SQL: sql})
	checkOverlayStats(t, warm, "imdb", 1, 1, 1)

	if miss.Code != http.StatusOK || hit.Code != http.StatusOK {
		t.Fatalf("status: miss %d, hit %d", miss.Code, hit.Code)
	}
	if m, h := maskedBody(miss), maskedBody(hit); m != h {
		t.Errorf("overlay hit answers\n%s\nmiss answers\n%s", h, m)
	}
}

// TestOverlayErrorsNotCached: a request that fails — unparsable SQL, an
// unknown column, a table the chosen sketch does not cover — gets the same
// 400 twice and leaves no overlay entry behind; an overlay that fails
// itself is not cached either and keeps the exact executor's error text.
func TestOverlayErrorsNotCached(t *testing.T) {
	srv := testServer(t)
	h := srv.routes()
	rec := post(t, h, "/api/sketches", createReq{
		Name: "narrow", Dataset: "imdb", Tables: []string{"title", "movie_keyword"},
		SampleSize: 16, TrainQueries: 60, Epochs: 1, HiddenUnits: 8, Seed: 1,
	})
	if rec.Code != http.StatusAccepted {
		t.Fatalf("create: %d %s", rec.Code, rec.Body)
	}
	var entry sketchView
	if err := json.Unmarshal(rec.Body.Bytes(), &entry); err != nil {
		t.Fatal(err)
	}
	awaitStatus(t, h, entry.ID, "ready")
	for _, req := range []estimateReq{
		{Dataset: "imdb", SQL: "SELECT nonsense"},
		{Dataset: "tpch", SQL: "SELECT COUNT(*) FROM orders o WHERE o.nope=1"},
		{SketchID: entry.ID, SQL: "SELECT COUNT(*) FROM title t, cast_info ci WHERE ci.movie_id=t.id"},
	} {
		first, second := post(t, h, "/api/estimate", req), post(t, h, "/api/estimate", req)
		if first.Code != http.StatusBadRequest || second.Code != first.Code || second.Body.String() != first.Body.String() {
			t.Errorf("%q: %d %s then %d %s, want the same 400 twice", req.SQL, first.Code, first.Body, second.Code, second.Body)
		}
	}
	checkOverlayStats(t, srv, "imdb", 0, 0, 0)
	checkOverlayStats(t, srv, "tpch", 0, 0, 0)

	// A query the parser would refuse reaches the overlays directly: the
	// exact executor's error comes back unwrapped, twice, and nothing stays.
	d := srv.datasets["imdb"]
	bad := deepsketch.Query{Tables: []deepsketch.TableRef{{Table: "nope", Alias: "n"}}}
	_, want := deepsketch.TrueCardinality(d, bad)
	if want == nil {
		t.Fatal("counting an unknown table succeeded")
	}
	for i := 0; i < 2; i++ {
		if _, _, _, err := srv.baseline["imdb"].overlays(context.Background(), bad); err == nil || err.Error() != want.Error() {
			t.Errorf("overlays error = %v, want %v", err, want)
		}
	}
	for name, c := range overlayCaches(srv, "imdb") {
		if c.Len() != 0 {
			t.Errorf("imdb %s cache kept %d entries after failures", name, c.Len())
		}
	}
}

// TestOverlayClauseOrderSharesEntry: queries equal as sets — tables, joins
// and predicates in another order — share one entry of each overlay cache.
func TestOverlayClauseOrderSharesEntry(t *testing.T) {
	srv := testServer(t)
	h := srv.routes()
	for _, sql := range []string{
		"SELECT COUNT(*) FROM title t, movie_keyword mk WHERE mk.movie_id=t.id AND t.kind_id=1 AND mk.keyword_id>3",
		"SELECT COUNT(*) FROM movie_keyword mk, title t WHERE mk.keyword_id>3 AND t.id=mk.movie_id AND t.kind_id=1",
	} {
		if rec := post(t, h, "/api/estimate", estimateReq{Dataset: "imdb", SQL: sql}); rec.Code != http.StatusOK {
			t.Fatalf("%s: %d %s", sql, rec.Code, rec.Body)
		}
	}
	checkOverlayStats(t, srv, "imdb", 1, 1, 1)
}

// TestOverlayCachesBounded: more distinct queries than the capacity leave
// each overlay cache at most cacheCapacity entries, so a dataset holds at
// most 3 × cacheCapacity overlay answers.
func TestOverlayCachesBounded(t *testing.T) {
	srv := testServer(t)
	h := srv.routes()
	for i := 0; i < cacheCapacity+40; i++ {
		sql := fmt.Sprintf("SELECT COUNT(*) FROM title t WHERE t.production_year>%d", 1000+i)
		if rec := post(t, h, "/api/estimate", estimateReq{Dataset: "imdb", SQL: sql}); rec.Code != http.StatusOK {
			t.Fatalf("%s: %d %s", sql, rec.Code, rec.Body)
		}
		for name, c := range overlayCaches(srv, "imdb") {
			if n := c.Len(); n > cacheCapacity {
				t.Fatalf("imdb %s cache holds %d entries, capacity %d", name, n, cacheCapacity)
			}
		}
	}
	checkOverlayStats(t, srv, "imdb", cacheCapacity, 0, cacheCapacity+40)
}

// TestOverlayCachesPerDataset: each dataset has its own three caches, and
// a query answered on one dataset leaves nothing in the other's.
func TestOverlayCachesPerDataset(t *testing.T) {
	srv := testServer(t)
	h := srv.routes()
	imdb, tpch := overlayCaches(srv, "imdb"), overlayCaches(srv, "tpch")
	for name := range imdb {
		if imdb[name] == tpch[name] {
			t.Fatalf("imdb and tpch share the %s cache", name)
		}
	}
	post(t, h, "/api/estimate", estimateReq{Dataset: "imdb", SQL: "SELECT COUNT(*) FROM title t WHERE t.kind_id=1"})
	checkOverlayStats(t, srv, "imdb", 1, 0, 1)
	checkOverlayStats(t, srv, "tpch", 0, 0, 0)
	post(t, h, "/api/estimate", estimateReq{Dataset: "tpch", SQL: "SELECT COUNT(*) FROM orders o WHERE o.orderstatus='F'"})
	post(t, h, "/api/estimate", estimateReq{Dataset: "tpch", SQL: "SELECT COUNT(*) FROM orders o WHERE o.orderstatus='F'"})
	checkOverlayStats(t, srv, "imdb", 1, 0, 1)
	checkOverlayStats(t, srv, "tpch", 1, 1, 1)
}

// TestTemplateOverlaysCached: a repeated template with truth:true is served
// from the overlay caches — one hit per point in each — and answers the
// same bytes.
func TestTemplateOverlaysCached(t *testing.T) {
	srv := testServer(t)
	h := srv.routes()
	id := buildReadySketch(t, h, "tmpl")
	req := templateReq{SketchID: id, SQL: "SELECT COUNT(*) FROM title t WHERE t.production_year=?", Group: "buckets", Buckets: 8, Truth: true}
	first := post(t, h, "/api/template", req)
	if first.Code != http.StatusOK {
		t.Fatalf("template: %d %s", first.Code, first.Body)
	}
	var resp struct {
		Points []json.RawMessage `json:"points"`
	}
	if err := json.Unmarshal(first.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	n := uint64(len(resp.Points))
	if n < 2 {
		t.Fatalf("template answered %d points", n)
	}
	checkOverlayStats(t, srv, "imdb", int(n), 0, n)
	second := post(t, h, "/api/template", req)
	checkOverlayStats(t, srv, "imdb", int(n), n, n)
	if second.Code != http.StatusOK || second.Body.String() != first.Body.String() {
		t.Errorf("repeated template answered %d\n%s\nfirst answered\n%s", second.Code, second.Body, first.Body)
	}
}

// TestDriftTruthCountsOnce: under -drift-truth with every estimate sampled,
// the drift monitor's ground truth for a sampled estimate is the hit the
// estimate's own truth overlay left: the query is counted once.
func TestDriftTruthCountsOnce(t *testing.T) {
	srv := newServerOpts(serverOptions{
		titles: 800, orders: 400, seed: 3, driftTruth: true,
		driftCfg: deepsketch.DriftConfig{SampleEvery: 1},
	})
	h := srv.routes()
	id := buildReadySketch(t, h, "drift")
	rec := post(t, h, "/api/estimate", estimateReq{SketchID: id, SQL: "SELECT COUNT(*) FROM title t WHERE t.production_year>1995"})
	if rec.Code != http.StatusOK {
		t.Fatalf("estimate: %d %s", rec.Code, rec.Body)
	}
	// Nothing runs the monitor's loop in a test; drain its queue here.
	if n := srv.monitors["imdb"].Drain(context.Background()); n != 1 {
		t.Fatalf("drift monitor resolved %d sampled estimates, want 1", n)
	}
	h1, m1 := srv.baseline["imdb"].truth.Stats()
	if h1 != 1 || m1 != 1 {
		t.Errorf("truth cache: %d hits, %d misses; want the estimate's miss and the drift sample's hit", h1, m1)
	}
	if st := srv.monitors["imdb"].Status("drift"); st.TruthErrors != 0 {
		t.Errorf("drift monitor reports %d ground-truth errors", st.TruthErrors)
	}
}

// TestOverlayCachesConcurrent: requests over overlapping queries on both
// datasets, from many goroutines at once, each get the overlays an
// uncached executor and estimators compute. CI runs it under -race.
func TestOverlayCachesConcurrent(t *testing.T) {
	srv := testServer(t)
	h := srv.routes()
	type want struct {
		truth        int64
		hyper, pg    float64
		dataset, sql string
	}
	var wants []want
	for dataset, sqls := range map[string][]string{
		"imdb": {
			"SELECT COUNT(*) FROM title t WHERE t.production_year>2000",
			"SELECT COUNT(*) FROM title t, movie_keyword mk WHERE mk.movie_id=t.id AND t.kind_id=1",
			"SELECT COUNT(*) FROM title t, cast_info ci WHERE ci.movie_id=t.id AND ci.role_id<3",
		},
		"tpch": {
			"SELECT COUNT(*) FROM orders o, lineitem l WHERE l.order_id=o.id AND l.quantity<10",
			"SELECT COUNT(*) FROM customer c WHERE c.mktsegment='BUILDING'",
		},
	} {
		d := srv.datasets[dataset]
		hyper, err := deepsketch.HyperEstimator(d, 1000, 3)
		if err != nil {
			t.Fatal(err)
		}
		pg := deepsketch.PostgresEstimator(d)
		for _, sql := range sqls {
			q, err := deepsketch.ParseSQL(d, sql)
			if err != nil {
				t.Fatal(err)
			}
			w := want{dataset: dataset, sql: sql}
			if w.truth, err = deepsketch.TrueCardinality(d, q); err != nil {
				t.Fatal(err)
			}
			he, err := hyper.Estimate(context.Background(), q)
			if err != nil {
				t.Fatal(err)
			}
			pe, err := pg.Estimate(context.Background(), q)
			if err != nil {
				t.Fatal(err)
			}
			w.hyper, w.pg = he.Cardinality, pe.Cardinality
			wants = append(wants, w)
		}
	}
	const workers, perWorker = 8, 30
	var wg sync.WaitGroup
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				w := wants[(g+i*3)%len(wants)]
				rec := post(t, h, "/api/estimate", estimateReq{Dataset: w.dataset, SQL: w.sql})
				var got estimateResp
				if err := json.Unmarshal(rec.Body.Bytes(), &got); err != nil || rec.Code != http.StatusOK {
					t.Errorf("%s: %d %s (%v)", w.sql, rec.Code, rec.Body, err)
					return
				}
				if got.True != w.truth || got.Hyper != w.hyper || got.PostgreSQL != w.pg {
					t.Errorf("%s: overlays true=%d hyper=%v postgresql=%v, uncached %d %v %v",
						w.sql, got.True, got.Hyper, got.PostgreSQL, w.truth, w.hyper, w.pg)
				}
			}
		}(g)
	}
	wg.Wait()
	for _, dataset := range []string{"imdb", "tpch"} {
		for name, c := range overlayCaches(srv, dataset) {
			hits, misses := c.Stats()
			if hits+misses == 0 || c.Len() == 0 {
				t.Errorf("%s %s cache saw %d hits and %d misses with %d entries", dataset, name, hits, misses, c.Len())
			}
		}
	}
}
