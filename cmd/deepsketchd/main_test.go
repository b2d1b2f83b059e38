package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"os/exec"
	"strings"
	"testing"
	"time"
)

// newServer is the tests' constructor: a daemon over small datasets with
// the in-process truth source on and everything else at its defaults.
func newServer(titles, orders int, seed int64) *server {
	return newServerOpts(serverOptions{titles: titles, orders: orders, seed: seed, driftTruth: true})
}

func testServer(t *testing.T) *server {
	t.Helper()
	return newServer(800, 400, 3)
}

func post(t *testing.T, h http.Handler, path string, body any) *httptest.ResponseRecorder {
	t.Helper()
	blob, _ := json.Marshal(body)
	req := httptest.NewRequest("POST", path, bytes.NewReader(blob))
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	return rec
}

func get(t *testing.T, h http.Handler, path string) *httptest.ResponseRecorder {
	t.Helper()
	req := httptest.NewRequest("GET", path, nil)
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	return rec
}

func TestDatasetsEndpoint(t *testing.T) {
	srv := testServer(t)
	h := srv.routes()
	rec := get(t, h, "/api/datasets")
	if rec.Code != 200 {
		t.Fatalf("status %d", rec.Code)
	}
	var out map[string][]struct {
		Name string `json:"name"`
		Rows int    `json:"rows"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &out); err != nil {
		t.Fatal(err)
	}
	if len(out["imdb"]) != 8 || len(out["tpch"]) != 6 {
		t.Errorf("dataset table counts: imdb=%d tpch=%d", len(out["imdb"]), len(out["tpch"]))
	}
}

func TestSketchLifecycleAndEstimate(t *testing.T) {
	srv := testServer(t)
	h := srv.routes()

	rec := post(t, h, "/api/sketches", createReq{
		Dataset: "imdb", SampleSize: 32, TrainQueries: 120, Epochs: 2, HiddenUnits: 8, Seed: 1,
	})
	if rec.Code != http.StatusAccepted {
		t.Fatalf("create status %d: %s", rec.Code, rec.Body)
	}
	var entry sketchView
	if err := json.Unmarshal(rec.Body.Bytes(), &entry); err != nil {
		t.Fatal(err)
	}

	// Estimating against a building sketch must 404/409 cleanly, not crash.
	recEarly := post(t, h, "/api/estimate", estimateReq{SketchID: entry.ID, SQL: "SELECT COUNT(*) FROM title"})
	if recEarly.Code == http.StatusOK {
		// Tiny build may already be done; that's fine too.
		t.Log("sketch finished before polling — fast machine")
	}

	// Poll until ready.
	deadline := time.Now().Add(60 * time.Second)
	for {
		rec := get(t, h, fmt.Sprintf("/api/sketches/%d", entry.ID))
		if rec.Code != 200 {
			t.Fatalf("get status %d", rec.Code)
		}
		var status struct {
			Status   string `json:"status"`
			Error    string `json:"error"`
			Progress struct {
				Finished bool `json:"finished"`
			} `json:"progress"`
		}
		if err := json.Unmarshal(rec.Body.Bytes(), &status); err != nil {
			t.Fatal(err)
		}
		if status.Status == "failed" {
			t.Fatalf("build failed: %s", status.Error)
		}
		if status.Status == "ready" {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("sketch did not become ready in time")
		}
		time.Sleep(50 * time.Millisecond)
	}

	// Ad-hoc estimate with overlays.
	rec = post(t, h, "/api/estimate", estimateReq{
		SketchID: entry.ID,
		SQL:      "SELECT COUNT(*) FROM title t, movie_keyword mk WHERE mk.movie_id=t.id AND t.production_year>2000",
	})
	if rec.Code != 200 {
		t.Fatalf("estimate status %d: %s", rec.Code, rec.Body)
	}
	var est struct {
		DeepSketch float64            `json:"deep_sketch"`
		Hyper      float64            `json:"hyper"`
		PostgreSQL float64            `json:"postgresql"`
		True       int64              `json:"true"`
		QErrors    map[string]float64 `json:"q_errors"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &est); err != nil {
		t.Fatal(err)
	}
	if est.DeepSketch < 1 || est.True < 1 || len(est.QErrors) != 3 {
		t.Errorf("estimate payload wrong: %+v", est)
	}

	// Template query with truth overlays.
	rec = post(t, h, "/api/template", templateReq{
		SketchID: entry.ID,
		SQL:      "SELECT COUNT(*) FROM title t WHERE t.production_year=?",
		Group:    "buckets", Buckets: 6, Truth: true,
	})
	if rec.Code != 200 {
		t.Fatalf("template status %d: %s", rec.Code, rec.Body)
	}
	var tpl struct {
		Points []struct {
			Label string  `json:"label"`
			Est   float64 `json:"deep_sketch"`
			True  *int64  `json:"true"`
		} `json:"points"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &tpl); err != nil {
		t.Fatal(err)
	}
	if len(tpl.Points) != 6 {
		t.Fatalf("points = %d", len(tpl.Points))
	}
	for _, p := range tpl.Points {
		if p.True == nil {
			t.Error("missing truth overlay")
		}
	}

	// Download round trip.
	rec = get(t, h, fmt.Sprintf("/api/sketches/%d/download", entry.ID))
	if rec.Code != 200 {
		t.Fatalf("download status %d", rec.Code)
	}
	if !bytes.HasPrefix(rec.Body.Bytes(), []byte("DSKB")) {
		t.Error("download is not a sketch file")
	}

	// List contains the sketch.
	rec = get(t, h, "/api/sketches")
	if !strings.Contains(rec.Body.String(), `"ready"`) {
		t.Errorf("list missing ready sketch: %s", rec.Body)
	}
}

func TestEstimateAutoRouting(t *testing.T) {
	srv := testServer(t)
	h := srv.routes()
	rec := post(t, h, "/api/sketches", createReq{
		Dataset: "imdb", Tables: []string{"title", "movie_keyword", "keyword"},
		SampleSize: 16, TrainQueries: 60, Epochs: 1, HiddenUnits: 8, Seed: 1,
	})
	if rec.Code != http.StatusAccepted {
		t.Fatalf("create status %d", rec.Code)
	}
	deadline := time.Now().Add(60 * time.Second)
	for {
		rec := get(t, h, "/api/sketches/1")
		var st struct {
			Status string `json:"status"`
			Error  string `json:"error"`
		}
		if err := json.Unmarshal(rec.Body.Bytes(), &st); err != nil {
			t.Fatal(err)
		}
		if st.Status == "failed" {
			t.Fatal(st.Error)
		}
		if st.Status == "ready" {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("timeout")
		}
		time.Sleep(50 * time.Millisecond)
	}
	// No sketch_id: auto-route to the covering sketch, which reports
	// itself as the estimate's source.
	rec = post(t, h, "/api/estimate", estimateReq{
		Dataset: "imdb", SQL: "SELECT COUNT(*) FROM title t WHERE t.kind_id=1",
	})
	if rec.Code != http.StatusOK {
		t.Fatalf("routed estimate: %d %s", rec.Code, rec.Body)
	}
	var resp struct {
		Source string `json:"source"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Source != "imdb-sketch-1" {
		t.Errorf("covered query source = %q, want the sketch", resp.Source)
	}
	// A query outside every sketch's tables falls through the serving chain
	// to the PostgreSQL-style estimator instead of erroring.
	rec = post(t, h, "/api/estimate", estimateReq{
		Dataset: "imdb", SQL: "SELECT COUNT(*) FROM cast_info ci",
	})
	if rec.Code != http.StatusOK {
		t.Fatalf("uncovered query status = %d %s", rec.Code, rec.Body)
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Source != "PostgreSQL" {
		t.Errorf("uncovered query source = %q, want PostgreSQL fallback", resp.Source)
	}
}

// TestEngineFlagRejectsInt8 starts the real binary with -engine, a flag
// that no longer exists (every sketch serves one arithmetic): an operator
// script that still passes it must fail loudly at start-up, before binding
// anything, naming the flag — not serve. The test holds the -addr port, so
// a daemon that got as far as binding would log that it is listening.
func TestEngineFlagRejectsInt8(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	out, err := exec.Command("go", "run", ".", "-addr", ln.Addr().String(), "-engine", "f32").CombinedOutput()
	if err == nil {
		t.Fatalf("deepsketchd -engine f32 exited 0:\n%s", out)
	}
	if !bytes.Contains(out, []byte("-engine")) {
		t.Errorf("start-up error does not name -engine:\n%s", out)
	}
	if bytes.Contains(out, []byte("listening")) {
		t.Errorf("deepsketchd got as far as binding before refusing -engine:\n%s", out)
	}
}

func TestEstimateErrors(t *testing.T) {
	srv := testServer(t)
	h := srv.routes()
	rec := post(t, h, "/api/estimate", estimateReq{SketchID: 99, SQL: "SELECT COUNT(*) FROM title"})
	if rec.Code != http.StatusNotFound {
		t.Errorf("missing sketch status = %d", rec.Code)
	}
	rec = post(t, h, "/api/sketches", createReq{Dataset: "nope"})
	if rec.Code != http.StatusBadRequest {
		t.Errorf("bad dataset status = %d", rec.Code)
	}
}

func TestIndexServed(t *testing.T) {
	srv := testServer(t)
	h := srv.routes()
	rec := get(t, h, "/")
	if rec.Code != 200 || !strings.Contains(rec.Body.String(), "Deep Sketches") {
		t.Errorf("index: %d", rec.Code)
	}
	if rec := get(t, h, "/nope"); rec.Code != 404 {
		t.Errorf("unknown path status = %d", rec.Code)
	}
}
