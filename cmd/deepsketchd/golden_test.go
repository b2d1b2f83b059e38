package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"regexp"
	"runtime"
	"testing"
)

// goldenResponsesPath holds the masked transcript TestResponsesGolden
// compares against. It was recorded before the overlays were cached and
// before /api/estimate answered with a typed struct; neither may change a
// byte.
const goldenResponsesPath = "testdata/responses.golden"

// latencyField is the one response field a transcript masks: wall time.
var latencyField = regexp.MustCompile(`"latency_ms":[-+.0-9eE]+`)

// goldenExchange is one request of the transcript.
type goldenExchange struct {
	path string
	body any
}

// responseTranscript sends each request through h and renders request,
// status and response body, latency_ms masked, one exchange per paragraph.
func responseTranscript(t *testing.T, h http.Handler, exchanges []goldenExchange) string {
	t.Helper()
	var out bytes.Buffer
	for _, ex := range exchanges {
		blob, err := json.Marshal(ex.body)
		if err != nil {
			t.Fatal(err)
		}
		rec := post(t, h, ex.path, ex.body)
		fmt.Fprintf(&out, "POST %s %s\n%d %s\n", ex.path, blob,
			rec.Code, latencyField.ReplaceAll(rec.Body.Bytes(), []byte(`"latency_ms":0`)))
	}
	return out.String()
}

// goldenTranscript drives a fresh daemon through auto-routed estimates
// answered by the PostgreSQL fallback on both datasets, error cases, then a
// built sketch's estimates (by id and auto-routed) and templates with and
// without overlays. Every estimate is asked twice, a miss and then a hit.
func goldenTranscript(t *testing.T) string {
	t.Helper()
	srv := testServer(t)
	h := srv.routes()
	twice := func(path string, body any) []goldenExchange {
		return []goldenExchange{{path, body}, {path, body}}
	}
	var before []goldenExchange
	for _, req := range []estimateReq{
		{SQL: "SELECT COUNT(*) FROM title t WHERE t.production_year>2000"},
		{Dataset: "imdb", SQL: "SELECT COUNT(*) FROM title t, movie_keyword mk WHERE mk.movie_id=t.id AND t.kind_id=1"},
		{Dataset: "imdb", SQL: "SELECT COUNT(*) FROM title t, cast_info ci, movie_companies mc WHERE ci.movie_id=t.id AND mc.movie_id=t.id AND t.production_year<1990 AND ci.role_id=2"},
		{Dataset: "tpch", SQL: "SELECT COUNT(*) FROM orders o, lineitem l WHERE l.order_id=o.id AND o.orderstatus='F' AND l.quantity<10"},
		{Dataset: "tpch", SQL: "SELECT COUNT(*) FROM customer c WHERE c.mktsegment='BUILDING'"},
		{Dataset: "imdb", SQL: "SELECT COUNT(*) FROM title t WHERE t.production_year>3000"},
		{Dataset: "imdb", SQL: "SELECT nonsense"},
		{Dataset: "imdb", SQL: "SELECT COUNT(*) FROM title t WHERE t.nope=1"},
		{Dataset: "nope", SQL: "SELECT COUNT(*) FROM title t"},
		{SketchID: 99, SQL: "SELECT COUNT(*) FROM title t"},
	} {
		before = append(before, twice("/api/estimate", req)...)
	}
	transcript := responseTranscript(t, h, before)

	id := buildReadySketch(t, h, "golden")
	var after []goldenExchange
	for _, req := range []estimateReq{
		{SketchID: id, SQL: "SELECT COUNT(*) FROM title t WHERE t.production_year>2000"},
		{SketchID: id, SQL: "SELECT COUNT(*) FROM title t, movie_keyword mk WHERE mk.movie_id=t.id AND t.kind_id=1"},
		{SketchID: id, SQL: "SELECT COUNT(*) FROM title t, movie_info mi WHERE mi.movie_id=t.id AND mi.info_type_id=3"},
		{Dataset: "imdb", SQL: "SELECT COUNT(*) FROM title t WHERE t.production_year>2000"},
		{Dataset: "imdb", SQL: "SELECT COUNT(*) FROM title t, cast_info ci, movie_companies mc WHERE ci.movie_id=t.id AND mc.movie_id=t.id AND t.production_year<1990 AND ci.role_id=2"},
		{SketchID: id, SQL: "SELECT nonsense"},
	} {
		after = append(after, twice("/api/estimate", req)...)
	}
	for _, req := range []templateReq{
		{SketchID: id, SQL: "SELECT COUNT(*) FROM title t WHERE t.production_year=?", Group: "buckets", Buckets: 6, Truth: true},
		{SketchID: id, SQL: "SELECT COUNT(*) FROM title t, movie_keyword mk WHERE mk.movie_id=t.id AND t.kind_id=?", Truth: true},
		{SketchID: id, SQL: "SELECT COUNT(*) FROM title t WHERE t.production_year=?", Group: "buckets", Buckets: 6},
	} {
		after = append(after, twice("/api/template", req)...)
	}
	return transcript + responseTranscript(t, h, after)
}

// TestResponsesGolden: every /api/estimate and /api/template response —
// misses, hits, fallbacks, errors, templates with and without overlays —
// equals the recorded transcript byte for byte, latency_ms aside.
func TestResponsesGolden(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skipf("transcript recorded on amd64; %s may fuse multiply-adds, so the bits differ by platform, not by commit", runtime.GOARCH)
	}
	want, err := os.ReadFile(goldenResponsesPath)
	if err != nil {
		t.Fatal(err)
	}
	got := goldenTranscript(t)
	if got != string(want) {
		gl, wl := bytes.Split([]byte(got), []byte("\n")), bytes.Split(want, []byte("\n"))
		for i := 0; i < len(gl) && i < len(wl); i++ {
			if !bytes.Equal(gl[i], wl[i]) {
				t.Fatalf("transcript line %d differs:\n got %s\nwant %s", i+1, gl[i], wl[i])
			}
		}
		t.Fatalf("transcript has %d lines, want %d", len(gl), len(wl))
	}
}
