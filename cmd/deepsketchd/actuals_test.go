package main

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"deepsketch"
)

// Tests for the logged-actuals feedback loop: the POST .../actuals ingest
// endpoint, WAL-backed drift-state recovery across restarts, the full
// no-exact-executor drift cycle, and the joint retention policy.

// noTruthServer builds a daemon whose drift monitors have NO in-process
// ground truth: every sampled estimate parks pending until a client POSTs
// the observed actual.
func noTruthServer(driftCfg deepsketch.DriftConfig, ctrlCfg deepsketch.DriftControllerConfig, walDir string) *server {
	return newServerOpts(serverOptions{
		titles: 600, orders: 300, seed: 2,
		driftCfg: driftCfg, ctrlCfg: ctrlCfg,
		walDir: walDir, driftTruth: false,
	})
}

// minObserved mirrors the drift controller's evidence minimum: a triggered
// cycle trains on the WAL only once it holds this many distinct actuals.
const minObserved = 32

// driftView fetches the parts of GET .../drift the feedback-loop tests
// assert on: the controller's cycle (with its workload decision) and the
// monitor's trigger record.
func driftView(t *testing.T, h http.Handler, id int) (deepsketch.DriftCycleStatus, deepsketch.DriftStatus) {
	t.Helper()
	rec := get(t, h, fmt.Sprintf("/api/sketches/%d/drift", id))
	if rec.Code != http.StatusOK {
		t.Fatalf("drift endpoint: %d %s", rec.Code, rec.Body)
	}
	var out struct {
		Cycle   deepsketch.DriftCycleStatus `json:"cycle"`
		Monitor deepsketch.DriftStatus      `json:"monitor"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &out); err != nil {
		t.Fatal(err)
	}
	return out.Cycle, out.Monitor
}

// postActual reports one observed actual for sketch id.
func postActual(t *testing.T, h http.Handler, id int, sql string, actual float64, client string) *httptest.ResponseRecorder {
	t.Helper()
	return post(t, h, fmt.Sprintf("/api/sketches/%d/actuals", id), actualsReq{SQL: sql, Actual: actual, Client: client})
}

func TestActualsEndpointSemantics(t *testing.T) {
	srv := noTruthServer(deepsketch.DriftConfig{SampleEvery: 1, Window: 64, QueueSize: 4096}, deepsketch.DriftControllerConfig{}, "")
	srv.admit = deepsketch.NewActualsAdmitter(deepsketch.AdmitConfig{PerClientPerMin: 2})
	h := srv.routes()
	id := buildReadySketch(t, h, "actuals api")

	// Unknown sketch.
	if rec := postActual(t, h, 99, "SELECT COUNT(*) FROM title", 1, ""); rec.Code != http.StatusNotFound {
		t.Errorf("unknown sketch: %d, want 404", rec.Code)
	}
	// Malformed body.
	req := httptest.NewRequest("POST", fmt.Sprintf("/api/sketches/%d/actuals", id), strings.NewReader("{not json"))
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if rec.Code != http.StatusBadRequest {
		t.Errorf("bad json: %d, want 400", rec.Code)
	}
	// Unparseable SQL and negative actuals.
	if rec := postActual(t, h, id, "SELECT nope", 1, ""); rec.Code != http.StatusBadRequest {
		t.Errorf("bad sql: %d, want 400", rec.Code)
	}
	if rec := postActual(t, h, id, "SELECT COUNT(*) FROM title", -5, ""); rec.Code != http.StatusBadRequest {
		t.Errorf("negative actual: %d, want 400", rec.Code)
	}
	// Oversized payloads: the body is capped at maxActualsBody and the
	// self-reported client ID at maxClientIDBytes — neither may reach the
	// admission table or the WAL.
	req = httptest.NewRequest("POST", fmt.Sprintf("/api/sketches/%d/actuals", id),
		strings.NewReader(`{"sql":"`+strings.Repeat("x", maxActualsBody+1)+`"}`))
	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if rec.Code != http.StatusRequestEntityTooLarge {
		t.Errorf("oversized body: %d, want 413", rec.Code)
	}
	if rec := postActual(t, h, id, "SELECT COUNT(*) FROM title", 1, strings.Repeat("c", maxClientIDBytes+1)); rec.Code != http.StatusBadRequest {
		t.Errorf("oversized client ID: %d, want 400", rec.Code)
	}

	// Serve one estimate so its observation parks pending, then resolve it.
	sql := "SELECT COUNT(*) FROM title t WHERE t.production_year>2000"
	if rec := post(t, h, "/api/estimate", estimateReq{SketchID: id, SQL: sql}); rec.Code != http.StatusOK {
		t.Fatalf("estimate: %d %s", rec.Code, rec.Body)
	}
	srv.monitors["imdb"].Drain(context.Background())
	if st := srv.monitors["imdb"].Status("actuals api"); st.Pending != 1 {
		t.Fatalf("pending = %d before the actual, want 1", st.Pending)
	}
	var resp struct {
		Admitted bool    `json:"admitted"`
		Matched  bool    `json:"matched"`
		Decision string  `json:"decision"`
		Version  int     `json:"version"`
		QError   float64 `json:"q_error"`
	}
	rec = postActual(t, h, id, sql, 100, "c1")
	if rec.Code != http.StatusOK {
		t.Fatalf("actual: %d %s", rec.Code, rec.Body)
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if !resp.Admitted || !resp.Matched || resp.Version != 1 || resp.QError < 1 {
		t.Fatalf("matched resolve = %+v", resp)
	}
	st := srv.monitors["imdb"].Status("actuals api")
	if st.Pending != 0 || len(st.Versions) != 1 || st.Versions[0].Samples != 1 {
		t.Fatalf("post-resolve monitor state: %+v", st)
	}

	// An actual nobody asked about is admitted but unmatched.
	rec = postActual(t, h, id, "SELECT COUNT(*) FROM title t WHERE t.production_year>1950", 7, "c1")
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if !resp.Admitted || resp.Matched {
		t.Fatalf("unmatched actual = %+v", resp)
	}

	// Third admitted record this minute for c1 exceeds PerClientPerMin 2.
	rec = postActual(t, h, id, sql, 100, "c1")
	if rec.Code != http.StatusTooManyRequests {
		t.Fatalf("capped: %d %s, want 429", rec.Code, rec.Body)
	}
	if rec.Header().Get("Retry-After") != "60" {
		t.Errorf("capped response missing Retry-After: %v", rec.Header())
	}
	// A capped record must not reach the monitor as training signal.
	if st := srv.monitors["imdb"].Status("actuals api"); st.Unmatched != 1 {
		t.Errorf("capped actual leaked into the monitor: %+v", st)
	}
	// Another client has its own budget.
	if rec := postActual(t, h, id, sql, 100, "c2"); rec.Code != http.StatusOK {
		t.Errorf("second client capped by the first's budget: %d %s", rec.Code, rec.Body)
	}

	// Per-client sampling: with SampleEvery 2 the odd attempts are thinned.
	srv.admit = deepsketch.NewActualsAdmitter(deepsketch.AdmitConfig{SampleEvery: 2})
	rec = postActual(t, h, id, sql, 100, "c3")
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if rec.Code != http.StatusOK || resp.Admitted || resp.Decision != "sampled" {
		t.Fatalf("sampled attempt = %d %+v, want 200 {admitted:false, decision:sampled}", rec.Code, resp)
	}
	rec = postActual(t, h, id, sql, 100, "c3")
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if !resp.Admitted {
		t.Fatalf("second attempt after sampling = %+v, want admitted", resp)
	}
}

// TestDriftStateSurvivesRestart is the regression test for the silent-reset
// bug: before the WAL, a restart zeroed every q-error window and dropped
// all pending observations. Now both halves replay from the observation
// log — the window median survives a kill -9 mid-episode and the estimates
// keep flowing.
func TestDriftStateSurvivesRestart(t *testing.T) {
	dir := t.TempDir()
	store, walDir := filepath.Join(dir, "store"), filepath.Join(dir, "wal")
	driftCfg := deepsketch.DriftConfig{SampleEvery: 1, Window: 64, MinSamples: 1000, QueueSize: 4096}

	srv1 := noTruthServer(driftCfg, deepsketch.DriftControllerConfig{}, walDir)
	srv1.store = store
	h1 := srv1.routes()
	id := buildReadySketch(t, h1, "episode")
	// "ready" means persisted: at the first read of it the version file
	// and state.json exist, and a fresh daemon restores the sketch.
	for _, f := range []string{"v1.dsk", "state.json"} {
		if _, err := os.Stat(filepath.Join(store, sanitizeName("episode"), f)); err != nil {
			t.Fatalf("at the first ready: %v", err)
		}
	}
	probe := noTruthServer(driftCfg, deepsketch.DriftControllerConfig{}, "")
	probe.store = store
	if n, err := probe.loadStore(); err != nil || n != 1 {
		t.Fatalf("restore at the first ready: n=%d err=%v", n, err)
	}

	sqls := make([]string, 0, 8)
	for i := 0; i < 8; i++ {
		sqls = append(sqls, fmt.Sprintf("SELECT COUNT(*) FROM title t WHERE t.production_year>%d", 1960+5*i))
	}
	for _, sql := range sqls {
		if rec := post(t, h1, "/api/estimate", estimateReq{SketchID: id, SQL: sql}); rec.Code != http.StatusOK {
			t.Fatalf("estimate: %d %s", rec.Code, rec.Body)
		}
	}
	srv1.monitors["imdb"].Drain(context.Background())
	// Resolve five of the eight; three stay pending — mid-episode.
	d := srv1.datasets["imdb"]
	for _, sql := range sqls[:5] {
		q, err := deepsketch.ParseSQL(d, sql)
		if err != nil {
			t.Fatal(err)
		}
		truth, err := deepsketch.TrueCardinality(d, q)
		if err != nil {
			t.Fatal(err)
		}
		if rec := postActual(t, h1, id, sql, float64(truth), "app"); rec.Code != http.StatusOK {
			t.Fatalf("actual: %d %s", rec.Code, rec.Body)
		}
	}
	before := srv1.monitors["imdb"].Status("episode")
	if before.Pending != 3 || len(before.Versions) != 1 || before.Versions[0].Samples != 5 {
		t.Fatalf("pre-restart state: %+v", before)
	}

	// "kill -9": no Close, no checkpoint — a fresh process over the same
	// store and WAL directories must reconstruct the episode.
	srv2 := noTruthServer(driftCfg, deepsketch.DriftControllerConfig{}, walDir)
	srv2.store = store
	if n, err := srv2.loadStore(); err != nil || n != 1 {
		t.Fatalf("restore: n=%d err=%v", n, err)
	}
	srv2.replayWAL()
	after := srv2.monitors["imdb"].Status("episode")
	if after.Pending != 3 {
		t.Errorf("pending after restart = %d, want 3", after.Pending)
	}
	if len(after.Versions) != 1 || after.Versions[0].Samples != 5 {
		t.Fatalf("window after restart = %+v, want 5 samples", after.Versions)
	}
	if after.Versions[0].Window.Median != before.Versions[0].Window.Median {
		t.Errorf("window median %g after restart, want %g — the episode reset",
			after.Versions[0].Window.Median, before.Versions[0].Window.Median)
	}
	// The three still-pending observations resolve on the restarted daemon.
	h2 := srv2.routes()
	var resp struct {
		Matched bool `json:"matched"`
	}
	for _, sql := range sqls[5:] {
		rec := postActual(t, h2, id, sql, 50, "app")
		if rec.Code != http.StatusOK {
			t.Fatalf("post-restart actual: %d %s", rec.Code, rec.Body)
		}
		if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
			t.Fatal(err)
		}
		if !resp.Matched {
			t.Errorf("observation for %q lost across restart", sql)
		}
	}
	// Zero failed estimates across the restart.
	for _, sql := range sqls {
		if rec := post(t, h2, "/api/estimate", estimateReq{SketchID: id, SQL: sql}); rec.Code != http.StatusOK {
			t.Fatalf("estimate after restart: %d %s", rec.Code, rec.Body)
		}
	}
}

// TestReplayResolvedZeroEstimate: an in-process-resolved pair whose served
// estimate was exactly 0 is still a graded observation — replay must land
// its q-error in the rebuilt window (Version 0, not Estimate 0, is the
// unmatched-actual marker).
func TestReplayResolvedZeroEstimate(t *testing.T) {
	srv := noTruthServer(deepsketch.DriftConfig{SampleEvery: 1, Window: 64, QueueSize: 4096}, deepsketch.DriftControllerConfig{}, t.TempDir())
	err := srv.wals["imdb"].Append(deepsketch.WALRecord{
		Kind: deepsketch.WALActual, Name: "zero-est", Version: 1,
		Signature: "sig-0", SQL: "SELECT COUNT(*) FROM title", Estimate: 0, Actual: 5,
	})
	if err != nil {
		t.Fatal(err)
	}
	srv.replayWAL()
	st := srv.monitors["imdb"].Status("zero-est")
	if len(st.Versions) != 1 || st.Versions[0].Samples != 1 {
		t.Fatalf("zero-estimate resolved record dropped at replay: %+v", st.Versions)
	}
}

// TestNoTruthAutoLoopEndToEnd is the acceptance scenario: a daemon with
// -drift and NO exact executor anywhere near the serving path. Actuals
// arrive only via POST, drift is detected from them, the warm refresh
// fine-tunes on a WAL-derived delta workload (observed traffic, not
// synthetic generation), the canary gate promotes — and a kill -9 restart
// afterwards comes back with windows intact and zero failed estimates.
func TestNoTruthAutoLoopEndToEnd(t *testing.T) {
	dir := t.TempDir()
	store, walDir := filepath.Join(dir, "store"), filepath.Join(dir, "wal")
	driftCfg := deepsketch.DriftConfig{
		SampleEvery: 1, Window: 64, MinSamples: 6,
		MaxMedianQ: 1.01, Cooldown: time.Hour, QueueSize: 4096,
	}
	ctrlCfg := deepsketch.DriftControllerConfig{
		CanaryFraction: 0.5, PromoteAfter: 3, MaxQRatio: 100,
		Epochs: 1,
	}
	srv := noTruthServer(driftCfg, ctrlCfg, walDir)
	srv.store = store
	h := srv.routes()
	id := buildReadySketch(t, h, "no truth")
	ctx := context.Background()
	d := srv.datasets["imdb"]

	// Enough distinct queries that the WAL accumulates >= minObserved
	// distinct logged actuals — the refresh must come from observed traffic.
	sqls := make([]string, 0, 40)
	for i := 0; i < 40; i++ {
		sqls = append(sqls, fmt.Sprintf("SELECT COUNT(*) FROM title t WHERE t.production_year>%d", 1900+3*i))
	}
	truths := make(map[string]float64, len(sqls))
	for _, sql := range sqls {
		q, err := deepsketch.ParseSQL(d, sql)
		if err != nil {
			t.Fatal(err)
		}
		tc, err := deepsketch.TrueCardinality(d, q)
		if err != nil {
			t.Fatal(err)
		}
		truths[sql] = float64(tc)
	}
	feed := func(h http.Handler) {
		t.Helper()
		for _, sql := range sqls {
			if rec := post(t, h, "/api/estimate", estimateReq{SketchID: id, SQL: sql}); rec.Code != http.StatusOK {
				t.Fatalf("estimate: %d %s", rec.Code, rec.Body)
			}
		}
		srv.monitors["imdb"].Drain(ctx)
		for _, sql := range sqls {
			if rec := postActual(t, h, id, sql, truths[sql], "app"); rec.Code != http.StatusOK {
				t.Fatalf("actual: %d %s", rec.Code, rec.Body)
			}
		}
	}

	// Phase 1: traffic + POSTed actuals until the trigger fires and the
	// controller's cycle lands a canary.
	feed(h)
	deadline := time.Now().Add(60 * time.Second)
	for {
		if _, ok := srv.registries["imdb"].Canary("no truth"); ok {
			break
		}
		if cy := srv.controllers["imdb"].Cycle("no truth"); cy.State == "idle" && cy.LastError != "" {
			t.Fatalf("drift cycle failed: %s", cy.LastError)
		}
		if time.Now().After(deadline) {
			t.Fatalf("no canary; cycle=%+v monitor=%+v",
				srv.controllers["imdb"].Cycle("no truth"), srv.monitors["imdb"].Status("no truth"))
		}
		time.Sleep(20 * time.Millisecond)
	}
	// The refresh drew its delta workload from the WAL, not the generator —
	// the controller's recorded decision, not a side counter.
	if cy, _ := driftView(t, h, id); cy.Source != "wal" || cy.Count < minObserved {
		t.Fatalf("refresh trained on %q workload of %d queries, want wal with >= %d", cy.Source, cy.Count, minObserved)
	}

	// Phase 2: keep feeding; the gate judges on POST-resolved canary
	// samples and promotes.
	deadline = time.Now().Add(60 * time.Second)
	for {
		feed(h)
		srv.controllers["imdb"].Tick()
		status, version, canary := entryState(t, h, id)
		if status == "ready" && version == 2 && canary == nil {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("never promoted; status=%s version=%d cycle=%+v",
				status, version, srv.controllers["imdb"].Cycle("no truth"))
		}
		time.Sleep(20 * time.Millisecond)
	}
	// Not one exact execution happened inside the daemon.
	if st := srv.monitors["imdb"].Status("no truth"); st.TruthErrors != 0 {
		t.Errorf("truth errors = %d on a truthless monitor", st.TruthErrors)
	}
	// The promote checkpointed the WAL (retention's replay bound).
	if st := srv.wals["imdb"].Stats(); st.CheckpointSeq == 0 {
		t.Errorf("no WAL checkpoint after promote: %+v", st)
	}
	// The drift endpoint surfaces the feedback loop's observability.
	rec := get(t, h, fmt.Sprintf("/api/sketches/%d/drift", id))
	var driftResp struct {
		WAL        *deepsketch.WALStats `json:"wal"`
		WALActuals int                  `json:"wal_actuals"`
		WALRefresh uint64               `json:"wal_workloads"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &driftResp); err != nil {
		t.Fatal(err)
	}
	if driftResp.WAL == nil || driftResp.WALActuals < minObserved || driftResp.WALRefresh < 1 {
		t.Errorf("drift endpoint wal fields: %+v", driftResp)
	}

	// kill -9 + restart: the promoted version serves, the windows replay,
	// and every estimate answers.
	srv2 := noTruthServer(driftCfg, ctrlCfg, walDir)
	srv2.store = store
	if n, err := srv2.loadStore(); err != nil || n != 1 {
		t.Fatalf("restore: n=%d err=%v", n, err)
	}
	srv2.replayWAL()
	h2 := srv2.routes()
	status, version, canary := entryState(t, h2, 1)
	if status != "ready" || version != 2 || canary != nil {
		t.Fatalf("restarted entry: status=%s version=%d canary=%+v", status, version, canary)
	}
	st := srv2.monitors["imdb"].Status("no truth")
	if len(st.Versions) == 0 {
		t.Fatalf("windows empty after restart: %+v", st)
	}
	var samples uint64
	for _, v := range st.Versions {
		samples += v.Samples
	}
	if samples == 0 {
		t.Fatalf("no replayed q-error samples after restart: %+v", st.Versions)
	}
	for _, sql := range sqls {
		if rec := post(t, h2, "/api/estimate", estimateReq{SketchID: 1, SQL: sql}); rec.Code != http.StatusOK {
			t.Fatalf("estimate after restart failed: %d %s", rec.Code, rec.Body)
		}
	}
}

// TestTriggerDeferredUntilEvidence: a drift trigger that fires while the
// WAL holds too few actuals to train on is declined, not consumed — no
// cycle, the shortfall visible on the drift endpoint, no cooldown stamped
// (the test's cooldown is an hour) — and the still-exceeded threshold
// starts the cycle by itself as soon as the evidence is there.
func TestTriggerDeferredUntilEvidence(t *testing.T) {
	driftCfg := deepsketch.DriftConfig{
		SampleEvery: 1, Window: 64, MinSamples: 6,
		MaxMedianQ: 1.01, Cooldown: time.Hour, QueueSize: 4096,
	}
	ctrlCfg := deepsketch.DriftControllerConfig{
		CanaryFraction: 0.5, PromoteAfter: 3, MaxQRatio: 100, Epochs: 1,
	}
	srv := noTruthServer(driftCfg, ctrlCfg, t.TempDir())
	h := srv.routes()
	id := buildReadySketch(t, h, "deferred")
	d := srv.datasets["imdb"]
	feed := func(from, to int) {
		t.Helper()
		sqls := make([]string, 0, to-from)
		for i := from; i < to; i++ {
			sqls = append(sqls, fmt.Sprintf("SELECT COUNT(*) FROM title t WHERE t.production_year>%d", 1900+3*i))
		}
		for _, sql := range sqls {
			if rec := post(t, h, "/api/estimate", estimateReq{SketchID: id, SQL: sql}); rec.Code != http.StatusOK {
				t.Fatalf("estimate: %d %s", rec.Code, rec.Body)
			}
		}
		srv.monitors["imdb"].Drain(context.Background())
		for _, sql := range sqls {
			q, err := deepsketch.ParseSQL(d, sql)
			if err != nil {
				t.Fatal(err)
			}
			tc, err := deepsketch.TrueCardinality(d, q)
			if err != nil {
				t.Fatal(err)
			}
			if rec := postActual(t, h, id, sql, float64(tc), "app"); rec.Code != http.StatusOK {
				t.Fatalf("actual: %d %s", rec.Code, rec.Body)
			}
		}
	}

	// Ten resolved actuals: past MinSamples, so the trigger fires — and is
	// declined, every time, because the WAL is short.
	feed(0, 10)
	cy, mon := driftView(t, h, id)
	if cy.State != "idle" || cy.Source != "" {
		t.Fatalf("a cycle ran on short evidence: %+v", cy)
	}
	if cy.Deferred == nil || cy.Deferred.Have >= minObserved || cy.Deferred.Want != minObserved || cy.Deferred.Since.IsZero() {
		t.Fatalf("deferred = %+v, want the shortfall against %d", cy.Deferred, minObserved)
	}
	if mon.LastTrigger != nil {
		t.Fatalf("declined trigger was consumed (cooldown stamped): %+v", mon.LastTrigger)
	}
	if status, version, canary := entryState(t, h, id); status != "ready" || version != 1 || canary != nil {
		t.Fatalf("entry moved on a declined trigger: %s v%d %+v", status, version, canary)
	}

	// Thirty more: the evidence arrives, the next re-fire is accepted.
	feed(10, 40)
	awaitStatus(t, h, id, "canarying")
	cy, mon = driftView(t, h, id)
	if cy.Source != "wal" || cy.Count < minObserved || cy.Deferred != nil || cy.Shortfall != nil {
		t.Fatalf("cycle after the evidence arrived: %+v, want a wal workload and no deferral", cy)
	}
	if mon.LastTrigger == nil || mon.LastTrigger.Kind != "median" {
		t.Fatalf("accepted trigger not on record: %+v", mon.LastTrigger)
	}
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestRetentionPrunesStoreAndWAL: one policy spans both artifacts — old
// version files and checkpointed WAL segments age out together, and a
// restart over the pruned store restores the history with gaps the
// lifecycle refuses to roll back onto. Operator refreshes swap without a
// promote, so their version files must be pruned as they are written.
func TestRetentionPrunesStoreAndWAL(t *testing.T) {
	dir := t.TempDir()
	store, walDir := filepath.Join(dir, "store"), filepath.Join(dir, "wal")
	srv := newServerOpts(serverOptions{
		titles: 600, orders: 300, seed: 2,
		driftCfg: deepsketch.DriftConfig{SampleEvery: 1, Window: 64, QueueSize: 4096},
		walDir:   walDir, driftTruth: false,
		walDelta: 512, retainVersions: 1, retainWALBytes: 1,
	})
	srv.store = store
	h := srv.routes()
	id := buildReadySketch(t, h, "retained")

	// Grow the history to v4 (live), with traffic journaling WAL records
	// along the way.
	for ver := 2; ver <= 4; ver++ {
		sql := fmt.Sprintf("SELECT COUNT(*) FROM title t WHERE t.production_year>%d", 1940+ver*10)
		if rec := post(t, h, "/api/estimate", estimateReq{SketchID: id, SQL: sql}); rec.Code != http.StatusOK {
			t.Fatalf("estimate: %d %s", rec.Code, rec.Body)
		}
		srv.monitors["imdb"].Drain(context.Background())
		if rec := post(t, h, fmt.Sprintf("/api/sketches/%d/refresh", id), map[string]any{"queries": 80, "epochs": 1}); rec.Code != http.StatusAccepted {
			t.Fatalf("refresh: %d %s", rec.Code, rec.Body)
		}
		awaitStatus(t, h, id, "ready")
	}
	if _, ver, _ := entryState(t, h, id); ver != 4 {
		t.Fatalf("history did not reach v4")
	}

	// retain-versions 1: the three refreshes leave live v4 + newest
	// non-live v3 on disk, with no promote in between.
	sketchDir := filepath.Join(store, "retained")
	for ver := 1; ver <= 4; ver++ {
		_, err := os.Stat(filepath.Join(sketchDir, fmt.Sprintf("v%d.dsk", ver)))
		if wantGone := ver <= 2; (err != nil) != wantGone {
			t.Errorf("v%d.dsk: err=%v, want gone=%v", ver, err, wantGone)
		}
	}

	e := srv.entryByName("imdb", "retained")
	e.adminMu.Lock()
	srv.applyRetention("imdb", e)
	e.adminMu.Unlock()
	// retain-wal-bytes 1: every checkpointed segment is pruned; only the
	// fresh active segment remains.
	if st := srv.wals["imdb"].Stats(); st.CheckpointSeq == 0 || st.Segments != 1 {
		t.Errorf("wal after retention: %+v, want checkpointed and pruned to the active segment", st)
	}

	// Restart over the pruned store: v3/v4 restore, v1/v2 are pruned gaps.
	srv2 := newServer(600, 300, 2)
	srv2.store = store
	if n, err := srv2.loadStore(); err != nil || n != 1 {
		t.Fatalf("restore over pruned store: n=%d err=%v", n, err)
	}
	h2 := srv2.routes()
	if _, ver, _ := entryState(t, h2, 1); ver != 4 {
		t.Fatalf("restored live version %d, want 4", ver)
	}
	vs, err := srv2.registries["imdb"].Versions("retained")
	if err != nil || len(vs) != 4 {
		t.Fatalf("restored history: %+v, %v", vs, err)
	}
	if !vs[0].Pruned || !vs[1].Pruned || vs[2].Pruned || vs[3].Pruned {
		t.Fatalf("pruned flags: %+v", vs)
	}
	// Rollback lands on the surviving v3, then refuses the pruned v2.
	if rec := post(t, h2, "/api/sketches/1/rollback", nil); rec.Code != http.StatusOK {
		t.Fatalf("rollback to surviving v3: %d %s", rec.Code, rec.Body)
	}
	rec := post(t, h2, "/api/sketches/1/rollback", nil)
	if rec.Code != http.StatusConflict || !strings.Contains(rec.Body.String(), "pruned") {
		t.Fatalf("rollback onto pruned v2: %d %s, want 409 mentioning pruned", rec.Code, rec.Body)
	}
	if rec := post(t, h2, "/api/estimate", estimateReq{SketchID: 1, SQL: "SELECT COUNT(*) FROM title t WHERE t.production_year>2000"}); rec.Code != http.StatusOK {
		t.Fatalf("estimate after pruned restore: %d %s", rec.Code, rec.Body)
	}
}
