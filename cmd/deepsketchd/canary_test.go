package main

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"slices"
	"testing"
	"time"

	"deepsketch"
)

func del(t *testing.T, h http.Handler, path string) *httptest.ResponseRecorder {
	t.Helper()
	req := httptest.NewRequest("DELETE", path, nil)
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	return rec
}

// entryState fetches the entry JSON fields the canary tests assert on.
func entryState(t *testing.T, h http.Handler, id int) (status string, version int, canary *deepsketch.SketchCanary) {
	t.Helper()
	rec := get(t, h, fmt.Sprintf("/api/sketches/%d", id))
	if rec.Code != 200 {
		t.Fatalf("get status %d: %s", rec.Code, rec.Body)
	}
	var st struct {
		Status  string                     `json:"status"`
		Version int                        `json:"version"`
		Canary  *deepsketch.SketchCanary   `json:"canary"`
		Vers    []deepsketch.SketchVersion `json:"versions"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &st); err != nil {
		t.Fatal(err)
	}
	return st.Status, st.Version, st.Canary
}

// TestCanaryEndpointsFlow drives the manual canary lifecycle over HTTP:
// refresh-into-canary at 50% → estimates split by version → re-fraction →
// promote → the canary serves 100% as the new live version. Then a second
// canary is aborted and the live version is untouched.
func TestCanaryEndpointsFlow(t *testing.T) {
	srv := testServer(t)
	h := srv.routes()
	id := buildReadySketch(t, h, "canary flow")

	// No canary yet: promote and abort conflict.
	if rec := post(t, h, fmt.Sprintf("/api/sketches/%d/promote", id), nil); rec.Code != http.StatusConflict {
		t.Fatalf("promote without canary: %d", rec.Code)
	}
	if rec := del(t, h, fmt.Sprintf("/api/sketches/%d/canary", id)); rec.Code != http.StatusConflict {
		t.Fatalf("abort without canary: %d", rec.Code)
	}

	// Refresh into a canary at 50%.
	rec := post(t, h, fmt.Sprintf("/api/sketches/%d/canary", id), map[string]any{
		"fraction": 0.5, "queries": 150, "epochs": 1, "workers": 2,
	})
	if rec.Code != http.StatusAccepted {
		t.Fatalf("canary start: %d %s", rec.Code, rec.Body)
	}
	awaitStatus(t, h, id, "canarying")
	status, version, canary := entryState(t, h, id)
	if status != "canarying" || version != 1 {
		t.Fatalf("mid-canary entry: status=%s version=%d", status, version)
	}
	if canary == nil || canary.Version != 2 || canary.BaseVersion != 1 || canary.Fraction != 0.5 {
		t.Fatalf("mid-canary info: %+v", canary)
	}

	// A second canary while one is active conflicts (not a fraction-only
	// adjust — it carries build params but the active canary absorbs it as
	// a re-fraction, which is the documented behaviour).
	rec = post(t, h, fmt.Sprintf("/api/sketches/%d/canary", id), map[string]any{"fraction": 0.8})
	if rec.Code != http.StatusOK {
		t.Fatalf("re-fraction: %d %s", rec.Code, rec.Body)
	}
	if _, _, canary = entryState(t, h, id); canary == nil || canary.Fraction != 0.8 {
		t.Fatalf("after re-fraction: %+v", canary)
	}

	// Estimates during the canary carry the version the split selects.
	sawV1, sawV2 := false, false
	sqls := []string{
		"SELECT COUNT(*) FROM title t WHERE t.production_year>1990",
		"SELECT COUNT(*) FROM title t WHERE t.production_year>2000",
		"SELECT COUNT(*) FROM title t WHERE t.production_year>2005",
		"SELECT COUNT(*) FROM title t WHERE t.production_year<1990",
		"SELECT COUNT(*) FROM title t WHERE t.kind_id=1",
		"SELECT COUNT(*) FROM title t WHERE t.kind_id=2",
	}
	for _, sql := range sqls {
		rec := post(t, h, "/api/estimate", estimateReq{SketchID: id, SQL: sql})
		if rec.Code != 200 {
			t.Fatalf("estimate: %d %s", rec.Code, rec.Body)
		}
		var out struct {
			Version int `json:"version"`
		}
		if err := json.Unmarshal(rec.Body.Bytes(), &out); err != nil {
			t.Fatal(err)
		}
		switch out.Version {
		case 1:
			sawV1 = true
		case 2:
			sawV2 = true
		default:
			t.Fatalf("estimate version %d", out.Version)
		}
	}
	if !sawV1 || !sawV2 {
		t.Errorf("80%% canary over %d queries hit v1=%v v2=%v — want both splits exercised", len(sqls), sawV1, sawV2)
	}

	// Promote: v2 serves everything.
	rec = post(t, h, fmt.Sprintf("/api/sketches/%d/promote", id), nil)
	if rec.Code != http.StatusOK {
		t.Fatalf("promote: %d %s", rec.Code, rec.Body)
	}
	status, version, canary = entryState(t, h, id)
	if status != "ready" || version != 2 || canary != nil {
		t.Fatalf("post-promote: status=%s version=%d canary=%+v", status, version, canary)
	}
	for _, sql := range sqls {
		rec := post(t, h, "/api/estimate", estimateReq{SketchID: id, SQL: sql})
		var out struct {
			Version int `json:"version"`
		}
		if err := json.Unmarshal(rec.Body.Bytes(), &out); err != nil {
			t.Fatal(err)
		}
		if out.Version != 2 {
			t.Errorf("post-promote estimate answered by v%d, want 2", out.Version)
		}
	}

	// Second canary: aborted; live stays at v2, history keeps v3.
	rec = post(t, h, fmt.Sprintf("/api/sketches/%d/canary", id), map[string]any{
		"fraction": 0.3, "queries": 120, "epochs": 1, "workers": 2,
	})
	if rec.Code != http.StatusAccepted {
		t.Fatalf("second canary: %d %s", rec.Code, rec.Body)
	}
	awaitStatus(t, h, id, "canarying")
	rec = del(t, h, fmt.Sprintf("/api/sketches/%d/canary", id))
	if rec.Code != http.StatusOK {
		t.Fatalf("abort: %d %s", rec.Code, rec.Body)
	}
	status, version, canary = entryState(t, h, id)
	if status != "ready" || version != 2 || canary != nil {
		t.Fatalf("post-abort: status=%s version=%d canary=%+v", status, version, canary)
	}
	vs, err := srv.registries["imdb"].Versions("canary flow")
	if err != nil || len(vs) != 3 || !vs[1].Live {
		t.Fatalf("history after abort: %+v, %v", vs, err)
	}

	// Drift endpoint responds with monitor + cycle state.
	rec = get(t, h, fmt.Sprintf("/api/sketches/%d/drift", id))
	if rec.Code != 200 {
		t.Fatalf("drift endpoint: %d %s", rec.Code, rec.Body)
	}
	var drift struct {
		Monitor deepsketch.DriftStatus      `json:"monitor"`
		Cycle   deepsketch.DriftCycleStatus `json:"cycle"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &drift); err != nil {
		t.Fatal(err)
	}
	if drift.Cycle.State != "idle" {
		t.Errorf("drift cycle state %q, want idle (manual canaries are not controller cycles)", drift.Cycle.State)
	}
	if drift.Monitor.Observed == 0 {
		t.Errorf("monitor observed no estimates despite the estimate traffic above")
	}
}

// TestCanaryEndpointNotFoundAndBadFraction covers the error surface.
func TestCanaryEndpointNotFoundAndBadFraction(t *testing.T) {
	srv := testServer(t)
	h := srv.routes()
	if rec := post(t, h, "/api/sketches/99/canary", map[string]any{"fraction": 0.5}); rec.Code != http.StatusNotFound {
		t.Errorf("canary on unknown id: %d", rec.Code)
	}
	if rec := get(t, h, "/api/sketches/99/drift"); rec.Code != http.StatusNotFound {
		t.Errorf("drift on unknown id: %d", rec.Code)
	}
	id := buildReadySketch(t, h, "fraction checks")
	if rec := post(t, h, fmt.Sprintf("/api/sketches/%d/canary", id), map[string]any{"fraction": 1.5}); rec.Code != http.StatusBadRequest {
		t.Errorf("fraction 1.5: %d", rec.Code)
	}
	if rec := post(t, h, fmt.Sprintf("/api/sketches/%d/canary", id), map[string]any{"fraction": -0.1}); rec.Code != http.StatusBadRequest {
		t.Errorf("fraction -0.1: %d", rec.Code)
	}
}

// TestCycleInFlightConflicts: while the controller runs a cycle for a
// sketch — here one held open on its workload source — every other way of
// changing the sketch's version conflicts with 409, whoever started the
// cycle, and a drift trigger is declined without burning its cooldown.
func TestCycleInFlightConflicts(t *testing.T) {
	srv := newServerOpts(serverOptions{
		titles: 600, orders: 300, seed: 2, driftTruth: true,
		driftCfg: deepsketch.DriftConfig{
			SampleEvery: 1, Window: 64, MinSamples: 6,
			MaxMedianQ: 1.01, Cooldown: time.Hour, QueueSize: 4096,
		},
	})
	h := srv.routes()
	id := buildReadySketch(t, h, "busy")
	blob := get(t, h, fmt.Sprintf("/api/sketches/%d/download", id)).Body.Bytes()

	release := make(chan struct{})
	err := srv.controllers["imdb"].Start("busy", deepsketch.DriftCycleOptions{
		Reason: deepsketch.DriftReason{Kind: "operator"}, Epochs: 1,
		Workload: func(ctx context.Context, name string) ([]deepsketch.LabeledQuery, error) {
			<-release
			return srv.syntheticSource("imdb", refreshReq{Queries: 80})(ctx, name)
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if status, _, _ := entryState(t, h, id); status != "refreshing" {
		t.Fatalf("entry is %q with a cycle in flight", status)
	}
	path := fmt.Sprintf("/api/sketches/%d", id)
	for what, rec := range map[string]*httptest.ResponseRecorder{
		"refresh":  post(t, h, path+"/refresh", refreshReq{}),
		"canary":   post(t, h, path+"/canary", map[string]any{"fraction": 0.5}),
		"upload":   put(t, h, path, blob),
		"rollback": post(t, h, path+"/rollback", nil),
	} {
		if rec.Code != http.StatusConflict {
			t.Errorf("%s during a cycle: %d %s, want 409", what, rec.Code, rec.Body)
		}
	}

	// Drifted traffic meanwhile: the trigger fires and is declined.
	for year := 1960; year < 2020; year += 5 {
		sql := fmt.Sprintf("SELECT COUNT(*) FROM title t WHERE t.production_year>%d", year)
		if rec := post(t, h, "/api/estimate", estimateReq{SketchID: id, SQL: sql}); rec.Code != http.StatusOK {
			t.Fatalf("estimate: %d %s", rec.Code, rec.Body)
		}
	}
	srv.monitors["imdb"].Drain(context.Background())
	cy, mon := driftView(t, h, id)
	if cy.State != "refreshing" || cy.Reason == nil || cy.Reason.Kind != "operator" {
		t.Fatalf("cycle = %+v, want the operator's still in flight", cy)
	}
	if len(mon.Versions) == 0 || mon.Versions[0].Samples < 6 || mon.LastTrigger != nil {
		t.Fatalf("monitor = %+v, want the threshold tripped but no trigger consumed", mon)
	}

	close(release)
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	if status, version, _ := entryState(t, h, id); status != "ready" || version != 2 {
		t.Fatalf("after the cycle: %s v%d, want ready v2", status, version)
	}
}

// TestGateJudgesOperatorCanary: an operator-started canary is a controller
// cycle like any other, so with the automatic loop running its gate
// promotes (or aborts) it — not only after a restart had adopted it.
func TestGateJudgesOperatorCanary(t *testing.T) {
	srv := newServerOpts(serverOptions{
		titles: 600, orders: 300, seed: 2, driftTruth: true,
		driftCfg: deepsketch.DriftConfig{SampleEvery: 1, Window: 64, QueueSize: 4096},
		ctrlCfg:  deepsketch.DriftControllerConfig{PromoteAfter: 3, MaxQRatio: 100},
	})
	h := srv.routes()
	id := buildReadySketch(t, h, "gated")
	rec := post(t, h, fmt.Sprintf("/api/sketches/%d/canary", id), map[string]any{
		"fraction": 0.5, "queries": 120, "epochs": 1, "workers": 2,
	})
	if rec.Code != http.StatusAccepted {
		t.Fatalf("canary: %d %s", rec.Code, rec.Body)
	}
	awaitStatus(t, h, id, "canarying")
	if cy, _ := driftView(t, h, id); cy.State != "canarying" || cy.CanaryVer != 2 {
		t.Fatalf("cycle = %+v, want the operator's canary under the gate", cy)
	}
	// Traffic on both sides of the split, ground-truthed; then one gate pass.
	for year := 1900; year < 2020; year += 3 {
		sql := fmt.Sprintf("SELECT COUNT(*) FROM title t WHERE t.production_year>%d", year)
		if rec := post(t, h, "/api/estimate", estimateReq{SketchID: id, SQL: sql}); rec.Code != http.StatusOK {
			t.Fatalf("estimate: %d %s", rec.Code, rec.Body)
		}
	}
	srv.monitors["imdb"].Drain(context.Background())
	srv.controllers["imdb"].Tick()
	if status, version, canary := entryState(t, h, id); status != "ready" || version != 2 || canary != nil {
		t.Fatalf("after the gate: %s v%d canary %+v, want promoted to ready v2", status, version, canary)
	}
}

// TestTemplateAnswersFromLive: POST /api/template reports the version that
// answered next to its points, and that version is the live one
// (Registry.Live): a canary taking every estimate never answers a template
// until it is promoted.
func TestTemplateAnswersFromLive(t *testing.T) {
	srv := testServer(t)
	h := srv.routes()
	id := buildReadySketch(t, h, "template version")
	template := func() (int, []float64) {
		t.Helper()
		rec := post(t, h, "/api/template", templateReq{
			SketchID: id, SQL: "SELECT COUNT(*) FROM title t WHERE t.production_year=?", Group: "buckets", Buckets: 4,
		})
		if rec.Code != http.StatusOK {
			t.Fatalf("template status %d: %s", rec.Code, rec.Body)
		}
		var out struct {
			Version int `json:"version"`
			Points  []struct {
				Est float64 `json:"deep_sketch"`
			} `json:"points"`
		}
		if err := json.Unmarshal(rec.Body.Bytes(), &out); err != nil {
			t.Fatal(err)
		}
		ests := make([]float64, len(out.Points))
		for i, p := range out.Points {
			ests[i] = p.Est
		}
		return out.Version, ests
	}
	ver, live := template()
	if ver != 1 || len(live) != 4 {
		t.Fatalf("fresh sketch's template: version %d, %d points; want version 1, 4 points", ver, len(live))
	}

	rec := post(t, h, fmt.Sprintf("/api/sketches/%d/canary", id), map[string]any{
		"fraction": 1.0, "queries": 150, "epochs": 1, "workers": 2,
	})
	if rec.Code != http.StatusAccepted {
		t.Fatalf("canary start: %d %s", rec.Code, rec.Body)
	}
	awaitStatus(t, h, id, "canarying")
	rec = post(t, h, "/api/estimate", estimateReq{SketchID: id, SQL: "SELECT COUNT(*) FROM title t WHERE t.kind_id=1"})
	var est struct {
		Version int `json:"version"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &est); err != nil || est.Version != 2 {
		t.Fatalf("estimate under a 100%% canary: version %d (%v), want 2: %s", est.Version, err, rec.Body)
	}
	ver, during := template()
	if ver != 1 || !slices.Equal(during, live) {
		t.Fatalf("template under a 100%% canary: version %d, points %v; want version 1's %v", ver, during, live)
	}

	if rec := post(t, h, fmt.Sprintf("/api/sketches/%d/promote", id), nil); rec.Code != http.StatusOK {
		t.Fatalf("promote: %d %s", rec.Code, rec.Body)
	}
	if ver, _ := template(); ver != 2 {
		t.Fatalf("template after promoting the canary: version %d, want 2", ver)
	}
}
