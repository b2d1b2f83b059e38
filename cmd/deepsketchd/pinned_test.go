package main

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"deepsketch"
)

// Tests for the pinned-benchmark rail's daemon threading: boot-time
// generate/persist/reload of the frozen per-dataset workloads, the drift
// endpoint's rail fields, and the full daemon-level rejection of a
// refresh candidate trained on poisoned logged actuals.

func pinnedServer(pinnedDir string, maxRegress float64, driftCfg deepsketch.DriftConfig, ctrlCfg deepsketch.DriftControllerConfig, walDir string) *server {
	return newServerOpts(serverOptions{
		titles: 600, orders: 300, seed: 2,
		driftCfg: driftCfg, ctrlCfg: ctrlCfg,
		walDir: walDir, driftTruth: false,
		pinnedDir: pinnedDir, pinnedMaxRegress: maxRegress,
	})
}

func TestPinnedBenchmarkBootPersistence(t *testing.T) {
	dir := t.TempDir()

	// First boot generates, labels and atomically persists one benchmark
	// per dataset.
	srv := pinnedServer(dir, 1.25, deepsketch.DriftConfig{}, deepsketch.DriftControllerConfig{}, "")
	blobs := map[string][]byte{}
	for _, dataset := range []string{"imdb", "tpch"} {
		pb := srv.pinned[dataset]
		if pb == nil || pb.Len() == 0 {
			t.Fatalf("no pinned benchmark for %s after boot", dataset)
		}
		path := filepath.Join(dir, dataset+".workload")
		blob, err := os.ReadFile(path)
		if err != nil {
			t.Fatalf("pinned benchmark for %s was not persisted: %v", dataset, err)
		}
		blobs[dataset] = blob
		if _, err := os.Stat(path + ".tmp"); !os.IsNotExist(err) {
			t.Errorf("temp file left behind for %s", dataset)
		}
	}

	// Second boot loads the files instead of regenerating: same contents on
	// disk, same benchmark in memory — the judgment set is frozen.
	srv2 := pinnedServer(dir, 1.25, deepsketch.DriftConfig{}, deepsketch.DriftControllerConfig{}, "")
	for _, dataset := range []string{"imdb", "tpch"} {
		if got, want := srv2.pinned[dataset].Len(), srv.pinned[dataset].Len(); got != want {
			t.Errorf("%s benchmark reloaded with %d queries, want %d", dataset, got, want)
		}
		blob, err := os.ReadFile(filepath.Join(dir, dataset+".workload"))
		if err != nil {
			t.Fatal(err)
		}
		if string(blob) != string(blobs[dataset]) {
			t.Errorf("%s benchmark file changed across a reboot — it must stay frozen", dataset)
		}
	}

	// The drift endpoint reports the rail configuration.
	h := srv.routes()
	id := buildReadySketch(t, h, "pinned boot")
	rec := get(t, h, fmt.Sprintf("/api/sketches/%d/drift", id))
	if rec.Code != http.StatusOK {
		t.Fatalf("drift endpoint: %d %s", rec.Code, rec.Body)
	}
	var resp struct {
		PinnedSize       int     `json:"pinned_size"`
		PinnedMaxRegress float64 `json:"pinned_max_regress"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if resp.PinnedSize != srv.pinned["imdb"].Len() || resp.PinnedMaxRegress != 1.25 {
		t.Errorf("drift endpoint rail fields = %+v, want size %d tolerance 1.25", resp, srv.pinned["imdb"].Len())
	}

	// The rail judges every refresh candidate — an operator's too, not only
	// a drift trigger's. Whatever the verdict on this tiny fixture, there
	// must be one on record once the operator's refresh has run.
	if rec := post(t, h, fmt.Sprintf("/api/sketches/%d/refresh", id), refreshReq{Queries: 80, Epochs: 1}); rec.Code != http.StatusAccepted {
		t.Fatalf("refresh: %d %s", rec.Code, rec.Body)
	}
	if err := srv.Close(); err != nil { // joins the cycle
		t.Fatal(err)
	}
	cy, _ := driftView(t, h, id)
	if cy.State != "idle" || cy.Pinned == nil {
		t.Fatalf("operator refresh was not judged by the pinned rail: %+v", cy)
	}
	if status, version, _ := entryState(t, h, id); status != "ready" || (version == 2) != cy.Pinned.Pass {
		t.Errorf("entry %s v%d after a rail verdict pass=%v", status, version, cy.Pinned.Pass)
	}
}

// TestPinnedRailRejectsPoisonedRefresh is the daemon-level counterpart of
// the attack package's headline E2E: clients POST actuals inflated 1000×
// over truth, the drift trigger fires, the refresh trains on the poisoned
// WAL-derived workload — and the rail rejects the candidate before any
// canary, leaving v1 serving with the rejection surfaced on the entry and
// the drift endpoint.
func TestPinnedRailRejectsPoisonedRefresh(t *testing.T) {
	dir := t.TempDir()
	pinnedDir, walDir := filepath.Join(dir, "pinned"), filepath.Join(dir, "wal")
	driftCfg := deepsketch.DriftConfig{
		SampleEvery: 1, Window: 64, MinSamples: 6,
		MaxMedianQ: 1.5, Cooldown: time.Hour, QueueSize: 4096,
	}
	ctrlCfg := deepsketch.DriftControllerConfig{
		CanaryFraction: 0.5, PromoteAfter: 3, MaxQRatio: 100,
		Epochs: 40,
	}
	srv := pinnedServer(pinnedDir, 1.25, driftCfg, ctrlCfg, walDir)
	h := srv.routes()
	id := buildReadySketch(t, h, "poison target")
	ctx := context.Background()
	d := srv.datasets["imdb"]

	sqls := make([]string, 0, 40)
	for i := 0; i < 40; i++ {
		sqls = append(sqls, fmt.Sprintf("SELECT COUNT(*) FROM title t WHERE t.production_year>%d", 1900+3*i))
	}
	for _, sql := range sqls {
		if rec := post(t, h, "/api/estimate", estimateReq{SketchID: id, SQL: sql}); rec.Code != http.StatusOK {
			t.Fatalf("estimate: %d %s", rec.Code, rec.Body)
		}
	}
	srv.monitors["imdb"].Drain(ctx)
	for _, sql := range sqls {
		q, err := deepsketch.ParseSQL(d, sql)
		if err != nil {
			t.Fatal(err)
		}
		tc, err := deepsketch.TrueCardinality(d, q)
		if err != nil {
			t.Fatal(err)
		}
		// The poison: every reported actual is 1000× the truth, dragging the
		// windows over the trigger AND corrupting the WAL-derived labels.
		if rec := postActual(t, h, id, sql, float64(tc)*1000, "mallory"); rec.Code != http.StatusOK {
			t.Fatalf("actual: %d %s", rec.Code, rec.Body)
		}
	}

	// The trigger fired; the asynchronous refresh must end in a pinned
	// rejection, never a canary.
	deadline := time.Now().Add(60 * time.Second)
	for {
		cy := srv.controllers["imdb"].Cycle("poison target")
		if cy.Pinned != nil && cy.State == "idle" {
			if cy.Pinned.Pass {
				t.Fatalf("rail passed a candidate trained on 1000×-poisoned labels: %+v", cy.Pinned)
			}
			break
		}
		if cy.State == "idle" && cy.LastError != "" {
			t.Fatalf("drift cycle failed instead of judging: %s", cy.LastError)
		}
		if _, ok := srv.registries["imdb"].Canary("poison target"); ok {
			t.Fatal("a canary started for the poisoned candidate — the rail must judge first")
		}
		if time.Now().After(deadline) {
			t.Fatalf("rail never judged; cycle=%+v monitor=%+v", cy, srv.monitors["imdb"].Status("poison target"))
		}
		time.Sleep(20 * time.Millisecond)
	}

	// v1 serves untouched and the rejection is surfaced.
	status, version, canary := entryState(t, h, id)
	if version != 1 || canary != nil || status != "ready" {
		t.Fatalf("entry after rejection: status=%s version=%d canary=%+v, want ready v1 no canary", status, version, canary)
	}
	rec := get(t, h, fmt.Sprintf("/api/sketches/%d", id))
	var entry struct {
		Error string `json:"error"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &entry); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(entry.Error, "pinned") {
		t.Errorf("entry error = %q, want the pinned rejection surfaced", entry.Error)
	}
	rec = get(t, h, fmt.Sprintf("/api/sketches/%d/drift", id))
	var driftResp struct {
		Cycle struct {
			Pinned *deepsketch.PinnedResult `json:"pinned"`
		} `json:"cycle"`
		PinnedSize int `json:"pinned_size"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &driftResp); err != nil {
		t.Fatal(err)
	}
	if driftResp.Cycle.Pinned == nil || driftResp.Cycle.Pinned.Pass || driftResp.PinnedSize == 0 {
		t.Errorf("drift endpoint after rejection = %s", rec.Body.Bytes())
	}
	// The rail judged the model the adversary actually steered: the
	// candidate was trained on the poisoned WAL, not on a synthetic workload.
	if cy, _ := driftView(t, h, id); cy.Source != "wal" || cy.Count < minObserved {
		t.Errorf("rejected candidate trained on %q workload of %d queries, want wal with >= %d", cy.Source, cy.Count, minObserved)
	}
}
