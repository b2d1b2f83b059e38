package main

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"testing"
	"time"

	"deepsketch"
)

// TestAutoDriftLoopDaemon exercises the daemon's automatic loop glue: live
// estimate traffic feeds the per-dataset monitor, a trigger starts a
// controller cycle that refreshes into a canary over a daemon-generated
// delta workload, the gate promotes, and the entry mirrors every
// transition. The monitor queue and gate are driven explicitly (Drain and
// Tick) instead of background loops, keeping the test deterministic.
func TestAutoDriftLoopDaemon(t *testing.T) {
	srv := newServerOpts(serverOptions{
		titles: 800, orders: 400, seed: 3, driftTruth: true,
		driftCfg: deepsketch.DriftConfig{
			// Sample everything, judge after 6 samples, and treat any median
			// q-error above 1.01 as drift — a deliberately hair-trigger
			// config so the tiny fixture sketch provably trips it.
			SampleEvery: 1, Window: 64, MinSamples: 6,
			MaxMedianQ: 1.01, Cooldown: time.Hour, QueueSize: 4096,
		},
		ctrlCfg: deepsketch.DriftControllerConfig{
			// The gate is intentionally lax (ratio 100): this test is about
			// the daemon wiring, not the gate's judgement — the drift
			// package's e2e test covers that.
			CanaryFraction: 0.5, PromoteAfter: 3, MaxQRatio: 100,
			Epochs: 1,
		},
	})
	h := srv.routes()
	id := buildReadySketch(t, h, "auto drift")
	ctx := context.Background()

	sqls := make([]string, 0, 12)
	for year := 1960; year < 2020; year += 5 {
		sqls = append(sqls, fmt.Sprintf("SELECT COUNT(*) FROM title t WHERE t.production_year>%d", year))
	}
	traffic := func() {
		t.Helper()
		for _, sql := range sqls {
			rec := post(t, h, "/api/estimate", estimateReq{SketchID: id, SQL: sql})
			if rec.Code != http.StatusOK {
				t.Fatalf("estimate: %d %s", rec.Code, rec.Body)
			}
		}
	}

	// Phase 1: traffic + drain until the trigger fires and the controller's
	// background cycle lands the canary.
	traffic()
	srv.monitors["imdb"].Drain(ctx)
	deadline := time.Now().Add(60 * time.Second)
	for {
		if _, ok := srv.registries["imdb"].Canary("auto drift"); ok {
			break
		}
		if cy := srv.controllers["imdb"].Cycle("auto drift"); cy.State == "idle" && cy.LastError != "" {
			t.Fatalf("drift cycle failed: %s", cy.LastError)
		}
		if time.Now().After(deadline) {
			t.Fatalf("no canary appeared; cycle=%+v monitor=%+v",
				srv.controllers["imdb"].Cycle("auto drift"), srv.monitors["imdb"].Status("auto drift"))
		}
		time.Sleep(20 * time.Millisecond)
	}
	awaitStatus(t, h, id, "canarying")

	// Phase 2: more traffic so canary-split samples accumulate, then let
	// the gate judge. The lax ratio guarantees promotion.
	deadline = time.Now().Add(60 * time.Second)
	for {
		traffic()
		srv.monitors["imdb"].Drain(ctx)
		srv.controllers["imdb"].Tick()
		status, version, canary := entryState(t, h, id)
		if status == "ready" && version == 2 && canary == nil {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("canary never promoted; status=%s version=%d canary=%+v cycle=%+v",
				status, version, canary, srv.controllers["imdb"].Cycle("auto drift"))
		}
		time.Sleep(20 * time.Millisecond)
	}

	// The drift endpoint reflects the completed loop: a trigger on record,
	// windows for both versions, cycle back to idle.
	rec := get(t, h, fmt.Sprintf("/api/sketches/%d/drift", id))
	if rec.Code != http.StatusOK {
		t.Fatalf("drift endpoint: %d %s", rec.Code, rec.Body)
	}
	var out struct {
		Monitor deepsketch.DriftStatus      `json:"monitor"`
		Cycle   deepsketch.DriftCycleStatus `json:"cycle"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &out); err != nil {
		t.Fatal(err)
	}
	if out.Monitor.LastTrigger == nil || out.Monitor.LastTrigger.Kind != "median" {
		t.Errorf("last trigger = %+v, want a median trigger", out.Monitor.LastTrigger)
	}
	if len(out.Monitor.Versions) < 2 {
		t.Errorf("monitor windows = %+v, want both versions observed", out.Monitor.Versions)
	}
	if out.Cycle.State != "idle" {
		t.Errorf("cycle state %q after promotion, want idle", out.Cycle.State)
	}
	// No -wal: there is no observed traffic to wait for, so the cycle
	// trained on a synthetic workload at once — and says so.
	if out.Cycle.Source != "synthetic" || out.Cycle.Count == 0 || out.Cycle.Shortfall != nil {
		t.Errorf("cycle workload = %+v, want a synthetic workload with no shortfall", out.Cycle.WorkloadInfo)
	}
}
