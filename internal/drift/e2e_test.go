package drift

import (
	"context"
	"math"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"deepsketch/internal/core"
	"deepsketch/internal/datagen"
	"deepsketch/internal/db"
	"deepsketch/internal/estimator"
	"deepsketch/internal/lifecycle"
	"deepsketch/internal/metrics"
	"deepsketch/internal/mscn"
	"deepsketch/internal/router"
	"deepsketch/internal/serve"
	"deepsketch/internal/workload"
)

// TestDriftToPromotionEndToEnd is the acceptance test for the closed loop:
// a sketch trained on a narrow (single-table) workload faces drifted
// (join-heavy) traffic → the monitor's windowed median q-error trips →
// the controller warm-refreshes on a drifted delta workload and canaries
// the result at 10% → the comparative q-error gate promotes it to 100% —
// all under concurrent traffic with zero failed requests, and with no
// stale-version cache answers after the promotion.
func TestDriftToPromotionEndToEnd(t *testing.T) {
	d := datagen.IMDb(datagen.IMDbConfig{Seed: 93, Titles: 900, Keywords: 50, Companies: 25, Persons: 150})
	ctx := context.Background()

	// The base sketch covers every table but trained only on the keyword
	// subschema — the workload the paper's operator built it for. Drifted
	// traffic spans all tables, a query region the model has never seen.
	narrowGen, err := workload.NewGenerator(d, workload.GenConfig{
		Seed: 11, Count: 400, Tables: []string{"title", "movie_keyword", "keyword"},
		MaxJoins: 2, MaxPreds: 2, Dedup: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	narrow, err := workload.Label(d, narrowGen.Generate(), 2, nil)
	if err != nil {
		t.Fatal(err)
	}
	cfg := core.Config{
		Name: "imdb", SampleSize: 48, MaxJoins: 2, MaxPreds: 2, Seed: 5,
		Model: mscn.Config{HiddenUnits: 16, Epochs: 8, BatchSize: 32, Seed: 5},
	}
	base, err := core.BuildWithWorkload(d, cfg, narrow, nil)
	if err != nil {
		t.Fatal(err)
	}

	// The drifted workload the live traffic shifts to: join queries the
	// sketch has never seen. Probes drive traffic; the delta slice is what
	// the controller fine-tunes on.
	driftGen, err := workload.NewGenerator(d, workload.GenConfig{
		Seed: 12, Count: 500, MaxJoins: 2, MaxPreds: 2, Dedup: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	drifted, err := workload.Label(d, driftGen.Generate(), 2, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(drifted) < 300 {
		t.Fatalf("drifted workload too small: %d", len(drifted))
	}
	probes := drifted[:200]
	delta := drifted[200:]

	// Establish that the traffic really drifted: the base sketch's median
	// q-error on the probe distribution must be clearly degraded, and the
	// monitor threshold goes just under it so the trigger provably fires.
	maxCard := serve.MaxCardinality(d)
	qerrs := make([]float64, len(probes))
	for i, lq := range probes {
		c, err := base.Cardinality(lq.Query)
		if err != nil {
			t.Fatal(err)
		}
		c = math.Max(1, math.Min(c, maxCard))
		qerrs[i] = metrics.QError(c, float64(lq.Card))
	}
	primaryMedian := metrics.Summarize(qerrs).Median
	if primaryMedian < 1.5 {
		t.Fatalf("injected drift too weak: base median q-error %.2f on drifted probes — strengthen the fixture", primaryMedian)
	}
	threshold := math.Max(1.3, primaryMedian*0.8)

	// The serving stack the daemon would run: versioned registry, clamp,
	// drift observation below a version-keyed, generation-watched cache.
	reg := lifecycle.New()
	if _, err := reg.Publish("imdb", base); err != nil {
		t.Fatal(err)
	}
	mon := NewMonitor(Config{
		SampleEvery: 1, Window: 128, MinSamples: 30,
		MaxMedianQ: threshold, Cooldown: time.Hour, QueueSize: 4096,
	}, &estimator.Truth{DB: d})

	var evMu sync.Mutex
	var events []Event
	ctrl := NewController(reg, mon, ControllerConfig{
		CanaryFraction: 0.1, PromoteAfter: 8, MaxQRatio: 1.0,
		Epochs: 40, Synchronous: true,
		Synthetic: func(context.Context, string) ([]workload.LabeledQuery, error) { return delta, nil },
		OnEvent: func(ev Event) {
			evMu.Lock()
			events = append(events, ev)
			evMu.Unlock()
			if ev.Kind == "error" {
				t.Errorf("controller error event: %v", ev.Err)
			}
		},
	})

	// Version-aware keys alone keep the cache coherent across the whole
	// rollout (the daemon wires its stacks the same way): no generation
	// watching, no wholesale invalidation — a version transition remaps
	// exactly the affected queries' keys.
	cache := serve.NewCache(
		Observe(serve.Clamp(reg.Router(), maxCard), mon), 4096).
		KeyFunc(reg.Router().CacheKey)

	// Concurrent traffic for the whole drift → refresh → canary → promote
	// window. Zero failures allowed.
	probeQs := make([]db.Query, len(probes))
	for i, lq := range probes {
		probeQs[i] = lq.Query
	}
	var failures, requests atomic.Int64
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := g; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				requests.Add(1)
				if g == 3 {
					if _, err := cache.EstimateBatch(ctx, probeQs[:16]); err != nil {
						failures.Add(1)
						t.Error(err)
						return
					}
				} else if _, err := cache.Estimate(ctx, probeQs[i%len(probeQs)]); err != nil {
					failures.Add(1)
					t.Error(err)
					return
				}
			}
		}(g)
	}

	// Phase 1 — drifted traffic is observed, the median trigger fires, and
	// (controller synchronous) the warm refresh lands as a canary at 10%.
	for _, q := range probeQs {
		if _, err := cache.Estimate(ctx, q); err != nil {
			t.Fatal(err)
		}
	}
	mon.Drain(ctx)
	if cy := ctrl.Cycle("imdb"); cy.State != StateCanarying {
		t.Fatalf("after drain: controller state %q, want canarying (last error %q)", cy.State, cy.LastError)
	}
	ci, ok := reg.Canary("imdb")
	if !ok || ci.Version != 2 || ci.BaseVersion != 1 || ci.Fraction != 0.1 {
		t.Fatalf("canary = %+v ok=%v, want v2 at 10%% over v1", ci, ok)
	}
	if _, lv, _ := reg.Live("imdb"); lv != 1 {
		t.Fatalf("live version %d during canary, want 1", lv)
	}
	evMu.Lock()
	if len(events) < 2 || events[0].Kind != "refresh_started" || events[0].Reason.Kind != "median" ||
		events[1].Kind != "canary_started" || events[1].Version != 2 {
		t.Fatalf("events = %+v, want refresh_started(median) then canary_started(v2)", events)
	}
	evMu.Unlock()

	// Mid-canary: traffic splits deterministically — canary-split probes
	// answer from v2, the rest from v1, and the version-keyed cache keeps
	// both splits coherent.
	canaryProbes := 0
	for _, q := range probeQs {
		inCanary := router.CanarySplit(q.Signature(), 0.1)
		if inCanary {
			canaryProbes++
		}
		est, err := cache.Estimate(ctx, q)
		if err != nil {
			t.Fatal(err)
		}
		wantVer := 1
		if inCanary {
			wantVer = 2
		}
		if est.Version != wantVer {
			t.Errorf("mid-canary: probe version %d, want %d (canary=%v)", est.Version, wantVer, inCanary)
		}
	}
	if canaryProbes < 8 {
		t.Fatalf("only %d probes land in the 10%% canary split — the gate cannot reach PromoteAfter; widen the probe set", canaryProbes)
	}

	// Phase 2 — canary-split samples accumulate; the comparative gate
	// promotes.
	mon.Drain(ctx)
	if _, n, ok := mon.Summary("imdb", 2); !ok || n < 8 {
		t.Fatalf("canary window has %d samples (ok=%v), want ≥ 8", n, ok)
	}
	ctrl.Tick()
	if cy := ctrl.Cycle("imdb"); cy.State != StateIdle {
		t.Fatalf("after gate: controller state %q, want idle", cy.State)
	}
	if _, ok := reg.Canary("imdb"); ok {
		t.Fatal("canary still active after the gate")
	}
	promoted, lv, err := reg.Live("imdb")
	if err != nil || lv != 2 {
		t.Fatalf("live after gate = v%d, %v — canary was not promoted (its window median must beat the drifted primary's)", lv, err)
	}
	evMu.Lock()
	last := events[len(events)-1]
	evMu.Unlock()
	if last.Kind != "promoted" || last.Version != 2 {
		t.Fatalf("final event = %+v, want promoted v2", last)
	}

	close(stop)
	wg.Wait()
	if failures.Load() != 0 {
		t.Fatalf("%d of %d concurrent requests failed across the rollout", failures.Load(), requests.Load())
	}

	// Post-promotion: every answer (first request and cached repeat) must
	// be the promoted version's — no stale-version cache hits.
	for i, q := range probeQs {
		want, err := promoted.Cardinality(q)
		if err != nil {
			t.Fatal(err)
		}
		want = math.Max(1, math.Min(want, maxCard))
		est, err := cache.Estimate(ctx, q)
		if err != nil {
			t.Fatal(err)
		}
		if est.Cardinality != want || est.Version != 2 {
			t.Errorf("probe %d post-promotion: answer %v (v%d), want promoted %v (v2)", i, est.Cardinality, est.Version, want)
		}
		again, err := cache.Estimate(ctx, q)
		if err != nil {
			t.Fatal(err)
		}
		if again.Version != 2 || again.Cardinality != want {
			t.Errorf("probe %d cached repeat: answer %v (v%d), want promoted %v (v2)", i, again.Cardinality, again.Version, want)
		}
	}

	// The loop actually repaired the drift: the promoted version's window
	// median is at or under the primary's drifted median.
	canarySum, _, _ := mon.Summary("imdb", 2)
	primarySum, _, _ := mon.Summary("imdb", 1)
	if canarySum.Median > primarySum.Median {
		t.Errorf("promoted median %.2f > drifted primary median %.2f — gate promoted a regression", canarySum.Median, primarySum.Median)
	}
	t.Logf("drift loop: primary median %.2f (threshold %.2f) → refreshed median %.2f; %d requests, 0 failures; %d/%d probes in the 10%% canary split",
		primarySum.Median, threshold, canarySum.Median, requests.Load(), canaryProbes, len(probeQs))
}
