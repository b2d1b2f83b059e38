package drift

import (
	"context"
	"fmt"
	"testing"
	"time"

	"deepsketch/internal/db"
	"deepsketch/internal/estimator"
)

// constTruth returns a ground-truth estimator that always answers card.
func constTruth(card float64) estimator.Estimator {
	return estimator.Func{EstimatorName: "truth", Fn: func(db.Query) (float64, error) { return card, nil }}
}

func probeQuery(i int) db.Query {
	return db.Query{
		Tables: []db.TableRef{{Table: "title", Alias: "t"}},
		Preds:  []db.Predicate{{Alias: "t", Col: "production_year", Op: db.OpGt, Val: int64(i)}},
	}
}

func TestMonitorSamplingRate(t *testing.T) {
	m := NewMonitor(Config{SampleEvery: 3, MinSamples: 1000}, constTruth(100))
	for i := 0; i < 30; i++ {
		m.Observe("s", 1, probeQuery(i), 100)
	}
	if n := m.Drain(context.Background()); n != 10 {
		t.Errorf("SampleEvery=3 over 30 observations processed %d, want 10", n)
	}
	st := m.Status("s")
	if st.Observed != 30 || st.Sampled != 10 {
		t.Errorf("status observed/sampled = %d/%d, want 30/10", st.Observed, st.Sampled)
	}
	if len(st.Versions) != 1 || st.Versions[0].Samples != 10 {
		t.Errorf("version stats = %+v", st.Versions)
	}
}

func TestMonitorMedianTriggerAndCooldown(t *testing.T) {
	var fired []Reason
	m := NewMonitor(Config{
		SampleEvery: 1, Window: 16, MinSamples: 4,
		MaxMedianQ: 2.0, Cooldown: time.Hour,
	}, constTruth(100))
	m.OnTrigger(func(name string, r Reason) bool {
		if name != "s" {
			t.Errorf("trigger for %q", name)
		}
		fired = append(fired, r)
		return true
	})
	// Estimates 10x off truth: q-error 10, median way over 2.0.
	for i := 0; i < 8; i++ {
		m.Observe("s", 1, probeQuery(i), 1000)
	}
	m.Drain(context.Background())
	if len(fired) != 1 {
		t.Fatalf("fired %d triggers, want exactly 1 (cooldown suppresses the rest)", len(fired))
	}
	r := fired[0]
	if r.Kind != "median" || r.Version != 1 || r.Value <= 2.0 || r.Threshold != 2.0 {
		t.Errorf("reason = %+v", r)
	}
	st := m.Status("s")
	if st.LastTrigger == nil || st.LastTrigger.Kind != "median" {
		t.Errorf("status last trigger = %+v", st.LastTrigger)
	}
	if sum, n, ok := m.Summary("s", 1); !ok || n != 8 || sum.Median != 10 {
		t.Errorf("summary = %+v n=%d ok=%v", sum, n, ok)
	}
}

func TestMonitorP95Trigger(t *testing.T) {
	var fired []Reason
	m := NewMonitor(Config{
		SampleEvery: 1, Window: 32, MinSamples: 10,
		MaxP95Q: 5, Cooldown: time.Hour,
	}, constTruth(100))
	m.OnTrigger(func(_ string, r Reason) bool { fired = append(fired, r); return true })
	// Median stays 1 (estimate == truth), but every 10th estimate is 100x
	// off: the tail trips p95 without moving the median.
	for i := 0; i < 40; i++ {
		est := 100.0
		if i%10 == 9 {
			est = 10000
		}
		m.Observe("s", 2, probeQuery(i), est)
	}
	m.Drain(context.Background())
	if len(fired) != 1 || fired[0].Kind != "p95" || fired[0].Version != 2 {
		t.Fatalf("fired = %+v, want one p95 trigger for v2", fired)
	}
}

func TestMonitorStaleness(t *testing.T) {
	var fired []Reason
	m := NewMonitor(Config{
		SampleEvery: 1, MaxStaleness: time.Millisecond, Cooldown: time.Hour,
	}, constTruth(100))
	m.OnTrigger(func(_ string, r Reason) bool { fired = append(fired, r); return true })
	m.Observe("s", 1, probeQuery(1), 100) // creates the name, arms the clock
	m.CheckStaleness()
	if len(fired) != 0 {
		t.Fatal("staleness fired before the clock expired")
	}
	time.Sleep(5 * time.Millisecond)
	m.CheckStaleness()
	if len(fired) != 1 || fired[0].Kind != "staleness" {
		t.Fatalf("fired = %+v, want one staleness trigger", fired)
	}
	m.CheckStaleness() // cooldown suppresses
	if len(fired) != 1 {
		t.Errorf("cooldown did not suppress the repeat staleness trigger")
	}
	// MarkRefreshed resets the clock: after cooldown is the only suppressor
	// left, a refreshed sketch does not re-fire.
	m2 := NewMonitor(Config{SampleEvery: 1, MaxStaleness: time.Hour}, constTruth(100))
	m2.OnTrigger(func(_ string, r Reason) bool { t.Errorf("fresh sketch fired %+v", r); return true })
	m2.Observe("s", 1, probeQuery(1), 100)
	m2.MarkRefreshed("s")
	m2.CheckStaleness()
}

func TestMonitorQueueOverflowDrops(t *testing.T) {
	m := NewMonitor(Config{SampleEvery: 1, QueueSize: 4, MinSamples: 1000}, constTruth(100))
	for i := 0; i < 10; i++ {
		m.Observe("s", 1, probeQuery(i), 100)
	}
	if st := m.Status("s"); st.Dropped != 6 {
		t.Errorf("dropped = %d, want 6 (queue of 4, 10 sampled)", st.Dropped)
	}
	if n := m.Drain(context.Background()); n != 4 {
		t.Errorf("drained %d, want 4", n)
	}
}

func TestMonitorTruthFailuresCounted(t *testing.T) {
	failing := estimator.Func{EstimatorName: "truth", Fn: func(db.Query) (float64, error) {
		return 0, fmt.Errorf("backend down")
	}}
	m := NewMonitor(Config{SampleEvery: 1, MinSamples: 1}, failing)
	m.Observe("s", 1, probeQuery(1), 100)
	m.Drain(context.Background())
	st := m.Status("s")
	if st.TruthErrors != 1 {
		t.Errorf("truth errors = %d, want 1", st.TruthErrors)
	}
	if len(st.Versions) != 0 {
		t.Errorf("failed ground truth must not land in a window: %+v", st.Versions)
	}
}

// TestObserveMiddleware: computed estimates flow to the monitor with their
// serving version; cache hits and errors do not.
func TestObserveMiddleware(t *testing.T) {
	backend := &fakeEstimator{card: 500, version: 3}
	m := NewMonitor(Config{SampleEvery: 1, MinSamples: 1000}, constTruth(100))
	obs := Observe(backend, m)
	if obs.Name() != backend.Name() {
		t.Errorf("observer must be name-transparent")
	}
	ctx := context.Background()
	if _, err := obs.Estimate(ctx, probeQuery(1)); err != nil {
		t.Fatal(err)
	}
	backend.cacheHit = true
	if _, err := obs.Estimate(ctx, probeQuery(2)); err != nil {
		t.Fatal(err)
	}
	backend.cacheHit = false
	if _, err := obs.EstimateBatch(ctx, []db.Query{probeQuery(3), probeQuery(4)}); err != nil {
		t.Fatal(err)
	}
	m.Drain(ctx)
	st := m.Status("fake")
	if st.Observed != 3 {
		t.Errorf("observed = %d, want 3 (cache hit skipped)", st.Observed)
	}
	if len(st.Versions) != 1 || st.Versions[0].Version != 3 || st.Versions[0].Samples != 3 {
		t.Errorf("version stats = %+v, want 3 samples under v3", st.Versions)
	}
}

type fakeEstimator struct {
	card     float64
	version  int
	cacheHit bool
}

func (f *fakeEstimator) Name() string { return "fake" }

func (f *fakeEstimator) Estimate(_ context.Context, _ db.Query) (estimator.Estimate, error) {
	return estimator.Estimate{Cardinality: f.card, Source: "fake", Version: f.version, CacheHit: f.cacheHit}, nil
}

func (f *fakeEstimator) EstimateBatch(ctx context.Context, qs []db.Query) ([]estimator.Estimate, error) {
	out := make([]estimator.Estimate, len(qs))
	for i, q := range qs {
		out[i], _ = f.Estimate(ctx, q)
	}
	return out, nil
}
