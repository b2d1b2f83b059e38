package drift

import (
	"context"
	"strings"
	"sync"
	"testing"
	"time"

	"deepsketch/internal/core"
	"deepsketch/internal/datagen"
	"deepsketch/internal/db"
	"deepsketch/internal/lifecycle"
	"deepsketch/internal/mscn"
	"deepsketch/internal/workload"
)

// cycleFixture is a tiny published sketch plus a labeled workload to
// refresh it on — enough for a controller cycle to run for real.
var cycleFixture struct {
	once    sync.Once
	d       *db.DB
	base    *core.Sketch
	labeled []workload.LabeledQuery
	err     error
}

// eventLog collects a controller's events; cycles deliver them from their
// own goroutines unless the controller is Synchronous.
type eventLog struct {
	mu     sync.Mutex
	events []Event
}

func (l *eventLog) add(ev Event) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.events = append(l.events, ev)
}

// kinds lists the delivered events' kinds in order, comma-separated.
func (l *eventLog) kinds() string {
	l.mu.Lock()
	defer l.mu.Unlock()
	out := make([]string, len(l.events))
	for i, ev := range l.events {
		out[i] = ev.Kind
	}
	return strings.Join(out, ",")
}

// newCycleStack publishes the fixture sketch as "s" in a fresh registry and
// wires a monitor whose every resolved sample exceeds the median threshold.
func newCycleStack(t *testing.T, cfg ControllerConfig) (*Monitor, *Controller, *eventLog) {
	t.Helper()
	f := &cycleFixture
	f.once.Do(func() {
		f.d = datagen.IMDb(datagen.IMDbConfig{Seed: 7, Titles: 400, Keywords: 20, Companies: 10, Persons: 60})
		gen, err := workload.NewGenerator(f.d, workload.GenConfig{Seed: 3, Count: 120, MaxJoins: 1, MaxPreds: 2, Dedup: true})
		if err != nil {
			f.err = err
			return
		}
		if f.labeled, f.err = workload.Label(f.d, gen.Generate(), 2, nil); f.err != nil {
			return
		}
		f.base, f.err = core.BuildWithWorkload(f.d, core.Config{
			Name: "s", SampleSize: 16, MaxJoins: 1, MaxPreds: 2, Seed: 3,
			Model: mscn.Config{HiddenUnits: 8, Epochs: 1, BatchSize: 32, Seed: 3},
		}, f.labeled, nil)
	})
	if f.err != nil {
		t.Fatal(f.err)
	}
	reg := lifecycle.New()
	if _, err := reg.Publish("s", f.base); err != nil {
		t.Fatal(err)
	}
	mon := NewMonitor(Config{SampleEvery: 1, Window: 16, MinSamples: 2, MaxMedianQ: 2, Cooldown: time.Hour}, nil)
	events := &eventLog{}
	cfg.Epochs = 1
	cfg.OnEvent = events.add
	return mon, NewController(reg, mon, cfg), events
}

// overThreshold resolves n samples 10× off for version 1 of "s"; each one
// past MinSamples offers the controller a median trigger.
func overThreshold(mon *Monitor, n int) {
	for i := 0; i < n; i++ {
		mon.Observe("s", 1, probeQuery(1000+i), 1000)
		mon.Drain(context.Background())
		mon.ResolveActual("s", probeQuery(1000+i).Signature(), 100)
	}
}

// TestTriggerWorkloadSourceDecision walks the controller's one decision —
// which workload a triggered cycle trains on — through every branch, and
// checks that each outcome is recorded where an operator can see it.
func TestTriggerWorkloadSourceDecision(t *testing.T) {
	synthetic := func(context.Context, string) ([]workload.LabeledQuery, error) { return cycleFixture.labeled, nil }

	t.Run("no observed source: synthetic at once", func(t *testing.T) {
		mon, ctrl, events := newCycleStack(t, ControllerConfig{Synchronous: true, Synthetic: synthetic})
		overThreshold(mon, 2)
		cy := ctrl.Cycle("s")
		if cy.State != StateCanarying || cy.Source != SourceSynthetic || cy.Count != len(cycleFixture.labeled) || cy.Shortfall != nil || cy.Deferred != nil {
			t.Fatalf("cycle = %+v, want canarying on the full synthetic workload", cy)
		}
		if got := events.kinds(); got != "refresh_started,canary_started" {
			t.Fatalf("events = %s", got)
		}
		if ctrl.ObservedCycles() != 0 {
			t.Errorf("a synthetic cycle counted as observed")
		}
	})

	t.Run("short evidence: declined, then wal once it arrives", func(t *testing.T) {
		have := 5
		mon, ctrl, events := newCycleStack(t, ControllerConfig{
			Synchronous: true, Synthetic: synthetic,
			Observed: func(string) []workload.LabeledQuery { return cycleFixture.labeled[:have] },
		})
		overThreshold(mon, 4) // three triggers offered, all declined
		cy := ctrl.Cycle("s")
		if cy.State != StateIdle || cy.Source != "" || cy.Deferred == nil || cy.Deferred.Have != 5 || cy.Deferred.Want != MinObserved {
			t.Fatalf("cycle = %+v, want idle with the shortfall deferred", cy)
		}
		if got := events.kinds(); got != "" {
			t.Fatalf("events = %s, want none — a declined trigger starts nothing", got)
		}
		if st := mon.Status("s"); st.LastTrigger != nil {
			t.Fatalf("declined trigger stamped the cooldown: %+v", st.LastTrigger)
		}
		have = MinObserved
		overThreshold(mon, 1)
		cy = ctrl.Cycle("s")
		if cy.State != StateCanarying || cy.Source != SourceWAL || cy.Count != MinObserved || cy.Deferred != nil {
			t.Fatalf("cycle = %+v, want canarying on the observed workload", cy)
		}
		if st := mon.Status("s"); st.LastTrigger == nil {
			t.Fatal("accepted trigger did not stamp the cooldown")
		}
		if ctrl.ObservedCycles() != 1 {
			t.Errorf("ObservedCycles = %d, want 1", ctrl.ObservedCycles())
		}
	})

	t.Run("deadline passed: explicit synthetic fallback", func(t *testing.T) {
		mon, ctrl, events := newCycleStack(t, ControllerConfig{
			Synchronous: true, Synthetic: synthetic,
			Observed: func(string) []workload.LabeledQuery { return cycleFixture.labeled[:5] },
		})
		overThreshold(mon, 2)
		ctrl.Tick()
		if cy := ctrl.Cycle("s"); cy.State != StateIdle || cy.Deferred == nil {
			t.Fatalf("cycle = %+v, want still deferred before the deadline", cy)
		}
		// Age the deferral past the deadline; no further sample arrives, so
		// it is Tick that must start the cycle.
		ctrl.mu.Lock()
		since := time.Now().Add(-2 * deferDeadline)
		ctrl.names["s"].deferred.Since = since
		ctrl.mu.Unlock()
		ctrl.Tick()
		cy := ctrl.Cycle("s")
		if cy.State != StateCanarying || cy.Source != SourceSynthetic || cy.Count != len(cycleFixture.labeled) || cy.Deferred != nil {
			t.Fatalf("cycle = %+v, want canarying on the synthetic fallback", cy)
		}
		if sf := cy.Shortfall; sf == nil || sf.Have != 5 || sf.Want != MinObserved || !sf.Since.Equal(since) {
			t.Fatalf("shortfall = %+v, want 5 of %d since the first decline", cy.Shortfall, MinObserved)
		}
		if got := events.kinds(); got != "refresh_started,canary_started" {
			t.Fatalf("events = %s", got)
		}
		if sf := events.events[0].Workload.Shortfall; sf == nil || sf.Have != 5 {
			t.Fatalf("refresh_started does not name the shortfall: %+v", events.events[0].Workload)
		}
		if st := mon.Status("s"); st.LastTrigger == nil || st.LastTrigger.Kind != "median" {
			t.Fatalf("the fallback cycle did not consume the deferred trigger: %+v", st.LastTrigger)
		}
	})
}

// TestOneCyclePerSketch: what SkipTrigger used to ask the daemon is now
// structural — whoever holds the name's cycle, everyone else is refused,
// and a refused trigger is declined rather than consumed.
func TestOneCyclePerSketch(t *testing.T) {
	release := make(chan struct{})
	blocking := func(ctx context.Context, _ string) ([]workload.LabeledQuery, error) {
		select {
		case <-release:
			return cycleFixture.labeled, nil
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}

	// An operator's cycle is in flight: a trigger is declined.
	mon, ctrl, _ := newCycleStack(t, ControllerConfig{Synthetic: blocking})
	if err := ctrl.Start("s", CycleOptions{Reason: Reason{Kind: "operator"}}); err != nil {
		t.Fatal(err)
	}
	overThreshold(mon, 3)
	if cy := ctrl.Cycle("s"); cy.State != StateRefreshing || cy.Reason.Kind != "operator" {
		t.Fatalf("cycle = %+v, want the operator's refresh still in flight", cy)
	}
	if st := mon.Status("s"); st.LastTrigger != nil {
		t.Fatalf("a trigger during an operator refresh was consumed: %+v", st.LastTrigger)
	}
	if err := ctrl.Start("s", CycleOptions{}); err == nil {
		t.Fatal("a second Start during a cycle was accepted")
	}

	// A triggered cycle is in flight: an operator's Start is refused.
	mon2, ctrl2, _ := newCycleStack(t, ControllerConfig{Synthetic: blocking})
	overThreshold(mon2, 2)
	if cy := ctrl2.Cycle("s"); cy.State != StateRefreshing || cy.Reason.Kind != "median" {
		t.Fatalf("cycle = %+v, want the triggered refresh in flight", cy)
	}
	if err := ctrl2.Start("s", CycleOptions{Reason: Reason{Kind: "operator"}}); err == nil || !strings.Contains(err.Error(), "in progress") {
		t.Fatalf("operator Start during a triggered cycle: %v, want a refusal", err)
	}

	// Close joins both cycles; after it nothing new starts.
	close(release)
	ctrl.Close()
	ctrl2.Close()
	for _, c := range []*Controller{ctrl, ctrl2} {
		if cy := c.Cycle("s"); cy.State == StateRefreshing {
			t.Fatalf("cycle still refreshing after Close: %+v", cy)
		}
	}
	if err := ctrl.Start("s", CycleOptions{}); err == nil {
		t.Fatal("Start after Close was accepted")
	}
}
