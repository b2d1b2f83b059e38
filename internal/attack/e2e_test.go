package attack

import (
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"deepsketch/internal/core"
	"deepsketch/internal/datagen"
	"deepsketch/internal/db"
	"deepsketch/internal/drift"
	"deepsketch/internal/estimator"
	"deepsketch/internal/lifecycle"
	"deepsketch/internal/mscn"
	"deepsketch/internal/serve"
	"deepsketch/internal/sqlparse"
	"deepsketch/internal/wal"
	"deepsketch/internal/workload"
)

// The headline stress test: an adaptive poisoner drives the full truthless
// serving stack — the daemon's -drift -drift-truth=false wiring, where
// logged actuals are the ONLY ground truth and the refresh workload comes
// from the WAL — and the pinned-benchmark rail is what stands between the
// adversary and a promoted garbage model. The rail-on run must abort the
// poisoned refresh with the serving version untouched; the rail-off
// control run with the same seed must let the same attack promote, proving
// the rail has teeth rather than the attack being toothless.

// e2eFixture is the expensive shared state: dataset, trained base sketch,
// clean pinned workload, attack pool. Built once; both runs and the
// transcript artifact reuse it.
type e2eFixture struct {
	d       *db.DB
	base    *core.Sketch
	pinned  []workload.LabeledQuery
	pool    []db.Query
	legit   []db.Query
	maxCard float64
	err     error
}

var (
	e2eOnce sync.Once
	e2eFix  e2eFixture
)

func fixture(t *testing.T) *e2eFixture {
	t.Helper()
	e2eOnce.Do(func() {
		f := &e2eFix
		f.d = datagen.IMDb(datagen.IMDbConfig{Seed: 93, Titles: 900, Keywords: 50, Companies: 25, Persons: 150})
		f.maxCard = serve.MaxCardinality(f.d)

		// The base model trains on the SAME broad distribution it will
		// serve: no organic drift anywhere. Whatever the drift loop does
		// during the attack, the adversary caused it.
		gen, err := workload.NewGenerator(f.d, workload.GenConfig{
			Seed: 11, Count: 400, MaxJoins: 2, MaxPreds: 2, Dedup: true,
		})
		if err != nil {
			f.err = err
			return
		}
		broad, err := workload.Label(f.d, gen.Generate(), 2, nil)
		if err != nil {
			f.err = err
			return
		}
		f.base, f.err = core.BuildWithWorkload(f.d, core.Config{
			Name: "movies", SampleSize: 48, MaxJoins: 2, MaxPreds: 2, Seed: 5,
			Model: mscn.Config{HiddenUnits: 16, Epochs: 8, BatchSize: 32, Seed: 5},
		}, broad, nil)
		if f.err != nil {
			return
		}

		// The pinned benchmark: a held-out clean labeled set from the same
		// distribution, frozen before any attack traffic exists.
		pinGen, err := workload.NewGenerator(f.d, workload.GenConfig{
			Seed: 21, Count: 120, MaxJoins: 2, MaxPreds: 2, Dedup: true,
		})
		if err != nil {
			f.err = err
			return
		}
		f.pinned, f.err = workload.Label(f.d, pinGen.Generate(), 2, nil)
		if f.err != nil {
			return
		}

		// The adversary's probe pool and the honest clients' query set.
		atkGen, err := workload.NewGenerator(f.d, workload.GenConfig{
			Seed: 31, Count: 80, MaxJoins: 2, MaxPreds: 2, Dedup: true,
		})
		if err != nil {
			f.err = err
			return
		}
		f.pool = atkGen.Generate()
		legitGen, err := workload.NewGenerator(f.d, workload.GenConfig{
			Seed: 41, Count: 60, MaxJoins: 2, MaxPreds: 2, Dedup: true,
		})
		if err != nil {
			f.err = err
			return
		}
		f.legit = legitGen.Generate()
	})
	if e2eFix.err != nil {
		t.Fatal(e2eFix.err)
	}
	return &e2eFix
}

// e2eStack is one full truthless serving deployment, mirroring the daemon:
// versioned registry under a version-keyed cache, drift observation, an
// observation WAL as the monitor's journal, admission-controlled actuals
// ingest, and a synchronous controller whose refresh workload is derived
// from the WAL's recent actuals.
type e2eStack struct {
	fix   *e2eFixture
	reg   *lifecycle.Registry
	mon   *drift.Monitor
	ctrl  *drift.Controller
	walog *wal.Log
	adm   *wal.Admitter
	cache *serve.Cache

	evMu   sync.Mutex
	events []drift.Event
}

// testJournal mirrors the daemon's walJournal adapter.
type testJournal struct {
	d   *db.DB
	log *wal.Log
}

func (j *testJournal) Pending(name string, version int, q db.Query, estimate float64) {
	_ = j.log.Append(wal.Record{
		Kind: wal.KindObservation, Name: name, Version: version,
		Signature: q.Signature(), SQL: q.SQL(j.d), Estimate: estimate,
	})
}

func (j *testJournal) Resolved(name string, version int, q db.Query, estimate, actual float64) {
	_ = j.log.Append(wal.Record{
		Kind: wal.KindActual, Name: name, Version: version,
		Signature: q.Signature(), SQL: q.SQL(j.d), Estimate: estimate, Actual: actual,
	})
}

func newStack(t *testing.T, fix *e2eFixture, pinned *drift.PinnedBenchmark) *e2eStack {
	t.Helper()
	s := &e2eStack{fix: fix, reg: lifecycle.New()}
	if _, err := s.reg.Publish("movies", fix.base); err != nil {
		t.Fatal(err)
	}
	var err error
	s.walog, err = wal.Open(t.TempDir(), wal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.walog.Close() })
	// Truthless monitor: nil source parks every sampled estimate pending
	// until a client reports the actual — the daemon's -drift-truth=false.
	s.mon = drift.NewMonitor(drift.Config{
		SampleEvery: 1, Window: 256, MinSamples: 40, MaxMedianQ: 3,
		Cooldown: time.Hour, QueueSize: 8192,
		Journal: &testJournal{d: fix.d, log: s.walog},
	}, nil)
	s.adm = wal.NewAdmitter(wal.AdmitConfig{PerClientPerMin: 1000})
	s.ctrl = drift.NewController(s.reg, s.mon, drift.ControllerConfig{
		CanaryFraction: 0.5, PromoteAfter: 8, MaxQRatio: 1.5,
		Epochs: 30, Synchronous: true,
		Pinned: pinned, PinnedMaxRegress: 1.25,
		Observed: func(name string) []workload.LabeledQuery {
			recs := s.walog.RecentActuals(name, 256)
			out := make([]workload.LabeledQuery, 0, len(recs))
			for _, r := range recs {
				res, err := sqlparse.Parse(fix.d, r.SQL)
				if err != nil {
					continue
				}
				out = append(out, workload.LabeledQuery{Query: res.Query, Card: int64(r.Actual)})
			}
			return out
		},
		OnEvent: func(ev drift.Event) {
			s.evMu.Lock()
			s.events = append(s.events, ev)
			s.evMu.Unlock()
			if ev.Kind == "error" {
				t.Errorf("controller error event: %v", ev.Err)
			}
		},
	})
	s.cache = serve.NewCache(
		drift.Observe(serve.Clamp(s.reg.Router(), fix.maxCard), s.mon), 4096).
		KeyFunc(s.reg.Router().CacheKey)
	return s
}

// target exposes the stack through the adversary's three surfaces,
// mirroring the daemon's GET /estimate and POST .../actuals handlers.
func (s *e2eStack) target() Target {
	return Target{
		Estimate: func(ctx context.Context, q db.Query) (estimator.Estimate, error) {
			return s.cache.Estimate(ctx, q)
		},
		PostActual: func(ctx context.Context, q db.Query, actual float64, client string) (wal.Decision, error) {
			dec := s.adm.Admit(client, time.Now())
			if dec != wal.Admitted {
				return dec, nil
			}
			s.mon.Drain(ctx)
			sig := q.Signature()
			ver, est, _, _ := s.mon.ResolveActual("movies", sig, actual)
			err := s.walog.Append(wal.Record{
				Kind: wal.KindActual, Name: "movies", Version: ver,
				Signature: sig, SQL: q.SQL(s.fix.d),
				Estimate: est, Actual: actual, Client: client,
			})
			return dec, err
		},
	}
}

func (s *e2eStack) eventKinds() []string {
	s.evMu.Lock()
	defer s.evMu.Unlock()
	kinds := make([]string, len(s.events))
	for i, ev := range s.events {
		kinds[i] = ev.Kind
	}
	return kinds
}

// saveTranscript writes the attack transcript as a CI artifact when
// DEEPSKETCH_ATTACK_TRANSCRIPT names a directory — the stress job uploads
// it on failure so a regression ships with the exact adversary trace.
func saveTranscript(t *testing.T, tr *Transcript, name string) {
	t.Helper()
	dir := os.Getenv("DEEPSKETCH_ATTACK_TRANSCRIPT")
	if dir == "" {
		return
	}
	blob, err := json.MarshalIndent(tr, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, name+".json"), blob, 0o644); err != nil {
		t.Fatal(err)
	}
}

// runPoisoning drives the seeded poisoner against a stack under concurrent
// honest load and returns the transcript plus the honest failure count.
func runPoisoning(t *testing.T, s *e2eStack) (*Transcript, int64) {
	t.Helper()
	ctx := context.Background()
	tgt := s.target()

	var failures atomic.Int64
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < 3; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := g; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				if _, err := s.cache.Estimate(ctx, s.fix.legit[i%len(s.fix.legit)]); err != nil {
					failures.Add(1)
					t.Error(err)
					return
				}
			}
		}(g)
	}

	p := NewPoisoner(PoisonerConfig{
		Seed: 17, Queries: s.fix.pool, Inflate: 64, Budget: 3 * len(s.fix.pool), Client: "mallory",
	})
	tr, err := p.Run(ctx, tgt)
	close(stop)
	wg.Wait()
	if err != nil {
		t.Fatal(err)
	}
	s.mon.Drain(ctx)
	s.ctrl.Tick()
	return tr, failures.Load()
}

// TestAdaptivePoisoningBlockedEndToEnd is the acceptance test for the
// pinned-benchmark rail: with the rail on, an adaptive poisoner that fully
// controls the feedback channel trips the drift trigger and corrupts the
// WAL-derived refresh workload, but the poisoned candidate regresses on
// the frozen clean benchmark and is rejected before any canary starts —
// the serving version never changes and honest traffic never fails.
func TestAdaptivePoisoningBlockedEndToEnd(t *testing.T) {
	fix := fixture(t)
	pbDir := t.TempDir()
	pbPath := filepath.Join(pbDir, "movies.workload")
	if err := drift.WritePinnedBenchmarkFile(pbPath, fix.pinned); err != nil {
		t.Fatal(err)
	}
	pb, err := drift.LoadPinnedBenchmarkFile(fix.d, pbPath)
	if err != nil {
		t.Fatal(err)
	}
	s := newStack(t, fix, pb)

	tr, failures := runPoisoning(t, s)
	saveTranscript(t, tr, "poisoning-rail-on")

	if failures != 0 {
		t.Fatalf("%d honest estimates failed during the attack", failures)
	}
	if tr.Admitted < 40 {
		t.Fatalf("poisoner landed only %d admitted posts — the attack never materialized (capped %d)", tr.Admitted, tr.Capped)
	}

	// The attack DID trip the loop: a refresh started. The rail stopped it.
	kinds := s.eventKinds()
	wantPrefix := []string{"refresh_started", "pinned_rejected"}
	if len(kinds) != 2 || kinds[0] != wantPrefix[0] || kinds[1] != wantPrefix[1] {
		t.Fatalf("controller events = %v, want exactly %v", kinds, wantPrefix)
	}
	s.evMu.Lock()
	rejected := s.events[1]
	s.evMu.Unlock()
	if rejected.Version != 1 {
		t.Errorf("pinned_rejected names version %d as staying live, want 1", rejected.Version)
	}
	if rejected.Pinned == nil || rejected.Pinned.Pass {
		t.Fatalf("pinned_rejected event carries verdict %+v, want a failing judgment", rejected.Pinned)
	}
	if rejected.Reason.Kind != "pinned_regress" {
		t.Errorf("rejection reason %q, want pinned_regress", rejected.Reason.Kind)
	}
	t.Logf("rail verdict: candidate pinned median %.2f vs live %.2f (tolerance %.2fx), p95 %.2f vs %.2f",
		rejected.Pinned.Candidate.Median, rejected.Pinned.Live.Median, rejected.Pinned.MaxRegress,
		rejected.Pinned.Candidate.P95, rejected.Pinned.Live.P95)

	// No canary ever started; the base version serves untouched.
	if _, active := s.reg.Canary("movies"); active {
		t.Fatal("a canary is active after the rail rejected the candidate")
	}
	live, ver, err := s.reg.Live("movies")
	if err != nil || ver != 1 || live != fix.base {
		t.Fatalf("live = v%d (%v), want the untouched base v1", ver, err)
	}
	if cy := s.ctrl.Cycle("movies"); cy.State != drift.StateIdle || cy.Pinned == nil || cy.Pinned.Pass {
		t.Fatalf("cycle status %+v, want idle with the failing rail verdict exposed", cy)
	}

	// Honest clients still get the base model's answers, version-tagged 1.
	ctx := context.Background()
	for _, q := range fix.legit[:20] {
		est, err := s.cache.Estimate(ctx, q)
		if err != nil {
			t.Fatal(err)
		}
		if est.Version != 1 {
			t.Fatalf("post-attack estimate served by v%d, want the untouched v1", est.Version)
		}
	}
}

// TestAdaptivePoisoningPromotesWithoutRail is the control run: the
// identical seeded attack against the identical stack minus the rail ends
// in a promotion — the live-window comparative gate grades the candidate
// against windows the adversary populated, so it waves the garbage model
// through. The promoted model measurably regresses on the clean pinned
// set, which is exactly the judgment the rail-on run made in time.
func TestAdaptivePoisoningPromotesWithoutRail(t *testing.T) {
	fix := fixture(t)
	s := newStack(t, fix, nil) // rail off

	tr, failures := runPoisoning(t, s)
	saveTranscript(t, tr, "poisoning-rail-off")

	if failures != 0 {
		t.Fatalf("%d honest estimates failed during the attack", failures)
	}
	kinds := s.eventKinds()
	if len(kinds) < 3 || kinds[0] != "refresh_started" || kinds[1] != "canary_started" || kinds[len(kinds)-1] != "promoted" {
		t.Fatalf("controller events = %v, want refresh_started, canary_started, …, promoted — without the rail the attack must succeed", kinds)
	}
	promoted, ver, err := s.reg.Live("movies")
	if err != nil || ver != 2 {
		t.Fatalf("live = v%d (%v), want the poison-trained v2 promoted", ver, err)
	}

	// Teeth: judged on the clean held-out benchmark the promotion was a
	// regression — the rail-on run rejected precisely this candidate.
	pb := drift.NewPinnedBenchmark(fix.pinned)
	res, err := pb.Judge(context.Background(), fix.base, promoted, 1.25)
	if err != nil {
		t.Fatal(err)
	}
	if res.Pass {
		t.Fatalf("promoted model does not regress on the pinned set (candidate median %.2f vs live %.2f) — the control attack is toothless",
			res.Candidate.Median, res.Live.Median)
	}
	t.Logf("rail-off promotion regressed pinned median %.2f → %.2f (p95 %.2f → %.2f) over %d held-out queries",
		res.Live.Median, res.Candidate.Median, res.Live.P95, res.Candidate.P95, res.Size)
}
