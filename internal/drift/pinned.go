package drift

// The pinned-benchmark rail. The controller's live-window comparative gate
// judges a canary against the traffic that triggered the refresh — which
// is exactly the signal an adaptive adversary controls ("Cardinality
// Sketches under Adaptive Inputs", Ahmadian & Cohen 2024: whoever steers
// the feedback steers the next model). A client that feeds inflated
// actuals both trips the trigger AND supplies the poisoned delta workload,
// so the candidate scores beautifully against the poisoned windows while
// regressing on everything else. The pinned benchmark is the held-out
// answer: a frozen labeled workload, fixed before any live feedback
// existed, that every refresh candidate must not regress on — regardless
// of what the live windows say.

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"os"
	"time"

	"deepsketch/internal/db"
	"deepsketch/internal/fsx"
	"deepsketch/internal/metrics"
	"deepsketch/internal/workload"
)

// DefaultPinnedMaxRegress is the rail tolerance when the controller config
// leaves PinnedMaxRegress unset: the candidate's pinned-set median and p95
// q-error may each be at most 1.5× the live version's. Deliberately looser
// than the canary gate's MaxQRatio — a legitimate drift refresh optimizes
// for the NEW distribution and may mildly regress on the frozen one; the
// rail exists to stop collapses, not to freeze the model.
const DefaultPinnedMaxRegress = 1.5

// CardinalityEstimator is the offline estimate surface the rail judges
// candidates through, one batch per side; *core.Sketch satisfies it.
type CardinalityEstimator interface {
	BatchCardinalities(ctx context.Context, qs []db.Query) ([]float64, error)
}

// PinnedBenchmark is a frozen labeled workload held out from every
// feedback loop: it is fixed at creation (typically first boot), persisted
// with fsx.AtomicWriteFile, and never regenerated from live traffic. The
// controller evaluates every refresh candidate against it before the
// candidate's canary starts (ControllerConfig.Pinned).
type PinnedBenchmark struct {
	queries []workload.LabeledQuery
}

// NewPinnedBenchmark freezes a labeled workload as a pinned benchmark
// (the slice is copied; later caller mutations do not leak in).
func NewPinnedBenchmark(labeled []workload.LabeledQuery) *PinnedBenchmark {
	qs := make([]workload.LabeledQuery, len(labeled))
	copy(qs, labeled)
	return &PinnedBenchmark{queries: qs}
}

// Len reports the number of pinned queries.
func (p *PinnedBenchmark) Len() int { return len(p.queries) }

// Queries returns a copy of the pinned labeled workload.
func (p *PinnedBenchmark) Queries() []workload.LabeledQuery {
	qs := make([]workload.LabeledQuery, len(p.queries))
	copy(qs, p.queries)
	return qs
}

// Evaluate computes est's q-error distribution over the pinned set, asking
// for every estimate in one batch. Non-finite q-errors (a degenerate model
// emitting NaN/Inf) are clamped to math.MaxFloat64 rather than dropped: on
// a held-out judgment set a broken estimate must count against the
// candidate, not vanish.
func (p *PinnedBenchmark) Evaluate(ctx context.Context, est CardinalityEstimator) (metrics.Summary, error) {
	qs := make([]db.Query, len(p.queries))
	for i, lq := range p.queries {
		qs[i] = lq.Query
	}
	cards, err := est.BatchCardinalities(ctx, qs)
	if err != nil {
		return metrics.Summary{}, err
	}
	if len(cards) != len(qs) {
		return metrics.Summary{}, fmt.Errorf("drift: %d estimates for %d pinned queries", len(cards), len(qs))
	}
	qerrs := make([]float64, len(cards))
	for i, c := range cards {
		q := metrics.QError(c, float64(p.queries[i].Card))
		if math.IsNaN(q) || math.IsInf(q, 0) {
			q = math.MaxFloat64
		}
		qerrs[i] = q
	}
	return metrics.Summarize(qerrs), nil
}

// PinnedResult is one rail judgment: the live and candidate q-error
// distributions over the pinned set and the verdict.
type PinnedResult struct {
	// Size is the pinned-set query count.
	Size int `json:"size"`
	// Live and Candidate are the two q-error distributions.
	Live      metrics.Summary `json:"live"`
	Candidate metrics.Summary `json:"candidate"`
	// MaxRegress is the tolerance applied: the candidate passes iff its
	// median ≤ live median × MaxRegress AND its p95 ≤ live p95 × MaxRegress.
	MaxRegress float64 `json:"max_regress"`
	// Pass reports the verdict.
	Pass bool `json:"pass"`
	// At is when the judgment ran.
	At time.Time `json:"at"`
}

// Judge evaluates both the live version and the refresh candidate on the
// pinned set and applies the tolerance (maxRegress <= 0 uses
// DefaultPinnedMaxRegress). The candidate passes iff neither its median
// nor its p95 q-error regresses beyond maxRegress × the live version's.
func (p *PinnedBenchmark) Judge(ctx context.Context, live, candidate CardinalityEstimator, maxRegress float64) (PinnedResult, error) {
	if maxRegress <= 0 {
		maxRegress = DefaultPinnedMaxRegress
	}
	liveSum, err := p.Evaluate(ctx, live)
	if err != nil {
		return PinnedResult{}, fmt.Errorf("drift: pinned evaluation of live version: %w", err)
	}
	candSum, err := p.Evaluate(ctx, candidate)
	if err != nil {
		return PinnedResult{}, fmt.Errorf("drift: pinned evaluation of candidate: %w", err)
	}
	return PinnedResult{
		Size: len(p.queries), Live: liveSum, Candidate: candSum,
		MaxRegress: maxRegress,
		Pass: candSum.Median <= liveSum.Median*maxRegress &&
			candSum.P95 <= liveSum.P95*maxRegress,
		At: time.Now(),
	}, nil
}

// WritePinnedBenchmarkFile persists a pinned workload in the artifact CSV
// format via fsx.AtomicWriteFile: after a crash the file is either the
// previous benchmark or the new one, never a torn mixture — a rail that
// loads a half-written benchmark would judge against garbage.
func WritePinnedBenchmarkFile(path string, labeled []workload.LabeledQuery) error {
	var buf bytes.Buffer
	if err := workload.WriteCSV(&buf, labeled); err != nil {
		return fmt.Errorf("drift: encoding pinned benchmark: %w", err)
	}
	return fsx.AtomicWriteFile(path, buf.Bytes(), 0o644)
}

// LoadPinnedBenchmarkFile loads a pinned benchmark persisted by
// WritePinnedBenchmarkFile, validating every query against the schema.
func LoadPinnedBenchmarkFile(d *db.DB, path string) (*PinnedBenchmark, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	labeled, err := workload.ReadCSV(d, f)
	if err != nil {
		return nil, fmt.Errorf("drift: pinned benchmark %s: %w", path, err)
	}
	if len(labeled) == 0 {
		return nil, fmt.Errorf("drift: pinned benchmark %s is empty", path)
	}
	return &PinnedBenchmark{queries: labeled}, nil
}
