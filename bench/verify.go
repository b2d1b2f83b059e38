package main

import (
	"bytes"
	"context"
	"fmt"
	"math"

	"deepsketch"
)

// relTol is how far a served estimate may sit from the in-process one: the
// daemon may answer from a coalesced batch, whose packed forward adds in a
// different order than a single-query forward.
const relTol = 1e-9

// verifier recomputes served answers in-process from the daemon's own
// sketch (downloaded over HTTP) and the benchmark's copy of the database.
type verifier struct {
	d       *deepsketch.DB
	blob    []byte // the sketch as downloaded
	sk      *deepsketch.Sketch
	version int
	maxCard float64
}

func newVerifier(d *deepsketch.DB, blob []byte, version int) (*verifier, error) {
	sk, err := deepsketch.Load(bytes.NewReader(blob))
	if err != nil {
		return nil, fmt.Errorf("loading the downloaded sketch: %w", err)
	}
	return &verifier{d: d, blob: blob, sk: sk, version: version, maxCard: deepsketch.MaxCardinality(d)}, nil
}

// clamped is what the daemon's serving stack makes of the sketch's
// estimate: Clamp into [1, |DB|].
func (v *verifier) clamped(ctx context.Context, q deepsketch.Query) (float64, error) {
	est, err := v.sk.Estimate(ctx, q)
	if err != nil {
		return 0, err
	}
	return math.Min(math.Max(est.Cardinality, 1), v.maxCard), nil
}

func nearly(got, want float64) bool {
	return math.Abs(got-want) <= relTol*math.Max(math.Abs(want), 1)
}

// estimates checks up to limit evenly spaced answers: "true" must equal the
// exact count on the benchmark's database, and "deep_sketch" must equal the
// clamped in-process estimate when this verifier's sketch version answered.
// limit 0 checks every answer. It returns the mismatches.
func (v *verifier) estimates(ctx context.Context, qs *querySet, answers []answer, limit int) (errs []error) {
	step := 1
	if limit > 0 && len(answers) > limit {
		step = len(answers) / limit
	}
	for i := 0; i < len(answers); i += step {
		a := answers[i]
		q := qs.queries[a.query]
		truth, err := deepsketch.TrueCardinality(v.d, q)
		if err != nil {
			errs = append(errs, fmt.Errorf("exact count of %q: %w", qs.sql[a.query], err))
			continue
		}
		if truth != a.truth {
			errs = append(errs, fmt.Errorf("%q: daemon reported true=%d, exact count is %d", qs.sql[a.query], a.truth, truth))
			continue
		}
		if a.version != v.version {
			continue
		}
		want, err := v.clamped(ctx, q)
		if err != nil {
			errs = append(errs, fmt.Errorf("in-process estimate of %q: %w", qs.sql[a.query], err))
			continue
		}
		if !nearly(a.deep, want) {
			errs = append(errs, fmt.Errorf("%q: daemon v%d estimated %v, in-process %v", qs.sql[a.query], a.version, a.deep, want))
		}
	}
	return errs
}

// templates checks every template answer against the in-process expansion
// of the same statement (the template route serves the sketch's estimates
// unclamped). Each statement is expanded once.
func (v *verifier) templates(ctx context.Context, qs *querySet, answers []answer) (errs []error) {
	want := map[int][]float64{}
	for _, a := range answers {
		w, ok := want[a.query]
		if !ok {
			res, err := v.sk.EstimateTemplateSQL(ctx, qs.sql[a.query], deepsketch.GroupDistinct, 0)
			if err != nil {
				errs = append(errs, fmt.Errorf("in-process template %q: %w", qs.sql[a.query], err))
				continue
			}
			for _, r := range res {
				w = append(w, r.Estimate)
			}
			want[a.query] = w
		}
		if len(a.points) != len(w) {
			errs = append(errs, fmt.Errorf("%q: daemon returned %d points, in-process %d", qs.sql[a.query], len(a.points), len(w)))
			continue
		}
		for j := range w {
			if !nearly(a.points[j], w[j]) {
				errs = append(errs, fmt.Errorf("%q point %d: daemon %v, in-process %v", qs.sql[a.query], j, a.points[j], w[j]))
				break
			}
		}
	}
	return errs
}
