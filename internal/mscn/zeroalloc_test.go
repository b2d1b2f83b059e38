//go:build !race

// Under -race, sync.Pool drops a share of what is put back on purpose, so
// the pooled entry points allocate there by design.

package mscn

import (
	"context"
	"math/rand"
	"testing"
)

// TestPredictSourceIntoZeroAlloc: the batch entry every BatchCardinalities
// call goes through — pooled scratch, packing valued runs from a compact
// source, the packing keys, the element memo and the dedupe — allocates
// nothing in steady state at either precision (a clone of one model each).
// (AllocsPerRun runs at GOMAXPROCS 1, the serial path; the fan-out's
// goroutines are its only allocations.)
func TestPredictSourceIntoZeroAlloc(t *testing.T) {
	const jdim, pdim = 5, 9
	base := New(Config{HiddenUnits: 16, BatchSize: 64, Seed: 1}, memoT+memoBits, jdim, pdim)
	encs := memoEncs(rand.New(rand.NewSource(62)), 24, jdim, pdim)
	out := make([]float64, len(encs))
	var src QuerySource = newRunsSource(encs, memoT+memoBits, jdim, pdim)
	ctx := context.Background()
	for _, p := range []Precision{F64, F32} {
		m := base.Clone()
		m.SetPrecision(p)
		e := NewEngine(m)
		if err := e.PredictSourceInto(ctx, src, len(encs), out); err != nil {
			t.Fatal(err)
		}
		if a := testing.AllocsPerRun(50, func() { _ = e.PredictSourceInto(ctx, src, len(encs), out) }); a != 0 {
			t.Fatalf("precision %d: PredictSourceInto allocates %.1f times per op, want 0", p, a)
		}
	}
}
