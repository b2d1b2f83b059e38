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
// call goes through — pooled scratch, BuildFrom's row cursor, the packing
// keys, the element memo and the dedupe — allocates nothing in steady
// state at either precision. (AllocsPerRun runs at GOMAXPROCS 1, the
// serial path; the fan-out's goroutines are its only allocations.)
func TestPredictSourceIntoZeroAlloc(t *testing.T) {
	const jdim, pdim = 5, 9
	m := New(Config{HiddenUnits: 16, BatchSize: 64, Seed: 1}, memoT+memoBits, jdim, pdim)
	e := NewEngine(m)
	encs := memoEncs(rand.New(rand.NewSource(62)), 24, jdim, pdim)
	out := make([]float64, len(encs))
	var src QuerySource = encodedSource(encs)
	ctx := context.Background()
	for _, p := range []Precision{F64, F32} {
		m.SetPrecision(p)
		if err := e.PredictSourceInto(ctx, src, len(encs), out); err != nil {
			t.Fatal(err)
		}
		if a := testing.AllocsPerRun(50, func() { _ = e.PredictSourceInto(ctx, src, len(encs), out) }); a != 0 {
			t.Fatalf("precision %d: PredictSourceInto allocates %.1f times per op, want 0", p, a)
		}
	}
}
