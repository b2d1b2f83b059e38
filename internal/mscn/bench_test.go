package mscn

import (
	"context"
	"strconv"
	"testing"

	"deepsketch/internal/featurize"
	"deepsketch/internal/nn"
)

// benchExamples builds synthetic featurized examples with paper-ish
// dimensions (bitmap width 1000) without touching a database.
func benchExamples(b testing.TB, n int) ([]Example, int, int, int, nn.LabelNorm) {
	b.Helper()
	const tdim, jdim, pdim = 1008, 7, 17
	examples := make([]Example, n)
	for i := range examples {
		tv := make([][]float64, 1+i%3)
		for j := range tv {
			v := make([]float64, tdim)
			v[j%8] = 1
			for k := 8; k < tdim; k += 7 {
				v[k] = float64((i + k) % 2)
			}
			tv[j] = v
		}
		jv := [][]float64{make([]float64, jdim)}
		jv[0][i%jdim] = 1
		pv := [][]float64{make([]float64, pdim)}
		pv[0][i%13] = 1
		pv[0][pdim-1] = float64(i%100) / 100
		examples[i] = Example{
			Enc:  featurize.Encoded{TableVecs: tv, JoinVecs: jv, PredVecs: pv},
			Card: int64(1 + i*37%100000),
		}
	}
	cards := make([]int64, n)
	for i, ex := range examples {
		cards[i] = ex.Card
	}
	return examples, tdim, jdim, pdim, nn.NewLabelNorm(cards)
}

func BenchmarkPredictSingle(b *testing.B) {
	examples, tdim, jdim, pdim, _ := benchExamples(b, 8)
	m := New(Config{HiddenUnits: 64, Seed: 1}, tdim, jdim, pdim)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := m.Engine().Predict(examples[i%len(examples)].Enc); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkForwardPacked measures the packed engine's steady-state forward
// pass on a prebuilt batch and scratch — the number that must stay at
// 0 allocs/op. "single" is one query; "mixed64" is a 64-query ragged batch
// of mixed shapes (the coalescer's flush shape under load). Each shape runs
// once per inference precision (f64 reference, f32).
func BenchmarkForwardPacked(b *testing.B) {
	run := func(n int, p Precision) func(b *testing.B) {
		return func(b *testing.B) {
			examples, tdim, jdim, pdim, _ := benchExamples(b, n)
			m := New(Config{HiddenUnits: 64, Seed: 1}, tdim, jdim, pdim)
			m.SetPrecision(p)
			e := m.Engine()
			encs := make([]featurize.Encoded, len(examples))
			for i, ex := range examples {
				encs[i] = ex.Enc
			}
			pb, err := BuildPackedBatch(encs, tdim, jdim, pdim)
			if err != nil {
				b.Fatal(err)
			}
			s := e.scratch()
			out := make([]float64, len(encs))
			e.forward(pb, s, out) // warm the scratch + converted snapshot
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				e.forward(pb, s, out)
			}
		}
	}
	for _, shape := range []struct {
		name string
		n    int
	}{{"single", 1}, {"mixed64", 64}} {
		for _, p := range []Precision{F64, F32} {
			b.Run(shape.name+"/engine="+p.String(), run(shape.n, p))
		}
	}
}

// BenchmarkPredictSourcePacked is the end-to-end batched inference path as
// the serve coalescer drives it: pack (pooled buffers) + forward per call.
func BenchmarkPredictSourcePacked(b *testing.B) {
	examples, tdim, jdim, pdim, _ := benchExamples(b, 64)
	m := New(Config{HiddenUnits: 64, BatchSize: 64, Seed: 1}, tdim, jdim, pdim)
	e := m.Engine()
	encs := make([]featurize.Encoded, len(examples))
	for i, ex := range examples {
		encs[i] = ex.Enc
	}
	out := make([]float64, len(encs))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := e.PredictSourceInto(context.Background(), encodedSource(encs), len(encs), out); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTrainEpoch measures one epoch of packed data-parallel training:
// serial (P=1) vs sharded across 2 and 4 workers. On a single-core box the
// parallel variants measure sharding overhead only; the speedup needs
// GOMAXPROCS ≥ P.
func BenchmarkTrainEpoch(b *testing.B) {
	examples, tdim, jdim, pdim, norm := benchExamples(b, 1024)
	for _, p := range []int{1, 2, 4} {
		b.Run("p="+strconv.Itoa(p), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				m := New(Config{HiddenUnits: 64, Epochs: 1, BatchSize: 128, Seed: 1}, tdim, jdim, pdim)
				if _, err := m.TrainWithOptions(examples, norm, nil, TrainOptions{Parallelism: p}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
