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
	encs := make([]featurize.Encoded, n)
	cards := make([]int64, n)
	for i := range encs {
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
		encs[i] = featurize.Encoded{TableVecs: tv, JoinVecs: jv, PredVecs: pv}
		cards[i] = int64(1 + i*37%100000)
	}
	return encodedExamples(encs, cards), tdim, jdim, pdim, nn.NewLabelNorm(cards)
}

func BenchmarkPredictSingle(b *testing.B) {
	examples, tdim, jdim, pdim, _ := benchExamples(b, 8)
	m := New(Config{HiddenUnits: 64, Seed: 1}, tdim, jdim, pdim)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := m.Engine().Predict(encOf(examples[i%len(examples)])); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkForwardPacked measures the packed engine's steady-state forward
// pass on a prebuilt batch and scratch — the number that must stay at
// 0 allocs/op. "single" is one query; "mixed64" is a 64-query ragged batch
// of mixed shapes.
func BenchmarkForwardPacked(b *testing.B) {
	for _, shape := range []struct {
		name string
		n    int
	}{{"single", 1}, {"mixed64", 64}} {
		b.Run(shape.name, func(b *testing.B) {
			examples, tdim, jdim, pdim, _ := benchExamples(b, shape.n)
			m := New(Config{HiddenUnits: 64, Seed: 1}, tdim, jdim, pdim)
			e := m.Engine()
			encs := encsOf(examples)
			pb, err := BuildPackedBatch(encs, tdim, jdim, pdim)
			if err != nil {
				b.Fatal(err)
			}
			var ws nn.Workspace
			out := make([]float64, len(encs))
			e.Forward(pb, &ws, out) // warm the workspace and the snapshot
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				e.Forward(pb, &ws, out)
			}
		})
	}
}

// BenchmarkPredictSourcePacked is the end-to-end batched inference path as
// the serve coalescer drives it: pack (pooled buffers) + forward per call.
func BenchmarkPredictSourcePacked(b *testing.B) {
	examples, tdim, jdim, pdim, _ := benchExamples(b, 64)
	m := New(Config{HiddenUnits: 64, BatchSize: 64, Seed: 1}, tdim, jdim, pdim)
	e := m.Engine()
	encs := encsOf(examples)
	out := make([]float64, len(encs))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := e.PredictSourceInto(context.Background(), encodedSource(encs), len(encs), out); err != nil {
			b.Fatal(err)
		}
	}
}

// templateInstances is a year template in synthetic form, the query the
// demo expands over a column sample: n instances of title ⋈ movie_keyword
// ⋈ keyword with a fixed keyword predicate and a production_year literal
// that varies. Each instance's title row is its own (the year filters the
// title sample) and so is its year predicate; the other rows are shared.
func templateInstances(n int) ([]featurize.Encoded, int, int, int) {
	const tdim, jdim, pdim = 1008, 7, 17
	row := func(dim, oneHot int) []float64 {
		v := make([]float64, dim)
		v[oneHot] = 1
		return v
	}
	mk := row(tdim, 1) // unfiltered: every sample bit set
	for k := 8; k < tdim; k++ {
		mk[k] = 1
	}
	kw := row(tdim, 2) // one keyword's tuples
	for k := 8; k < tdim; k += 97 {
		kw[k] = 1
	}
	joins := [][]float64{row(jdim, 0), row(jdim, 1)}
	kwPred := row(pdim, 3)
	kwPred[12] = 1
	kwPred[pdim-1] = 0.25
	encs := make([]featurize.Encoded, n)
	for i := range encs {
		title := row(tdim, 0)
		for k := 8 + i%11; k < tdim; k += 11 + i%5 {
			title[k] = 1
		}
		year := row(pdim, 5)
		year[12] = 1
		year[pdim-1] = float64(i+1) / float64(n+1)
		encs[i] = featurize.Encoded{
			TableVecs: [][]float64{title, mk, kw},
			JoinVecs:  joins,
			PredVecs:  [][]float64{kwPred, year},
		}
	}
	return encs, tdim, jdim, pdim
}

// BenchmarkPredictSourceTemplate is a template request at the serving
// width, repeated: the same 137 instances predicted once per op, so from
// the second op on every row's h2 comes from the engine's element memo and
// what is left is packing, the pools and the output network.
func BenchmarkPredictSourceTemplate(b *testing.B) {
	encs, tdim, jdim, pdim := templateInstances(137)
	m := New(Config{HiddenUnits: 256, BatchSize: 64, Seed: 1}, tdim, jdim, pdim)
	e := m.Engine()
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
