package mscn

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"deepsketch/internal/featurize"
	"deepsketch/internal/nn"
)

// randEnc builds one featurized query with the given set sizes and random
// element values. Zero-sized sets are emitted as genuinely empty (no
// elements), exercising the empty-segment path directly.
func randEnc(rng *rand.Rand, nt, nj, np, tdim, jdim, pdim int) featurize.Encoded {
	vecs := func(n, dim int) [][]float64 {
		out := make([][]float64, n)
		for i := range out {
			v := make([]float64, dim)
			for j := range v {
				if rng.Float64() < 0.3 {
					v[j] = rng.Float64()*2 - 1
				}
			}
			out[i] = v
		}
		return out
	}
	return featurize.Encoded{
		TableVecs: vecs(nt, tdim),
		JoinVecs:  vecs(nj, jdim),
		PredVecs:  vecs(np, pdim),
	}
}

// runsSource is a QuerySource over queries featurized once into valued
// runs: EncodeTo copies query i's rows run by run, the compact path an
// estimate takes, with no dense row and no indexing.
type runsSource [][3]nn.RunIndex

// newRunsSource indexes encs' dense rows once (nn.RunIndex.AppendDense).
func newRunsSource(encs []featurize.Encoded, tdim, jdim, pdim int) runsSource {
	src := make(runsSource, len(encs))
	for i, enc := range encs {
		for k, vecs := range [3][][]float64{enc.TableVecs, enc.JoinVecs, enc.PredVecs} {
			src[i][k].Reset([3]int{tdim, jdim, pdim}[k])
			for _, v := range vecs {
				src[i][k].AppendDense(v)
			}
		}
	}
	return src
}

func (s runsSource) EncodeTo(i int, t, j, p *nn.RunIndex) error {
	for k, dst := range [3]*nn.RunIndex{t, j, p} {
		from := &s[i][k]
		for r := 0; r < from.Rows(); r++ {
			for _, run := range from.Row(r) {
				dst.Add(int(run.Lo), int(run.Hi), run.V)
			}
			dst.EndRow()
		}
	}
	return nil
}

// TestPackedEquivalence: the packed engine forward must match the reference
// padded forward within 1e-12 across randomized ragged shapes, including
// empty sets, singleton batches, and JOB-light-like shapes.
func TestPackedEquivalence(t *testing.T) {
	const tdim, jdim, pdim = 37, 5, 11
	rng := rand.New(rand.NewSource(42))
	m := New(Config{HiddenUnits: 32, Seed: 7}, tdim, jdim, pdim)
	e := m.Engine()

	cases := [][][3]int{
		// Singleton batches of varied shapes.
		{{1, 1, 1}},
		{{4, 3, 3}},
		// Empty joins and predicates (sets with no elements at all).
		{{2, 0, 0}},
		{{1, 0, 2}, {3, 2, 0}},
		// JOB-light shapes: chains of 1..5 tables, joins = tables-1, 0..3 preds.
		{{1, 0, 1}, {2, 1, 2}, {3, 2, 1}, {4, 3, 3}, {5, 4, 2}},
	}
	// Randomized ragged batches.
	for c := 0; c < 20; c++ {
		b := 1 + rng.Intn(65)
		shapes := make([][3]int, b)
		for i := range shapes {
			shapes[i] = [3]int{1 + rng.Intn(5), rng.Intn(5), rng.Intn(5)}
		}
		cases = append(cases, shapes)
	}

	var ws nn.Workspace
	for ci, shapes := range cases {
		encs := make([]featurize.Encoded, len(shapes))
		for i, sh := range shapes {
			encs[i] = randEnc(rng, sh[0], sh[1], sh[2], tdim, jdim, pdim)
		}
		padded, err := BuildBatch(encs, nil, tdim, jdim, pdim)
		if err != nil {
			t.Fatalf("case %d: BuildBatch: %v", ci, err)
		}
		want := m.Forward(padded)

		pb, err := BuildPackedBatch(encs, tdim, jdim, pdim)
		if err != nil {
			t.Fatalf("case %d: BuildPackedBatch: %v", ci, err)
		}
		got := make([]float64, len(encs))
		e.Forward(pb, &ws, got)
		for i := range got {
			if d := math.Abs(got[i] - want[i]); d > 1e-12 || math.IsNaN(got[i]) {
				t.Errorf("case %d query %d (shape %v): packed %v vs padded %v (|Δ|=%g)",
					ci, i, shapes[i], got[i], want[i], d)
			}
		}

		// The pooled Predict path must agree with both.
		for i, enc := range encs {
			y, err := e.Predict(enc)
			if err != nil {
				t.Fatalf("case %d: Predict: %v", ci, err)
			}
			if d := math.Abs(y - want[i]); d > 1e-12 {
				t.Errorf("case %d query %d: Predict %v vs padded %v (|Δ|=%g)", ci, i, y, want[i], d)
			}
		}
	}
}

// TestPackedBatchReuse: rebuilding a PackedBatch in place (smaller, then
// larger batches) must not leak state between builds.
func TestPackedBatchReuse(t *testing.T) {
	const tdim, jdim, pdim = 9, 4, 6
	rng := rand.New(rand.NewSource(3))
	m := New(Config{HiddenUnits: 8, Seed: 3}, tdim, jdim, pdim)
	e := m.Engine()

	var pb PackedBatch
	var ws nn.Workspace
	for round := 0; round < 10; round++ {
		b := 1 + rng.Intn(8)
		encs := make([]featurize.Encoded, b)
		for i := range encs {
			encs[i] = randEnc(rng, 1+rng.Intn(3), rng.Intn(3), rng.Intn(3), tdim, jdim, pdim)
		}
		if err := pb.BuildFrom(encodedSource(encs), 0, b, tdim, jdim, pdim); err != nil {
			t.Fatal(err)
		}
		got := make([]float64, b)
		e.Forward(&pb, &ws, got)
		padded, err := BuildBatch(encs, nil, tdim, jdim, pdim)
		if err != nil {
			t.Fatal(err)
		}
		want := m.Forward(padded)
		for i := range got {
			if math.Abs(got[i]-want[i]) > 1e-12 {
				t.Fatalf("round %d query %d: reused packed %v vs padded %v", round, i, got[i], want[i])
			}
		}
	}
}

// TestPackedBatchErrors mirrors the BuildBatch error contract.
func TestPackedBatchErrors(t *testing.T) {
	if _, err := BuildPackedBatch(nil, 1, 1, 1); err == nil {
		t.Error("empty batch should error")
	}
	e := featurize.Encoded{TableVecs: [][]float64{{1, 2}}}
	if _, err := BuildPackedBatch([]featurize.Encoded{e}, 5, 1, 1); err == nil {
		t.Error("width mismatch should error")
	}
}

// TestEngineConcurrent drives the engine's pooled-workspace paths from many
// goroutines at once; `go test -race ./internal/mscn` (run in CI) turns any
// workspace sharing into a failure. Every goroutine checks its results
// against the sequentially computed reference.
func TestEngineConcurrent(t *testing.T) {
	const tdim, jdim, pdim = 21, 4, 8
	rng := rand.New(rand.NewSource(11))
	m := New(Config{HiddenUnits: 16, BatchSize: 8, Seed: 5}, tdim, jdim, pdim)
	e := m.Engine()

	encs := make([]featurize.Encoded, 48)
	for i := range encs {
		encs[i] = randEnc(rng, 1+rng.Intn(4), rng.Intn(4), rng.Intn(4), tdim, jdim, pdim)
	}
	padded, err := BuildBatch(encs, nil, tdim, jdim, pdim)
	if err != nil {
		t.Fatal(err)
	}
	ref := make([]float64, len(encs))
	copy(ref, m.Forward(padded))

	var wg sync.WaitGroup
	errs := make(chan error, 16)
	for g := 0; g < 16; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for iter := 0; iter < 30; iter++ {
				if (g+iter)%2 == 0 {
					i := (g*31 + iter) % len(encs)
					y, err := e.Predict(encs[i])
					if err != nil {
						errs <- err
						return
					}
					if math.Abs(y-ref[i]) > 1e-12 {
						errs <- errMismatch(i, y, ref[i])
						return
					}
				} else {
					out := make([]float64, len(encs))
					if err := e.PredictSourceInto(context.Background(), encodedSource(encs), len(encs), out); err != nil {
						errs <- err
						return
					}
					for i := range out {
						if math.Abs(out[i]-ref[i]) > 1e-12 {
							errs <- errMismatch(i, out[i], ref[i])
							return
						}
					}
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

type mismatchError struct {
	i         int
	got, want float64
}

func (e mismatchError) Error() string {
	return "concurrent result mismatch"
}

func errMismatch(i int, got, want float64) error {
	return mismatchError{i: i, got: got, want: want}
}

// predictBatch returns the engine's batched predictions for encs.
func predictBatch(t testing.TB, e *Engine, encs []featurize.Encoded) []float64 {
	t.Helper()
	out := make([]float64, len(encs))
	if err := e.PredictSourceInto(context.Background(), encodedSource(encs), len(encs), out); err != nil {
		t.Fatal(err)
	}
	return out
}

// TestPredictSourceMatchesEncoded: the direct-featurization batch path must
// agree with the Encoded single-query path bit for bit (every kernel sums
// each output in ascending k whatever the batch around it), both on this machine's
// GOMAXPROCS and with the multicore chunk fan-out forced on (this exercises
// the parallel worker pool even on a 1-core box).
func TestPredictSourceMatchesEncoded(t *testing.T) {
	const tdim, jdim, pdim = 19, 3, 7
	rng := rand.New(rand.NewSource(21))
	m := New(Config{HiddenUnits: 12, BatchSize: 16, Seed: 2}, tdim, jdim, pdim)
	e := m.Engine()

	encs := make([]featurize.Encoded, 100)
	for i := range encs {
		encs[i] = randEnc(rng, 1+rng.Intn(4), rng.Intn(4), rng.Intn(4), tdim, jdim, pdim)
	}
	want := make([]float64, len(encs))
	for i, enc := range encs {
		y, err := e.Predict(enc)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = y
	}
	check := func() {
		t.Helper()
		got := predictBatch(t, e, encs)
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("query %d: source path %v vs encoded path %v", i, got[i], want[i])
			}
		}
	}
	check()
	prev := runtime.GOMAXPROCS(4)
	defer runtime.GOMAXPROCS(prev)
	check()
}

// failingSource fails EncodeTo on query 0 and counts EncodeTo calls; every
// other query takes a while, so a worker that kept pulling chunks after the
// failure would be seen encoding them.
type failingSource struct{ encoded atomic.Int64 }

func (s *failingSource) EncodeTo(i int, t, j, p *nn.RunIndex) error {
	s.encoded.Add(1)
	if i == 0 {
		return errors.New("query 0 does not encode")
	}
	time.Sleep(100 * time.Microsecond)
	t.Add(0, 1, 1)
	for _, ix := range []*nn.RunIndex{t, j, p} {
		ix.EndRow()
	}
	return nil
}

// TestPredictSourceStopsAfterFirstError: on multicore, once a chunk fails no
// worker starts another, so at most one chunk per worker is encoded.
func TestPredictSourceStopsAfterFirstError(t *testing.T) {
	procs := max(runtime.GOMAXPROCS(0), 2)
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
	const bs, n = 8, 4000
	m := New(Config{HiddenUnits: 4, BatchSize: bs, Seed: 1}, 3, 2, 2)
	src := &failingSource{}
	if err := m.Engine().PredictSourceInto(context.Background(), src, n, make([]float64, n)); err == nil {
		t.Fatal("a failing query returned no error")
	}
	if got, limit := src.encoded.Load(), int64(procs*bs); got > limit {
		t.Fatalf("EncodeTo ran for %d of %d queries after query 0 failed; %d workers × %d-query chunks allow %d", got, n, procs, bs, limit)
	}
}

// TestForwardPackedZeroAlloc: the steady-state packed forward pass must not
// touch the heap — also with table rows wider than 1,024 columns (sample
// size past ~1,018) into 256 units, where a row's runs outgrow any small
// fixed buffer.
func TestForwardPackedZeroAlloc(t *testing.T) {
	for _, c := range []struct{ tdim, units int }{{30, 32}, {1100, 256}} {
		const jdim, pdim = 6, 10
		rng := rand.New(rand.NewSource(9))
		m := New(Config{HiddenUnits: c.units, Seed: 1}, c.tdim, jdim, pdim)
		e := m.Engine()
		encs := make([]featurize.Encoded, 32)
		for i := range encs {
			encs[i] = randEnc(rng, 1+rng.Intn(4), rng.Intn(4), 1+rng.Intn(3), c.tdim, jdim, pdim)
		}
		pb, err := BuildPackedBatch(encs, c.tdim, jdim, pdim)
		if err != nil {
			t.Fatal(err)
		}
		var ws nn.Workspace
		out := make([]float64, len(encs))
		e.Forward(pb, &ws, out) // warm the workspace to steady state
		allocs := testing.AllocsPerRun(50, func() {
			e.Forward(pb, &ws, out)
		})
		if allocs != 0 {
			t.Fatalf("%d→%d units: steady-state packed Forward allocates %.1f times per op, want 0", c.tdim, c.units, allocs)
		}
	}
}
