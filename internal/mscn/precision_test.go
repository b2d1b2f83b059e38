package mscn

import (
	"bytes"
	"math"
	"math/rand"
	"slices"
	"testing"

	"deepsketch/internal/featurize"
	"deepsketch/internal/nn"
)

// roundedClone returns a clone of m at F64 whose weights were rounded
// through float32: the model the F32 engine of m answers as, bit for bit.
func roundedClone(m *Model) *Model {
	c := m.Clone()
	c.SetPrecision(F64)
	for _, p := range c.Params() {
		for i, v := range p.Data {
			p.Data[i] = float64(float32(v))
		}
	}
	return c
}

// TestEngineF32Equivalence pins what F32 means: the F64 engine on weights
// rounded through float32, in every bit. At the serving width (256 units),
// with the element memo and the in-batch dedupe active, the F32 engine's
// Predict, one Forward over a batch of 256 and PredictSourceInto (the
// engine half of Sketch.EstimateBatch) equal a rounded clone's at F64;
// Clone carries F32 to the copy; and a clone of the model set to F64
// serves the unrounded weights' plain forward. Each precision is its own
// clone of one model, whose weights no engine fixes.
func TestEngineF32Equivalence(t *testing.T) {
	const jdim, pdim = 5, 9
	rng := rand.New(rand.NewSource(43))
	base := New(Config{HiddenUnits: 256, BatchSize: 48, Seed: 7}, memoT+memoBits, jdim, pdim)
	m := base.Clone()
	m.SetPrecision(F32)
	ref := roundedClone(m)
	e, want := NewEngine(m), NewEngine(ref)
	encs := append(memoEncs(rng, 200, jdim, pdim), templateEncs(rng, 56, jdim, pdim)...)

	f64 := predictBatch(t, want, encs)
	samePredictions(t, "F32 PredictSourceInto", predictBatch(t, e, encs), f64)
	pb, err := BuildPackedBatch(encs, m.TDim, m.JDim, m.PDim)
	if err != nil {
		t.Fatal(err)
	}
	var ws nn.Workspace
	got := make([]float64, len(encs))
	e.Forward(pb, &ws, got)
	samePredictions(t, "F32 Forward at batch 256", got, f64)
	for i, enc := range encs[:40] {
		y, err := e.Predict(enc)
		if err != nil {
			t.Fatal(err)
		}
		if y != f64[i] {
			t.Fatalf("F32 Predict: query %d = %v, rounded clone at F64 %v", i, y, f64[i])
		}
	}
	samePredictions(t, "a clone of the F32 model", predictBatch(t, m.Clone().Engine(), encs), f64)

	m64 := base.Clone()
	m64.SetPrecision(F64)
	plain := plainPredict(t, base, encs)
	samePredictions(t, "a clone at F64", predictBatch(t, m64.Engine(), encs), plain)
	if slices.Equal(plain, f64) {
		t.Fatal("rounding the weights changed no prediction — the test is vacuous")
	}
}

// TestForwardPacked32ZeroAlloc mirrors TestForwardPackedZeroAlloc at F32:
// once warmed, the forward on the rounded snapshot may not touch the heap.
func TestForwardPacked32ZeroAlloc(t *testing.T) {
	const tdim, jdim, pdim = 30, 6, 10
	rng := rand.New(rand.NewSource(9))
	m := New(Config{HiddenUnits: 32, Seed: 1}, tdim, jdim, pdim)
	m.SetPrecision(F32)
	e := m.Engine()
	encs := make([]featurize.Encoded, 32)
	for i := range encs {
		encs[i] = randEnc(rng, 1+rng.Intn(4), rng.Intn(4), 1+rng.Intn(3), tdim, jdim, pdim)
	}
	pb, err := BuildPackedBatch(encs, tdim, jdim, pdim)
	if err != nil {
		t.Fatal(err)
	}
	var ws nn.Workspace
	out := make([]float64, len(encs))
	e.Forward(pb, &ws, out) // warm the arena and the weight snapshot
	allocs := testing.AllocsPerRun(50, func() {
		e.Forward(pb, &ws, out)
	})
	if allocs != 0 {
		t.Fatalf("steady-state F32 forward allocates %.1f times per op, want 0", allocs)
	}
}

// engineBuilders are the two ways an engine over a model comes to exist.
var engineBuilders = map[string]func(*Model) *Engine{"Model.Engine": (*Model).Engine, "NewEngine": NewEngine}

// TestEngineFixesWeights: once a model has an engine, a training run and
// ReadWeights return an error and change no weight bit, and the engine
// answers as before; a Clone has no engine, and trains and reads weights.
func TestEngineFixesWeights(t *testing.T) {
	const tdim, jdim, pdim = memoT + memoBits, 3, 5
	rng := rand.New(rand.NewSource(45))
	encs := memoEncs(rng, 40, jdim, pdim)
	examples, norm := trainExamples(rng, 48, tdim, jdim, pdim)
	other := New(Config{HiddenUnits: 16, BatchSize: 16, Seed: 22}, tdim, jdim, pdim)
	var file bytes.Buffer
	if err := other.WriteWeights(&file); err != nil {
		t.Fatal(err)
	}
	sameBits := func(a, b [][]float64) bool {
		return slices.EqualFunc(a, b, func(x, y []float64) bool {
			return slices.EqualFunc(x, y, func(u, v float64) bool { return math.Float64bits(u) == math.Float64bits(v) })
		})
	}
	train := func(m *Model) error {
		_, err := m.TrainWithOptions(examples, norm, nil, TrainOptions{Parallelism: 1, Epochs: 1})
		return err
	}
	for name, build := range engineBuilders {
		m := New(Config{HiddenUnits: 16, BatchSize: 16, Seed: 21}, tdim, jdim, pdim)
		e := build(m)
		before, weights := predictBatch(t, e, encs), weightsOf(m)
		if err := train(m); err == nil {
			t.Fatalf("%s: training a model that has an engine succeeded", name)
		}
		if err := m.ReadWeights(bytes.NewReader(file.Bytes())); err == nil {
			t.Fatalf("%s: ReadWeights on a model that has an engine succeeded", name)
		}
		if !sameBits(weightsOf(m), weights) || m.OptState() != nil {
			t.Fatalf("%s: a refused change changed the model", name)
		}
		samePredictions(t, name+": after the refused changes", predictBatch(t, e, encs), before)

		trained, read := m.Clone(), m.Clone()
		if err := train(trained); err != nil {
			t.Fatalf("%s: training a clone: %v", name, err)
		}
		if sameBits(weightsOf(trained), weights) {
			t.Fatalf("%s: training the clone changed no weight — the test is vacuous", name)
		}
		if err := read.ReadWeights(bytes.NewReader(file.Bytes())); err != nil {
			t.Fatalf("%s: ReadWeights on a clone: %v", name, err)
		}
		if !sameBits(weightsOf(read), weightsOf(other)) {
			t.Fatalf("%s: the clone did not read the weights", name)
		}
	}
}

// TestSetPrecisionAfterEnginePanics: the precision is set before the
// model's first engine exists, and SetPrecision panics after, leaving it.
func TestSetPrecisionAfterEnginePanics(t *testing.T) {
	for name, build := range engineBuilders {
		m := New(Config{HiddenUnits: 8, Seed: 1}, 6, 3, 4)
		m.SetPrecision(F32)
		build(m)
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: SetPrecision on a model that has an engine did not panic", name)
				}
			}()
			m.SetPrecision(F64)
		}()
		if m.prec != F32 {
			t.Errorf("%s: the precision is %d after the refused SetPrecision, want F32", name, m.prec)
		}
	}
}

// TestTrainForwardMatchesEngineForward: the packed trainer and the f64
// engine run the same forward, so on the same weights and ragged batch
// (empty sets, singletons, chains) their predictions are the same bits.
func TestTrainForwardMatchesEngineForward(t *testing.T) {
	const tdim, jdim, pdim = 37, 5, 11
	rng := rand.New(rand.NewSource(46))
	m := New(Config{HiddenUnits: 32, Seed: 7}, tdim, jdim, pdim)
	shapes := [][3]int{{1, 0, 0}, {2, 0, 3}, {1, 0, 1}, {5, 4, 2}, {3, 2, 0}, {4, 3, 3}, {2, 1, 1}}
	encs := make([]featurize.Encoded, len(shapes))
	for i, sh := range shapes {
		encs[i] = randEnc(rng, sh[0], sh[1], sh[2], tdim, jdim, pdim)
	}

	wk := new(trainWorker)
	w := newWeights(m)
	trained := make([]float64, len(encs))
	if err := wk.forward(m, &w, encodedSource(encs), 0, trained); err != nil {
		t.Fatal(err)
	}
	pb, err := BuildPackedBatch(encs, tdim, jdim, pdim)
	if err != nil {
		t.Fatal(err)
	}
	var ws nn.Workspace
	served := make([]float64, len(encs))
	m.Engine().Forward(pb, &ws, served)
	for i := range served {
		if trained[i] != served[i] {
			t.Errorf("query %d (shape %v): trainer forward %v != engine forward %v", i, shapes[i], trained[i], served[i])
		}
	}
}
