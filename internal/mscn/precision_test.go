package mscn

import (
	"bytes"
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
	c.noteWeightsChanged()
	return c
}

// TestEngineF32Equivalence pins what F32 means: the F64 engine on weights
// rounded through float32, in every bit. At the serving width (256 units),
// with the element memo and the in-batch dedupe active, the F32 engine's
// Predict, one Forward over a batch of 256 and PredictSourceInto (the
// engine half of Sketch.EstimateBatch) equal a rounded clone's at F64;
// Clone carries F32 to the copy; and switching back to F64 serves the
// unrounded weights' plain forward again.
func TestEngineF32Equivalence(t *testing.T) {
	const jdim, pdim = 5, 9
	rng := rand.New(rand.NewSource(43))
	m := New(Config{HiddenUnits: 256, BatchSize: 48, Seed: 7}, memoT+memoBits, jdim, pdim)
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

	m.SetPrecision(F64)
	plain := plainPredict(t, m, encs)
	samePredictions(t, "back at F64", predictBatch(t, e, encs), plain)
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

// TestEngineSnapshotInvalidation: replacing the model's weights (the
// Refresh/Swap path runs through ReadWeights), a warm-start training run
// (what a refresh does to a model) and a precision switch each start a
// new snapshot with an empty memo — a stale snapshot, or a memo filled on
// other weights, would silently serve the old sketch's estimates. Each
// check predicts a batch whose rows the old memo holds.
func TestEngineSnapshotInvalidation(t *testing.T) {
	const tdim, jdim, pdim = memoT + memoBits, 3, 5
	oldM := New(Config{HiddenUnits: 16, BatchSize: 16, Seed: 21}, tdim, jdim, pdim)
	newM := New(Config{HiddenUnits: 16, BatchSize: 16, Seed: 22}, tdim, jdim, pdim)
	rng := rand.New(rand.NewSource(45))
	encs := memoEncs(rng, 40, jdim, pdim)

	oldM.SetPrecision(F32)
	newM.SetPrecision(F32)
	before := predictBatch(t, oldM.Engine(), encs) // caches the snapshot and fills its memo
	want := predictBatch(t, newM.Engine(), encs)
	if before[0] == want[0] {
		t.Fatal("distinct seeds produced equal predictions — test is vacuous")
	}

	var buf bytes.Buffer
	if err := newM.WriteWeights(&buf); err != nil {
		t.Fatal(err)
	}
	if err := oldM.ReadWeights(&buf); err != nil {
		t.Fatal(err)
	}
	samePredictions(t, "after ReadWeights", predictBatch(t, oldM.Engine(), encs), want)
	got, err := oldM.Engine().Predict(encs[0])
	if err != nil {
		t.Fatal(err)
	}
	if got != want[0] {
		t.Fatalf("after ReadWeights predict = %v, want %v (stale snapshot: before-swap value was %v)",
			got, want[0], before[0])
	}

	// A precision switch: each precision's memo is its own.
	oldM.SetPrecision(F64)
	f64 := plainPredict(t, oldM, encs)
	if slices.Equal(f64, want) {
		t.Fatal("rounding the weights changed no prediction — the test is vacuous")
	}
	samePredictions(t, "after a switch to F64", predictBatch(t, oldM.Engine(), encs), f64)
	oldM.SetPrecision(F32)
	samePredictions(t, "after a switch back to F32", predictBatch(t, oldM.Engine(), encs), want)

	// A refresh: warm-start training steps the weights in place.
	oldM.SetPrecision(F64)
	warm := predictBatch(t, oldM.Engine(), encs)
	examples, norm := trainExamples(rng, 48, tdim, jdim, pdim)
	if _, err := oldM.TrainWithOptions(examples, norm, nil, TrainOptions{Parallelism: 1, Epochs: 1}); err != nil {
		t.Fatal(err)
	}
	refreshed := predictBatch(t, oldM.Engine(), encs)
	if slices.Equal(refreshed, warm) {
		t.Fatal("training changed no prediction — the test is vacuous")
	}
	samePredictions(t, "after a training run", refreshed, plainPredict(t, oldM, encs))
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
