package mscn

import (
	"bytes"
	"math"
	"math/rand"
	"strings"
	"testing"

	"deepsketch/internal/featurize"
	"deepsketch/internal/nn"
)

// f32EngineTol bounds the per-query relative deviation of the f32 forward
// vs the f64 reference on the normalized (0,1) output. The JOB-light
// fixture gate in the repo root additionally bounds the resulting q-error
// deviation to <1%.
const f32EngineTol = 1e-4

// TestEngineF32Equivalence: the f32 engine must match the f64 engine per
// query across randomized ragged shapes — empty sets, singleton batches,
// JOB-light-like chains — within fp32 tolerance, on both the batch and the
// pooled single-Predict paths.
func TestEngineF32Equivalence(t *testing.T) {
	const tdim, jdim, pdim = 37, 5, 11
	rng := rand.New(rand.NewSource(43))
	m := New(Config{HiddenUnits: 32, Seed: 7}, tdim, jdim, pdim)
	e := m.Engine()

	cases := [][][3]int{
		{{1, 1, 1}},
		{{4, 3, 3}},
		{{2, 0, 0}},
		{{1, 0, 2}, {3, 2, 0}},
		// JOB-light shapes: chains of 1..5 tables, joins = tables-1.
		{{1, 0, 1}, {2, 1, 2}, {3, 2, 1}, {4, 3, 3}, {5, 4, 2}},
	}
	for c := 0; c < 20; c++ {
		b := 1 + rng.Intn(65)
		shapes := make([][3]int, b)
		for i := range shapes {
			shapes[i] = [3]int{1 + rng.Intn(5), rng.Intn(5), rng.Intn(5)}
		}
		cases = append(cases, shapes)
	}

	for ci, shapes := range cases {
		encs := make([]featurize.Encoded, len(shapes))
		for i, sh := range shapes {
			encs[i] = randEnc(rng, sh[0], sh[1], sh[2], tdim, jdim, pdim)
		}
		m.SetPrecision(F64)
		want := predictBatch(t, e, encs)
		m.SetPrecision(F32)
		got := predictBatch(t, e, encs)
		for i := range got {
			if d := math.Abs(got[i]-want[i]) / math.Max(want[i], 1e-9); d > f32EngineTol || math.IsNaN(got[i]) {
				t.Errorf("case %d query %d (shape %v): f32 %v vs f64 %v (relΔ=%g)",
					ci, i, shapes[i], got[i], want[i], d)
			}
		}
		for i, enc := range encs {
			y, err := e.Predict(enc)
			if err != nil {
				t.Fatalf("case %d: f32 Predict: %v", ci, err)
			}
			if d := math.Abs(y-want[i]) / math.Max(want[i], 1e-9); d > f32EngineTol {
				t.Errorf("case %d query %d: f32 Predict %v vs f64 %v (relΔ=%g)", ci, i, y, want[i], d)
			}
		}
		m.SetPrecision(F64)
	}
}

// TestForwardPacked32ZeroAlloc mirrors TestForwardPackedZeroAlloc for the
// reduced-precision path: once warmed, the f32 forward may not touch the
// heap.
func TestForwardPacked32ZeroAlloc(t *testing.T) {
	const tdim, jdim, pdim = 30, 6, 10
	rng := rand.New(rand.NewSource(9))
	m := New(Config{HiddenUnits: 32, Seed: 1}, tdim, jdim, pdim)
	e := m.Engine()
	encs := make([]featurize.Encoded, 32)
	for i := range encs {
		encs[i] = randEnc(rng, 1+rng.Intn(4), rng.Intn(4), 1+rng.Intn(3), tdim, jdim, pdim)
	}
	pb, err := BuildPackedBatch(encs, tdim, jdim, pdim)
	if err != nil {
		t.Fatal(err)
	}
	var ws nn.Arena[float32]
	out := make([]float64, len(encs))
	e.forwardReduced(pb, &ws, out) // warm the arena and the weight snapshot
	allocs := testing.AllocsPerRun(50, func() {
		e.forwardReduced(pb, &ws, out)
	})
	if allocs != 0 {
		t.Fatalf("steady-state f32 forward allocates %.1f times per op, want 0", allocs)
	}
}

// TestEngineSnapshotInvalidation: replacing the model's weights (the
// Refresh/Swap path runs through ReadWeights) must invalidate the cached
// f32 snapshot — a stale snapshot would silently serve the old sketch's
// estimates at reduced precision.
func TestEngineSnapshotInvalidation(t *testing.T) {
	const tdim, jdim, pdim = 13, 3, 5
	oldM := New(Config{HiddenUnits: 16, Seed: 21}, tdim, jdim, pdim)
	newM := New(Config{HiddenUnits: 16, Seed: 22}, tdim, jdim, pdim)
	rng := rand.New(rand.NewSource(45))
	enc := randEnc(rng, 2, 1, 2, tdim, jdim, pdim)

	oldM.SetPrecision(F32)
	newM.SetPrecision(F32)
	before, err := oldM.Engine().Predict(enc) // caches the snapshot
	if err != nil {
		t.Fatal(err)
	}
	want, err := newM.Engine().Predict(enc)
	if err != nil {
		t.Fatal(err)
	}
	if before == want {
		t.Fatal("distinct seeds produced equal predictions — test is vacuous")
	}

	var buf bytes.Buffer
	if err := newM.WriteWeights(&buf); err != nil {
		t.Fatal(err)
	}
	if err := oldM.ReadWeights(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := oldM.Engine().Predict(enc)
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Fatalf("after ReadWeights predict = %v, want %v (stale snapshot: before-swap value was %v)",
			got, want, before)
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

	wk := newTrainWorker(m.Params())
	trained := make([]float64, len(encs))
	if err := wk.forward(m, encodedSource(encs), 0, trained); err != nil {
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

// TestPrecisionParseAndClone: flag spellings round-trip and Clone carries
// the serving precision to the copy (Refresh clones must not silently fall
// back to f64).
func TestPrecisionParseAndClone(t *testing.T) {
	for _, c := range []struct {
		s    string
		want Precision
	}{{"f64", F64}, {"", F64}, {"f32", F32}} {
		got, err := ParsePrecision(c.s)
		if err != nil || got != c.want {
			t.Fatalf("ParsePrecision(%q) = %v, %v; want %v", c.s, got, err, c.want)
		}
	}
	// int8 was an engine once; the rejection must name what is left.
	for _, s := range []string{"fp16", "int8"} {
		_, err := ParsePrecision(s)
		if err == nil || !strings.Contains(err.Error(), "f64") || !strings.Contains(err.Error(), "f32") {
			t.Fatalf("ParsePrecision(%q) error = %v, want one naming f64 and f32", s, err)
		}
	}
	m := New(Config{HiddenUnits: 8, Seed: 1}, 3, 2, 2)
	m.SetPrecision(F32)
	if got := m.Clone().Precision(); got != F32 {
		t.Fatalf("Clone precision = %v, want F32", got)
	}
}
