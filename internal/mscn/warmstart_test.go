package mscn

import (
	"math/rand"
	"testing"
)

// TestTrainCapturesOptState: training must leave the final Adam state on the
// model — step count equal to the number of optimizer steps taken, moments
// shaped like the parameters.
func TestTrainCapturesOptState(t *testing.T) {
	const tdim, jdim, pdim = 13, 3, 5
	rng := rand.New(rand.NewSource(81))
	examples, norm := trainExamples(rng, 50, tdim, jdim, pdim)
	cfg := Config{HiddenUnits: 8, Epochs: 3, BatchSize: 16, Seed: 2}
	m := New(cfg, tdim, jdim, pdim)
	if m.OptState() != nil {
		t.Fatal("untrained model has optimizer state")
	}
	if _, err := m.TrainWithOptions(examples, norm, nil, TrainOptions{Parallelism: 1}); err != nil {
		t.Fatal(err)
	}
	st := m.OptState()
	if st == nil {
		t.Fatal("no optimizer state captured")
	}
	// 50 examples, 10% validation → 45 train rows → 3 batches of ≤16, over
	// 3 epochs.
	if want := 3 * 3; st.Step != want {
		t.Errorf("opt state step = %d, want %d", st.Step, want)
	}
	params := m.Params()
	if len(st.M) != len(params) {
		t.Fatalf("opt state has %d moment vectors, want %d", len(st.M), len(params))
	}
	for i, p := range params {
		if len(st.M[i]) != len(p.Data) || len(st.V[i]) != len(p.Data) {
			t.Fatalf("opt state %d shaped %d/%d, want %d", i, len(st.M[i]), len(st.V[i]), len(p.Data))
		}
	}
}

// TestTrainResumeDeterministic: a warm-start resume is part of the
// deterministic training contract — two identical resumes from the same
// clone produce bitwise-identical weights, the step count accumulates
// across runs, and the donor model is untouched.
func TestTrainResumeDeterministic(t *testing.T) {
	const tdim, jdim, pdim = 17, 4, 6
	rng := rand.New(rand.NewSource(82))
	examples, norm := trainExamples(rng, 60, tdim, jdim, pdim)
	delta, _ := trainExamples(rng, 40, tdim, jdim, pdim)
	cfg := Config{HiddenUnits: 8, Epochs: 2, BatchSize: 16, Seed: 3}

	base := New(cfg, tdim, jdim, pdim)
	if _, err := base.TrainWithOptions(examples, norm, nil, TrainOptions{Parallelism: 1}); err != nil {
		t.Fatal(err)
	}
	baseStep := base.OptState().Step
	baseWeights := weightsOf(base)

	resume := func() *Model {
		c := base.Clone()
		if _, err := c.TrainWithOptions(delta, norm, nil, TrainOptions{
			Parallelism: 1, Resume: c.OptState(), Epochs: 2,
		}); err != nil {
			t.Fatal(err)
		}
		return c
	}
	a, b := resume(), resume()
	wa, wb := weightsOf(a), weightsOf(b)
	for i := range wa {
		for j := range wa[i] {
			if wa[i][j] != wb[i][j] {
				t.Fatalf("param %d[%d]: resumed runs differ (%v vs %v)", i, j, wa[i][j], wb[i][j])
			}
		}
	}
	if a.OptState().Step <= baseStep {
		t.Errorf("resumed step = %d, want > base %d", a.OptState().Step, baseStep)
	}
	// The donor stays untouched: weights and state unchanged.
	if d := maxWeightDiff(baseWeights, weightsOf(base)); d != 0 {
		t.Errorf("resume mutated the donor's weights (max diff %g)", d)
	}
	if base.OptState().Step != baseStep {
		t.Errorf("resume mutated the donor's optimizer state")
	}
	// And resuming must actually matter: a cold-optimizer fine-tune from the
	// same weights diverges from the warm one.
	cold := base.Clone()
	if _, err := cold.TrainWithOptions(delta, norm, nil, TrainOptions{Parallelism: 1, Epochs: 2}); err != nil {
		t.Fatal(err)
	}
	if d := maxWeightDiff(wa, weightsOf(cold)); d == 0 {
		t.Error("warm and cold fine-tunes are identical — Resume had no effect")
	}
}

// TestTrainEpochsOverrideAndEarlyStop: opts.Epochs caps the run without
// touching Config, and StopAtValQ ends it as soon as the validation mean
// q-error is good enough.
func TestTrainEpochsOverrideAndEarlyStop(t *testing.T) {
	const tdim, jdim, pdim = 13, 3, 5
	rng := rand.New(rand.NewSource(83))
	examples, norm := trainExamples(rng, 50, tdim, jdim, pdim)
	cfg := Config{HiddenUnits: 8, Epochs: 6, BatchSize: 16, Seed: 4}

	m := New(cfg, tdim, jdim, pdim)
	stats, err := m.TrainWithOptions(examples, norm, nil, TrainOptions{Parallelism: 1, Epochs: 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(stats) != 2 {
		t.Errorf("epochs override: ran %d epochs, want 2", len(stats))
	}

	m2 := New(cfg, tdim, jdim, pdim)
	stats, err = m2.TrainWithOptions(examples, norm, nil, TrainOptions{Parallelism: 1, StopAtValQ: 1e12})
	if err != nil {
		t.Fatal(err)
	}
	if len(stats) != 1 {
		t.Errorf("trivial StopAtValQ: ran %d epochs, want 1", len(stats))
	}
}

// TestModelClone: independent weights, equal predictions, copied optimizer
// state.
func TestModelClone(t *testing.T) {
	const tdim, jdim, pdim = 13, 3, 5
	rng := rand.New(rand.NewSource(84))
	examples, norm := trainExamples(rng, 40, tdim, jdim, pdim)
	m := New(Config{HiddenUnits: 8, Epochs: 2, BatchSize: 16, Seed: 5}, tdim, jdim, pdim)
	if _, err := m.TrainWithOptions(examples, norm, nil, TrainOptions{Parallelism: 1}); err != nil {
		t.Fatal(err)
	}
	c := m.Clone()
	if d := maxWeightDiff(weightsOf(m), weightsOf(c)); d != 0 {
		t.Fatalf("clone weights differ (max diff %g)", d)
	}
	if c.OptState() == nil || c.OptState().Step != m.OptState().Step {
		t.Fatal("clone did not copy optimizer state")
	}
	// Mutating the clone leaves the original alone.
	c.Params()[0].Data[0] += 1
	c.OptState().M[0][0] += 1
	if m.Params()[0].Data[0] == c.Params()[0].Data[0] {
		t.Error("clone shares weight storage with the original")
	}
	if m.OptState().M[0][0] == c.OptState().M[0][0] {
		t.Error("clone shares optimizer state with the original")
	}
}
