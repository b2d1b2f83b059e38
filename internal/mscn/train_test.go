package mscn

import (
	"math"
	"math/rand"
	"testing"

	"deepsketch/internal/featurize"
	"deepsketch/internal/nn"
)

// trainExamples builds randomized ragged training examples (mixed set
// shapes, including empty joins/predicates) with matching label norm.
func trainExamples(rng *rand.Rand, n, tdim, jdim, pdim int) ([]Example, nn.LabelNorm) {
	examples := make([]Example, n)
	cards := make([]int64, n)
	for i := range examples {
		enc := randEnc(rng, 1+rng.Intn(4), rng.Intn(4), rng.Intn(4), tdim, jdim, pdim)
		card := int64(1 + rng.Intn(1_000_000))
		examples[i] = Example{Enc: enc, Card: card}
		cards[i] = card
	}
	return examples, nn.NewLabelNorm(cards)
}

// paddedReferenceTrain replicates the training schedule of TrainWithOptions
// on the padded, masked tape path — the deleted production loop, preserved
// here as the numerical reference the packed path is validated against.
// It must consume the model RNG exactly like TrainWithOptions does.
func paddedReferenceTrain(m *Model, examples []Example, norm nn.LabelNorm) error {
	rng := trainRand(m.Cfg.Seed)
	perm := shuffle(rng, len(examples))
	shuffled := make([]Example, len(examples))
	for i, p := range perm {
		shuffled[i] = examples[p]
	}
	nVal := int(float64(len(shuffled)) * m.Cfg.ValFrac)
	if nVal >= len(shuffled) {
		nVal = len(shuffled) - 1
	}
	train := shuffled[:len(shuffled)-nVal]
	ys := make([]float64, len(train))
	for i, ex := range train {
		ys[i] = norm.Normalize(ex.Card)
	}
	opt := nn.NewAdam(m.Cfg.LearningRate, m.Cfg.ClipNorm)
	params := m.Params()
	var (
		batch   Batch
		tp      tape
		encs    []featurize.Encoded
		targets []float64
	)
	for epoch := 1; epoch <= m.Cfg.Epochs; epoch++ {
		order := shuffle(rng, len(train))
		for lo := 0; lo < len(order); lo += m.Cfg.BatchSize {
			hi := lo + m.Cfg.BatchSize
			if hi > len(order) {
				hi = len(order)
			}
			encs = encs[:0]
			targets = targets[:0]
			for _, idx := range order[lo:hi] {
				encs = append(encs, train[idx].Enc)
				targets = append(targets, ys[idx])
			}
			if err := batch.build(encs, targets, m.TDim, m.JDim, m.PDim); err != nil {
				return err
			}
			preds := m.forward(&batch, &tp)
			_, grad := nn.Loss(m.Cfg.Loss, norm, preds, batch.Y, m.Cfg.GradCap)
			m.backward(&tp, grad)
			opt.Step(params)
		}
	}
	return nil
}

func weightsOf(m *Model) [][]float64 {
	params := m.Params()
	out := make([][]float64, len(params))
	for i, p := range params {
		out[i] = append([]float64(nil), p.Data...)
	}
	return out
}

func maxWeightDiff(a, b [][]float64) float64 {
	var worst float64
	for i := range a {
		for j := range a[i] {
			if d := math.Abs(a[i][j] - b[i][j]); d > worst {
				worst = d
			}
		}
	}
	return worst
}

// TestPackedTrainingMatchesPaddedReference: serial (P=1) packed training
// must match the padded tape reference to 1e-10 on randomized ragged
// batches — same schedule, same loss, same optimizer, different kernels.
func TestPackedTrainingMatchesPaddedReference(t *testing.T) {
	const tdim, jdim, pdim = 29, 5, 9
	rng := rand.New(rand.NewSource(71))
	examples, norm := trainExamples(rng, 90, tdim, jdim, pdim)
	cfg := Config{HiddenUnits: 16, Epochs: 3, BatchSize: 32, Seed: 5}

	packed := New(cfg, tdim, jdim, pdim)
	if _, err := packed.TrainWithOptions(examples, norm, nil, TrainOptions{Parallelism: 1}); err != nil {
		t.Fatal(err)
	}
	padded := New(cfg, tdim, jdim, pdim)
	if err := paddedReferenceTrain(padded, examples, norm); err != nil {
		t.Fatal(err)
	}

	if d := maxWeightDiff(weightsOf(packed), weightsOf(padded)); d > 1e-10 {
		t.Fatalf("packed P=1 vs padded reference: max weight diff %g > 1e-10", d)
	}
}

// TestTrainParallelReproducible: a fixed (seed, parallelism) pair must
// reproduce bitwise-identical weights — the worker-ordered gradient
// reduction leaves nothing to scheduling.
func TestTrainParallelReproducible(t *testing.T) {
	const tdim, jdim, pdim = 23, 4, 7
	rng := rand.New(rand.NewSource(72))
	examples, norm := trainExamples(rng, 70, tdim, jdim, pdim)
	cfg := Config{HiddenUnits: 12, Epochs: 2, BatchSize: 16, Seed: 9}

	train := func(p int) [][]float64 {
		m := New(cfg, tdim, jdim, pdim)
		if _, err := m.TrainWithOptions(examples, norm, nil, TrainOptions{Parallelism: p}); err != nil {
			t.Fatal(err)
		}
		return weightsOf(m)
	}
	a, b := train(3), train(3)
	for i := range a {
		for j := range a[i] {
			if a[i][j] != b[i][j] {
				t.Fatalf("param %d[%d]: %v vs %v — same seed+parallelism must be bitwise identical",
					i, j, a[i][j], b[i][j])
			}
		}
	}

	// Parallel shards only change float summation order, so any
	// parallelism stays numerically close to serial.
	if d := maxWeightDiff(a, train(1)); d > 1e-8 {
		t.Errorf("P=3 vs P=1: max weight diff %g > 1e-8", d)
	}
}

// TestTrainParallelismExceedsBatch: more workers than examples (and a batch
// smaller than the worker count) must still train correctly.
func TestTrainParallelismExceedsBatch(t *testing.T) {
	const tdim, jdim, pdim = 11, 3, 5
	rng := rand.New(rand.NewSource(73))
	examples, norm := trainExamples(rng, 9, tdim, jdim, pdim)
	cfg := Config{HiddenUnits: 8, Epochs: 2, BatchSize: 4, Seed: 2}
	m := New(cfg, tdim, jdim, pdim)
	if _, err := m.TrainWithOptions(examples, norm, nil, TrainOptions{Parallelism: 8}); err != nil {
		t.Fatal(err)
	}
	ref := New(cfg, tdim, jdim, pdim)
	if _, err := ref.TrainWithOptions(examples, norm, nil, TrainOptions{Parallelism: 1}); err != nil {
		t.Fatal(err)
	}
	if d := maxWeightDiff(weightsOf(m), weightsOf(ref)); d > 1e-8 {
		t.Errorf("P=8 on 4-query batches vs serial: max weight diff %g", d)
	}
}

// TestTrainerPredictMatchesEnginePredict: validation's forward (the
// trainer's workers, sharded and chunked) must return, bit for bit and per
// query, what the engine's single-query entry returns on the same weights —
// for fewer queries than workers, counts that do not divide by the worker
// count, and shards that do not divide by the batch size.
func TestTrainerPredictMatchesEnginePredict(t *testing.T) {
	const tdim, jdim, pdim = 19, 4, 7
	rng := rand.New(rand.NewSource(84))
	m := New(Config{HiddenUnits: 12, BatchSize: 8, Seed: 6}, tdim, jdim, pdim)
	encs := make([]featurize.Encoded, 53)
	want := make([]float64, len(encs))
	for i := range encs {
		encs[i] = randEnc(rng, 1+rng.Intn(4), rng.Intn(4), rng.Intn(4), tdim, jdim, pdim)
		y, err := m.Engine().Predict(encs[i])
		if err != nil {
			t.Fatal(err)
		}
		want[i] = y
	}
	for p := 1; p <= 3; p++ {
		tr := newPackedTrainer(m, m.Params(), p)
		for _, n := range []int{0, 1, 2, 8, 17, 53} {
			got := make([]float64, n)
			if err := tr.predict(encs[:n], got); err != nil {
				t.Fatal(err)
			}
			for i := range got {
				if got[i] != want[i] {
					t.Fatalf("P=%d n=%d query %d: trainer %v vs engine %v", p, n, i, got[i], want[i])
				}
			}
		}
	}
}

// TestTrainErrorBumpsWeightGen: a run that fails after Adam has stepped
// leaves new weights, so it must leave a new weight generation too —
// otherwise the engine's f32 snapshot and element table, both tagged
// with the old generation, are served beside rows computed from the new
// weights. The training set's shuffled order reaches a wrong-width example
// in its second minibatch.
func TestTrainErrorBumpsWeightGen(t *testing.T) {
	const tdim, jdim, pdim = memoT + memoBits, 4, 6
	const n, batch = 60, 8
	cfg := Config{HiddenUnits: 12, Epochs: 2, BatchSize: batch, Seed: 9}
	rng := rand.New(rand.NewSource(71))
	examples, norm := trainExamples(rng, n, tdim, jdim, pdim)
	probe := memoEncs(rng, 30, jdim, pdim)

	// Reproduce the run's shuffles to learn which example the second
	// minibatch of epoch 1 starts with.
	m := New(cfg, tdim, jdim, pdim)
	srng := trainRand(m.Cfg.Seed)
	perm := shuffle(srng, n)
	nTrain := n - int(float64(n)*m.Cfg.ValFrac)
	order := shuffle(srng, nTrain)
	bad := &examples[perm[order[batch]]]
	bad.Enc.TableVecs = append([][]float64(nil), bad.Enc.TableVecs...)
	bad.Enc.TableVecs[0] = make([]float64, tdim+1)

	e := m.Engine()
	e.SetReferenceRows(memoReferences())
	for _, p := range []Precision{F32, F64} { // cache the snapshot and both tables
		m.SetPrecision(p)
		predictBatch(t, e, probe)
	}
	gen := m.WeightGen()
	before := weightsOf(m)
	if _, err := m.TrainWithOptions(examples, norm, nil, TrainOptions{Parallelism: 1}); err == nil {
		t.Fatal("training over a wrong-width example succeeded")
	}
	if maxWeightDiff(before, weightsOf(m)) == 0 {
		t.Fatal("the run failed before its first step — the test is vacuous")
	}
	if m.WeightGen() == gen {
		t.Fatalf("WeightGen is still %d after a run that stepped the weights and then failed", gen)
	}
	for _, p := range []Precision{F32, F64} {
		m.SetPrecision(p)
		got, want := predictBatch(t, e, probe), predictBatch(t, NewEngine(m), probe)
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("%v query %d: the model's engine predicts %v, a fresh engine %v", p, i, got[i], want[i])
			}
		}
	}
}
