package mscn

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"deepsketch/internal/featurize"
	"deepsketch/internal/nn"
)

// trainExamples builds randomized ragged training examples (mixed set
// shapes, including empty joins/predicates) with matching label norm.
func trainExamples(rng *rand.Rand, n, tdim, jdim, pdim int) ([]Example, nn.LabelNorm) {
	encs := make([]featurize.Encoded, n)
	cards := make([]int64, n)
	for i := range encs {
		encs[i] = randEnc(rng, 1+rng.Intn(4), rng.Intn(4), rng.Intn(4), tdim, jdim, pdim)
		cards[i] = int64(1 + rng.Intn(1_000_000))
	}
	return encodedExamples(encs, cards), nn.NewLabelNorm(cards)
}

// encodedExamples returns one example per encs[i], labeled cards[i], all
// over one encodedSource.
func encodedExamples(encs []featurize.Encoded, cards []int64) []Example {
	var src QuerySource = encodedSource(encs)
	examples := make([]Example, len(encs))
	for i := range encs {
		examples[i] = Example{Src: src, I: i, Card: cards[i]}
	}
	return examples
}

// encOf returns the dense rows of an example over an encodedSource.
func encOf(ex Example) featurize.Encoded { return ex.Src.(encodedSource)[ex.I] }

// encsOf returns the dense rows of examples over encodedSources.
func encsOf(examples []Example) []featurize.Encoded {
	encs := make([]featurize.Encoded, len(examples))
	for i, ex := range examples {
		encs[i] = encOf(ex)
	}
	return encs
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
				encs = append(encs, encOf(train[idx]))
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

// TestTrainParallelReproducible: every parallelism trains the bits P=1
// does — weights, Adam state and the epoch record — because each parameter
// gradient sums its rows in query order whatever the shards. Epoch 1's first
// minibatch gives P=3's middle shard (its queries 6–10) no join and no
// predicate rows, so that shard has nothing for two set modules.
func TestTrainParallelReproducible(t *testing.T) {
	const tdim, jdim, pdim = 23, 4, 7
	const n = 70
	rng := rand.New(rand.NewSource(72))
	examples, norm := trainExamples(rng, n, tdim, jdim, pdim)
	cfg := Config{HiddenUnits: 12, Epochs: 2, BatchSize: 16, Seed: 9}

	// Reproduce the run's shuffles to find the minibatch's queries.
	srng := trainRand(cfg.Seed)
	perm := shuffle(srng, n)
	order := shuffle(srng, n-int(float64(n)*New(cfg, tdim, jdim, pdim).Cfg.ValFrac))
	encs := examples[0].Src.(encodedSource)
	for _, i := range order[6:11] {
		encs[perm[i]] = randEnc(rng, 1+rng.Intn(4), 0, 0, tdim, jdim, pdim)
	}

	train := func(p int) string {
		m := New(cfg, tdim, jdim, pdim)
		stats, err := m.TrainWithOptions(examples, norm, nil, TrainOptions{Parallelism: p})
		if err != nil {
			t.Fatal(err)
		}
		return trainFingerprint(m, stats)
	}
	want := train(1)
	for _, p := range []int{2, 3} {
		if got := train(p); got != want {
			t.Errorf("P=%d trains fingerprint %s, P=1 %s", p, got, want)
		}
	}
}

// TestTrainParallelismExceedsBatch: more workers than examples (and a batch
// smaller than the worker count) must train the bits P=1 does; the workers
// without a shard take only parameter-gradient ranges.
func TestTrainParallelismExceedsBatch(t *testing.T) {
	const tdim, jdim, pdim = 11, 3, 5
	rng := rand.New(rand.NewSource(73))
	examples, norm := trainExamples(rng, 9, tdim, jdim, pdim)
	cfg := Config{HiddenUnits: 8, Epochs: 2, BatchSize: 4, Seed: 2}
	train := func(p int) string {
		m := New(cfg, tdim, jdim, pdim)
		stats, err := m.TrainWithOptions(examples, norm, nil, TrainOptions{Parallelism: p})
		if err != nil {
			t.Fatal(err)
		}
		return trainFingerprint(m, stats)
	}
	if got, want := train(8), train(1); got != want {
		t.Errorf("P=8 on 4-query batches trains fingerprint %s, serial %s", got, want)
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
		tr := newPackedTrainer(m, m.Params(), nil, p)
		defer tr.stop()
		for _, n := range []int{0, 1, 2, 8, 17, 53} {
			got := make([]float64, n)
			if err := tr.predict(encodedSource(encs), got); err != nil {
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
// otherwise the engine's snapshot and element memo, both tagged
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
	bad := examples[perm[order[batch]]]
	encs := bad.Src.(encodedSource)
	encs[bad.I].TableVecs = append([][]float64(nil), encs[bad.I].TableVecs...)
	encs[bad.I].TableVecs[0] = make([]float64, tdim+1)

	e := m.Engine()
	m.SetPrecision(F32) // cache an F32 snapshot and fill its memo; checked first below
	predictBatch(t, e, probe)
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
				t.Fatalf("precision %d query %d: the model's engine predicts %v, a fresh engine %v", p, i, got[i], want[i])
			}
		}
	}
}

// TestTrainForwardDedupeMatchesFull: the trainer forwards each distinct set
// row once and copies h1 and h2 to its duplicates, so its tape (h1, h2,
// out) must be, bit for bit, that of a forward computing every row — the
// same batch with each row its own representative. The minibatch plants
// duplicate table, join and predicate rows within and across queries, and
// its second shard has no join or predicate row. At 32 units the dense
// second layer runs four-row tiles where the CPU has them, so deduplicated
// rows share tiles with other rows than in the full forward.
func TestTrainForwardDedupeMatchesFull(t *testing.T) {
	const jdim, pdim = 5, 9
	a, b, c := tableRow(0, 40), tableRow(1, 25), tableRow(0, 39)
	j1, j2 := oneHot(jdim, 1), oneHot(jdim, 3)
	p1 := []float64{0, 1, 0, 0, 0.25, 0, 0, 1, 0}
	p2 := []float64{1, 0, 0, 0, 0, 0.75, 1, 0, 0}
	encs := []featurize.Encoded{
		{TableVecs: [][]float64{a, a, b}, JoinVecs: [][]float64{j1, j1}, PredVecs: [][]float64{p1, p2, p1}},
		{TableVecs: [][]float64{b, c}, JoinVecs: [][]float64{j1, j2}, PredVecs: [][]float64{p2}},
		{TableVecs: [][]float64{a}},
		{TableVecs: [][]float64{c, a, c}},
	}
	for _, h := range []int{12, 32} {
		m := New(Config{HiddenUnits: h, Seed: 9}, memoT+memoBits, jdim, pdim)
		tr := newPackedTrainer(m, m.Params(), nil, 2)
		defer tr.stop()
		tr.transpose()
		preds := make([]float64, len(encs))
		err := tr.forEachShard(len(encs), func(w, lo, hi int) error {
			return tr.workers[w].forward(m, &tr.w, encodedSource(encs), lo, preds[lo:hi])
		})
		if err != nil {
			t.Fatal(err)
		}
		skipped := [3]int{}
		for w, wk := range tr.workers {
			var full PackedBatch
			if err := full.BuildFrom(encodedSource(encs), 2*w, 2*w+2, m.TDim, m.JDim, m.PDim); err != nil {
				t.Fatal(err)
			}
			for k := range full.keys {
				for r, q := range wk.pb.keys[k].rep {
					if q != r {
						skipped[k]++
					}
					full.keys[k].rep[r] = r
				}
			}
			var ws nn.Workspace
			ws.Reserve(forwardFloats(&full, h))
			var act activations
			out := make([]float64, full.B)
			forwardPacked(&tr.w, &full, nil, &ws, &act, out)
			same := func(what string, got, want nn.Matrix) {
				t.Helper()
				for i := range want.Data {
					if math.Float64bits(got.Data[i]) != math.Float64bits(want.Data[i]) {
						t.Fatalf("h=%d shard %d %s: element %d (row %d) deduped %v, full %v",
							h, w, what, i, i/max(want.Cols, 1), got.Data[i], want.Data[i])
					}
				}
			}
			for k := 0; k < 3; k++ {
				same(fmt.Sprint("h1 of set ", k), wk.tp.h1[k], act.h1[k])
				same(fmt.Sprint("h2 of set ", k), wk.tp.h2[k], act.h2[k])
			}
			same("out", wk.tp.out, act.out)
			if nj, np := len(wk.pb.keys[1].rep), len(wk.pb.keys[2].rep); w == 1 && (nj != 0 || np != 0) {
				t.Fatalf("shard 1 has %d join and %d predicate rows, want none", nj, np)
			}
		}
		for k, n := range skipped {
			if n == 0 {
				t.Fatalf("h=%d: no row of set %d was deduplicated", h, k)
			}
		}
	}
}
