package mscn

import (
	"fmt"
	"math"
	"math/rand"
	"sort"

	"deepsketch/internal/datagen"
	"deepsketch/internal/nn"
	"deepsketch/internal/trainmon"
)

// Example is one training example: query I of Src, and its true
// cardinality. It holds no feature rows: the trainer packs each minibatch
// and each validation chunk through Src, which featurizes the query
// straight into the packed rows the way an estimate is featurized, so a
// run keeps one minibatch of rows per worker whatever its training-set
// size. The examples of one run may come from different sources of the
// model's widths.
type Example struct {
	Src  QuerySource
	I    int
	Card int64
}

// exampleSource is a QuerySource over examples: entry i is query
// examples[i].I of examples[i].Src. The trainer packs a shuffled minibatch
// through it.
type exampleSource []Example

func (s exampleSource) RowCounts(i int) (t, j, p int) { return s[i].Src.RowCounts(s[i].I) }

func (s exampleSource) EncodeTo(i int, nextT, nextJ, nextP func() []float64) error {
	return s[i].Src.EncodeTo(s[i].I, nextT, nextJ, nextP)
}

// EpochStats captures one epoch of training for monitoring and the epoch-
// convergence experiment (E7). It is part of the sketch file, so it holds
// only what the training run computes, never a wall-clock reading.
type EpochStats struct {
	Epoch     int
	TrainLoss float64
	ValMeanQ  float64
	ValMedQ   float64
}

// TrainWithOptions fits the model on examples under the label
// normalization norm, which must already be fitted on the training
// cardinalities (Encoder.FitLabels). A validation split (Cfg.ValFrac, taken
// deterministically from the shuffled tail) is evaluated after every epoch;
// per-epoch metrics stream to mon and are returned.
//
// Training runs on the packed representation: each minibatch is sharded
// contiguously across opts.Parallelism workers, every worker packs its
// shard from the examples' sources (BuildFrom), forwards each distinct set
// element of it once and carries its gradient back layer by layer, row by
// row, with private scratch, while the parameter gradients are split by
// output unit across the workers and summed over all shards in query
// order, and one Adam step applies per minibatch, its element-wise update
// and the next forward's weight transposes split across the same workers —
// so the seed fixes every weight bit, whatever the parallelism. A source
// error (a query its encoder cannot featurize) ends the run with that
// error.
//
// opts.Resume warm-starts the optimizer from an exported state; opts.Epochs
// overrides the configured epoch budget; opts.StopAtValQ stops early once
// the validation mean q-error is good enough. After training the final
// optimizer state is captured on the model (OptState) for the next resume.
//
// Each epoch validates on the trainer's own workers (packedTrainer.predict):
// the float64 forward over the live weights that training itself runs, so
// StopAtValQ never depends on the inference engine, its serving precision or
// its weight-generation tag.
//
// Bitwise reproducibility is pinned by tests, not by annotation:
// TestTrainFingerprint hashes the trained weights and Adam state at
// parallelism 1, 2, 3 and 8 against one set of constants, and
// TestTrainDeterminism and TestTrainParallelReproducible retrain and
// compare bit for bit. A global-source draw, a wall-clock seed or a
// summation order that follows the shards on this path fails them.
func (m *Model) TrainWithOptions(examples []Example, norm nn.LabelNorm, mon *trainmon.Monitor, opts TrainOptions) ([]EpochStats, error) {
	if len(examples) == 0 {
		return nil, fmt.Errorf("mscn: no training examples")
	}
	rng := trainRand(m.Cfg.Seed)

	// Deterministic shuffle, then split off validation tail.
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
	val := shuffled[len(shuffled)-nVal:]

	ys := make([]float64, len(train))
	for i, ex := range train {
		ys[i] = norm.Normalize(ex.Card)
	}

	opt := nn.NewAdam(m.Cfg.LearningRate, m.Cfg.ClipNorm)
	params := m.Params()
	if opts.Resume != nil {
		if err := opt.RestoreState(params, opts.Resume); err != nil {
			return nil, err
		}
	}
	epochs := opts.epochs(m.Cfg)
	tr := newPackedTrainer(m, params, opt, opts.workers())
	defer tr.stop()
	mon.TrainStart(tr.parallelism(), len(train), len(val))
	stats := make([]EpochStats, 0, epochs)

	qs := make([]float64, len(val)) // validation predictions, then their q-errors

	// The trainer state (packed batches, workspaces, helper goroutines) and
	// the staging slices live across every step of every epoch: steady-state
	// training allocates nothing per step beyond what featurization, shape
	// growth and the closures of the step's shard forks demand.
	var (
		batch   exampleSource
		targets []float64
	)
	// From here Adam steps the live weights, so every return — a step or
	// validation error mid-run included — leaves weights no engine snapshot
	// or element memo of the old generation may be served beside.
	defer m.noteWeightsChanged()
	for epoch := 1; epoch <= epochs; epoch++ {
		order := shuffle(rng, len(train))
		var lossSum float64
		var batches int
		for lo := 0; lo < len(order); lo += m.Cfg.BatchSize {
			hi := lo + m.Cfg.BatchSize
			if hi > len(order) {
				hi = len(order)
			}
			batch = batch[:0]
			targets = targets[:0]
			for _, idx := range order[lo:hi] {
				batch = append(batch, train[idx])
				targets = append(targets, ys[idx])
			}
			loss, err := tr.step(batch, targets, norm)
			if err != nil {
				return stats, err
			}
			tr.update()
			lossSum += loss
			batches++
		}
		st := EpochStats{Epoch: epoch, TrainLoss: lossSum / float64(batches)}
		if len(val) > 0 {
			if err := tr.predict(exampleSource(val), qs); err != nil {
				return stats, err
			}
			for i, ex := range val {
				qs[i] = norm.QErrorOf(qs[i], norm.Normalize(ex.Card))
			}
			st.ValMeanQ = mean(qs)
			st.ValMedQ = median(qs)
		}
		stats = append(stats, st)
		mon.Epoch(epoch, st.TrainLoss, st.ValMeanQ, st.ValMedQ)
		if opts.StopAtValQ > 0 && len(val) > 0 && !math.IsNaN(st.ValMeanQ) && st.ValMeanQ <= opts.StopAtValQ {
			break
		}
	}
	m.optState = opt.ExportState(params)
	return stats, nil
}

// trainRand derives the training RNG (shuffles, validation split) from the
// model seed; exposed within the package so tests can reproduce the split.
func trainRand(seed int64) *rand.Rand { return datagen.NewRand(seed ^ 0x7ea1) }

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	c := make([]float64, len(xs))
	copy(c, xs)
	sort.Float64s(c)
	n := len(c)
	if n%2 == 1 {
		return c[n/2]
	}
	return (c[n/2-1] + c[n/2]) / 2
}
