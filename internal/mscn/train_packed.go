package mscn

import (
	"runtime"
	"sync"

	"deepsketch/internal/nn"
)

// TrainOptions says how one training run executes — how many workers, where
// the optimizer starts, when it stops; Config says what model is trained.
// There is one schedule: train an epoch, validate it on the same workers,
// report, maybe stop.
type TrainOptions struct {
	// Parallelism is the number of data-parallel workers each minibatch is
	// sharded across. Every worker packs and backpropagates its own
	// contiguous shard with a private workspace arena and private gradient
	// buffers; per-step gradients reduce in fixed worker order into the
	// shared parameters before one Adam step, so a fixed (seed, parallelism)
	// pair reproduces bitwise-identical weights on any machine. 0 uses
	// GOMAXPROCS; 1 is fully serial (and the reference the padded-path
	// equivalence tests compare against).
	Parallelism int
	// Resume warm-starts the optimizer from a previous run's exported state
	// (Adam moments + step count, see Model.OptState). The moments carry
	// the per-parameter learning-rate adaptation, so fine-tuning on a
	// drift-delta workload converges in a fraction of full-build epochs.
	// The state is copied on restore; the caller's value is not mutated.
	// Nil trains from a cold optimizer as before.
	Resume *nn.OptState
	// Epochs overrides Config.Epochs when > 0 — refresh fine-tunes run a
	// short budget without rewriting the model's build-time config.
	Epochs int
	// StopAtValQ stops training early once the epoch's validation mean
	// q-error reaches this value or better (requires a validation split;
	// 0 disables). Refreshes use it to train "until as good as the old
	// sketch" instead of a fixed epoch count.
	StopAtValQ float64
}

func (o TrainOptions) workers() int {
	if o.Parallelism > 0 {
		return o.Parallelism
	}
	return runtime.GOMAXPROCS(0)
}

func (o TrainOptions) epochs(cfg Config) int {
	if o.Epochs > 0 {
		return o.Epochs
	}
	return cfg.Epochs
}

// Indices into Model.Params() / trainWorker.grads, fixed by the Params()
// serialization contract: layer li of Model.layers contributes W at 2·li
// and b at 2·li+1, so set module k's layers sit at Params indices 4k..4k+3.
const (
	gradOut1W = 12
	gradOut1B = 13
	gradOut2W = 14
	gradOut2B = 15
)

// trainWorker is the private state of one data-parallel worker: a packed
// sub-batch, a workspace arena for the step's intermediates, the forward's
// activations kept as the backward's tape (they alias the arena and live
// exactly one step), and gradient buffers mirroring Model.Params(). Nothing
// here is ever shared between workers, which is what keeps the parallel
// path race-free and the reduction deterministic.
type trainWorker struct {
	pb      PackedBatch
	ws      nn.Workspace
	tp      activations[float64]
	grads   [][]float64 // parallel to Model.Params()
	lossSum float64     // per-shard loss sum of the current step
}

func newTrainWorker(params []*nn.Param) *trainWorker {
	w := &trainWorker{grads: make([][]float64, len(params))}
	for i, p := range params {
		w.grads[i] = make([]float64, len(p.Data))
	}
	return w
}

// zeroGrads clears the private gradient accumulators for the next step.
func (wk *trainWorker) zeroGrads() {
	for _, g := range wk.grads {
		for i := range g {
			g[i] = 0
		}
	}
}

// forward packs queries lo..lo+len(preds) of src with BuildFrom's fill half
// (no dedupe keys: the trainer forwards every row) and runs forwardPacked on
// w, the trainer's transposed copy of the live weights, with no element
// table, keeping the activations as the tape and writing normalized
// predictions into preds. The workspace is reserved for the whole step —
// forward and backward — so the backward Allocs continue the same arena.
func (wk *trainWorker) forward(m *Model, w *weights[float64], src QuerySource, lo int, preds []float64) error {
	if err := wk.pb.fill(src, lo, lo+len(preds), m.TDim, m.JDim, m.PDim); err != nil {
		return err
	}
	b := wk.pb.B
	h := m.Cfg.HiddenUnits
	nt, nj, np := wk.pb.Rows()
	// Backward: dOut + dOA1 + dConcat (3bh) + dPool + 2 hidden gradients
	// per set row. One Reserve covers both phases.
	wk.ws.Reserve(forwardFloats(&wk.pb, h) + 2*(nt+nj+np)*h + 5*b*h + b)

	xs, _ := wk.pb.sets()
	forwardPacked(w, &wk.pb, xs, nil, &wk.ws, &wk.tp, preds)
	return nil
}

// backward backpropagates the shard's loss gradient dPreds through the tape
// into the worker's private gradient buffers (which it first zeroes).
func (wk *trainWorker) backward(m *Model, dPreds []float64) {
	wk.zeroGrads()
	b := wk.pb.B
	h := m.Cfg.HiddenUnits
	tp := &wk.tp

	dOut := wk.ws.Alloc(b, 1)
	copy(dOut.Data, dPreds)
	nn.SigmoidBackwardInPlace(tp.out, dOut)
	dOA1 := wk.ws.Alloc(b, h)
	m.out2.BackwardFused(tp.oA1, dOut, &dOA1, wk.grads[gradOut2W], wk.grads[gradOut2B])
	nn.ReLUBackwardInPlace(tp.oA1, dOA1)
	dConcat := wk.ws.Alloc(b, 3*h)
	m.out1.BackwardFused(tp.concat, dOA1, &dConcat, wk.grads[gradOut1W], wk.grads[gradOut1B])

	dPool := wk.ws.Alloc(b, h)
	xs, offs := wk.pb.sets()
	layers := m.layers()
	for k := 0; k < 3; k++ {
		off := k * h
		for bi := 0; bi < b; bi++ {
			copy(dPool.Row(bi), dConcat.Row(bi)[off:off+h])
		}
		rows := xs[k].Rows
		if rows == 0 {
			// Every query's set is empty: the pool emitted zeros, no
			// elements exist to receive gradient, and the module's layers
			// saw no input this step.
			continue
		}
		dH2 := wk.ws.Alloc(rows, h)
		nn.SegmentAvgPoolBackward(dPool, offs[k], dH2)
		nn.ReLUBackwardInPlace(tp.h2[k], dH2)
		dH1 := wk.ws.Alloc(rows, h)
		layers[2*k+1].BackwardFused(tp.h1[k], dH2, &dH1, wk.grads[4*k+2], wk.grads[4*k+3])
		nn.ReLUBackwardInPlace(tp.h1[k], dH1)
		layers[2*k].BackwardIndexed(xs[k], &wk.pb.keys[k].runs, dH1, wk.grads[4*k], wk.grads[4*k+1])
	}
}

// packedTrainer drives the data-parallel packed training steps: shard the
// minibatch contiguously across workers, run pack+forward+loss+backward per
// shard (one fork/join per step — per-sample loss gradients depend only on
// their own prediction, so no barrier is needed between phases), then
// reduce the private gradients into the shared parameters in fixed worker
// order and let the caller take one Adam step. Each worker featurizes its
// own shard from the minibatch's QuerySource, so the only feature rows
// alive are the workers' packed batches.
//
// The forward runs on w, one transposed copy of the live weights that
// every worker reads: transpose rewrites it in place once per step, before
// the shards fork, and once per predict. The backward reads the live
// [out][in] weights.
type packedTrainer struct {
	m       *Model
	w       weights[float64]
	params  []*nn.Param
	workers []*trainWorker
	errs    []error // per-worker step errors, reused across steps
	preds   []float64
	grad    []float64
	// reduceOff[i] is the flat offset of params[i] in the concatenated
	// parameter space; reduceTotal its total element count. The gradient
	// reduction shards by contiguous flat ranges over this space.
	reduceOff   []int
	reduceTotal int
}

// minShardedReduce is the flat parameter count below which the reduction
// stays serial: goroutine fork/join costs more than summing a few thousand
// elements.
const minShardedReduce = 1 << 14

func newPackedTrainer(m *Model, params []*nn.Param, parallelism int) *packedTrainer {
	t := &packedTrainer{m: m, params: params}
	t.workers = make([]*trainWorker, parallelism)
	for i := range t.workers {
		t.workers[i] = newTrainWorker(params)
	}
	t.errs = make([]error, parallelism)
	t.reduceOff = make([]int, len(params))
	for i, p := range params {
		t.reduceOff[i] = t.reduceTotal
		t.reduceTotal += len(p.Data)
	}
	return t
}

// reduceRange accumulates the first p workers' private gradients for flat
// parameter elements [lo, hi) into the shared parameter gradients. Per
// element the workers combine in fixed order w=0..p-1 — exactly the serial
// reduction's summation tree — so sharding the flat space across goroutines
// changes nothing bitwise.
func (t *packedTrainer) reduceRange(p, lo, hi int) {
	for i, param := range t.params {
		off := t.reduceOff[i]
		end := off + len(param.Grad)
		if end <= lo || off >= hi {
			continue
		}
		s := max(lo, off) - off
		e := min(hi, end) - off
		dst := param.Grad[s:e]
		for w := 0; w < p; w++ {
			src := t.workers[w].grads[i][s:e]
			for j, g := range src {
				dst[j] += g
			}
		}
	}
}

// reduce combines the per-worker gradients into the shared parameters. With
// one worker (or a small model) it is the plain serial loop; otherwise the
// flat parameter space is split into one contiguous shard per worker and
// the shards reduce concurrently — at high parallelism on wide models the
// serial reduction is the Amdahl term of the step, and sharding it keeps
// the sequential fraction flat as P grows.
func (t *packedTrainer) reduce(p int) {
	shards := len(t.workers)
	if p == 1 || shards == 1 || t.reduceTotal < minShardedReduce {
		t.reduceRange(p, 0, t.reduceTotal)
		return
	}
	chunk := (t.reduceTotal + shards - 1) / shards
	var wg sync.WaitGroup
	for s := 0; s < shards; s++ {
		lo := s * chunk
		hi := min(lo+chunk, t.reduceTotal)
		if lo >= hi {
			break
		}
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			t.reduceRange(p, lo, hi)
		}(lo, hi)
	}
	wg.Wait()
}

// parallelism reports the configured worker count.
func (t *packedTrainer) parallelism() int { return len(t.workers) }

// shards is how many workers n queries are split across: every worker, or
// one per query when there are fewer queries than workers.
func (t *packedTrainer) shards(n int) int { return min(len(t.workers), n) }

// forEachShard splits [0, n) into shards(n) contiguous shards — worker w
// takes [lo(w), lo(w+1)), the first n%p shards one element longer — and runs
// fn on each: inline with one shard, otherwise one fork/join. It returns the
// first error in worker order. Shard w may use t.workers[w] and nothing
// another shard touches.
func (t *packedTrainer) forEachShard(n int, fn func(w, lo, hi int) error) error {
	p := t.shards(n)
	if p <= 1 {
		if n == 0 {
			return nil
		}
		return fn(0, 0, n)
	}
	errs := t.errs[:p]
	var wg sync.WaitGroup
	lo := 0
	for w := 0; w < p; w++ {
		hi := lo + n/p
		if w < n%p {
			hi++
		}
		wg.Add(1)
		go func(w, lo, hi int) {
			defer wg.Done()
			errs[w] = fn(w, lo, hi)
		}(w, lo, hi)
		lo = hi
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// step runs one minibatch, the len(targets) queries of src: returns the
// mean loss with parameter gradients accumulated (the caller applies the
// optimizer step). src and targets are staged by the caller in shuffled
// order.
func (t *packedTrainer) step(src QuerySource, targets []float64, norm nn.LabelNorm) (float64, error) {
	n := len(targets)
	if cap(t.preds) < n {
		t.preds = make([]float64, n)
		t.grad = make([]float64, n)
	}
	preds := t.preds[:n]
	grad := t.grad[:n]
	invN := 1.0 / float64(n)

	transpose(t.m, &t.w)
	err := t.forEachShard(n, func(w, lo, hi int) error {
		wk := t.workers[w]
		if err := wk.forward(t.m, &t.w, src, lo, preds[lo:hi]); err != nil {
			return err
		}
		wk.lossSum = nn.LossSumInto(t.m.Cfg.Loss, norm, preds[lo:hi], targets[lo:hi],
			grad[lo:hi], t.m.Cfg.GradCap, invN)
		wk.backward(t.m, grad[lo:hi])
		return nil
	})
	if err != nil {
		return 0, err
	}

	// Deterministic reduction: loss sums and every gradient element combine
	// in worker order, so a fixed parallelism fixes the summation tree.
	// The gradient reduction itself is sharded by parameter range.
	p := t.shards(n)
	var lossSum float64
	for w := 0; w < p; w++ {
		lossSum += t.workers[w].lossSum
	}
	t.reduce(p)
	return lossSum * invN, nil
}

// predict writes the live weights' normalized predictions for the
// len(preds) queries of src into preds: the forward half of a step, on a
// freshly transposed copy, sharded across the same workers and walked in
// Cfg.BatchSize chunks so each worker's arena stays minibatch-sized. A
// prediction does not depend on its batch or its worker (layer rows and
// segment pools are per query), so any parallelism returns the same bits.
func (t *packedTrainer) predict(src QuerySource, preds []float64) error {
	bs := t.m.Cfg.BatchSize
	transpose(t.m, &t.w)
	return t.forEachShard(len(preds), func(w, lo, hi int) error {
		for ; lo < hi; lo += bs {
			end := min(lo+bs, hi)
			if err := t.workers[w].forward(t.m, &t.w, src, lo, preds[lo:end]); err != nil {
				return err
			}
		}
		return nil
	})
}
