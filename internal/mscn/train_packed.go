package mscn

import (
	"runtime"
	"sync"

	"deepsketch/internal/nn"
	"deepsketch/internal/pressure"
	"deepsketch/internal/trainmon"
)

// TrainOptions says how one training run executes — how many workers, where
// the optimizer starts, when it stops; Config says what model is trained.
// There is one schedule: train an epoch, validate it on the same workers,
// report, maybe stop.
type TrainOptions struct {
	// Parallelism is the number of data-parallel workers a step's
	// minibatch is sharded across at full width. Every worker packs,
	// forwards and backpropagates its own contiguous shard with a private
	// workspace arena, and accumulates a range of each layer's output
	// units' parameter gradients over every shard in query order, so the
	// weights are the same bits at every parallelism: it sets throughput,
	// never the result. 0 uses GOMAXPROCS; 1 is fully serial. Every
	// production caller passes 0; benchmarks and tests set it to compare
	// widths in one process.
	//
	// Each step decides its own width: Parallelism, or max(1,
	// Parallelism−1) if a serving request was in flight in the process at
	// any moment since the previous step began (pressure.Watch), so a
	// daemon that trains beside serving leaves one core to its requests.
	// The monitor's epoch events count the steps at each width.
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

// Indices into Model.layers(): set module k's layers are 2k and 2k+1, then
// the output network's two. Layer li's W and b are Model.Params() entries
// 2·li and 2·li+1 (the serialization contract).
const (
	layerOut1 = 6
	layerOut2 = 7
)

// trainWorker is the state of one data-parallel worker's shard: a packed
// batch, a workspace arena for the step's intermediates, the forward's
// activations kept as the backward's tape, and the loss gradients the
// backward carries down through them (dOut at the sigmoid's input, dOA1
// at the first output layer's ReLU, dH2 and dH1 at each set module's). They
// alias the arena and live exactly one step. Only the worker writes them;
// once its backward has joined, every worker reads them to accumulate its
// output units' parameter gradients.
type trainWorker struct {
	pb         PackedBatch
	ws         nn.Workspace
	tp         activations
	dOut, dOA1 nn.Matrix
	dH1, dH2   [3]nn.Matrix
}

// forward packs queries lo..lo+len(preds) of src with BuildFrom, keys
// included, and runs forwardPacked on w, the trainer's transposed copy of
// the live weights, with no element memo: each distinct row of a set is
// forwarded once and its duplicates get copies of its h1 and h2. It keeps
// the activations as the tape and writes normalized predictions into
// preds. The workspace is reserved for the whole step — forward and
// backward — so the backward Allocs continue the same arena.
func (wk *trainWorker) forward(m *Model, w *weights, src QuerySource, lo int, preds []float64) error {
	if err := wk.pb.BuildFrom(src, lo, lo+len(preds), m.TDim, m.JDim, m.PDim); err != nil {
		return err
	}
	b := wk.pb.B
	h := m.Cfg.HiddenUnits
	nt, nj, np := wk.pb.Rows()
	// Backward: dOut + dOA1 + dConcat (3bh) + dPool + 2 hidden gradients
	// per set row. One Reserve covers both phases.
	wk.ws.Reserve(forwardFloats(&wk.pb, h) + 2*(nt+nj+np)*h + 5*b*h + b)

	forwardPacked(w, &wk.pb, nil, &wk.ws, &wk.tp, preds)
	return nil
}

// backward carries the shard's loss gradients dPreds down through the tape
// to each set module's first layer: every input gradient, which the shard's
// own rows decide. The parameter gradients are paramGrads' work.
func (wk *trainWorker) backward(m *Model, dPreds []float64) {
	b := wk.pb.B
	h := m.Cfg.HiddenUnits
	tp := &wk.tp

	wk.dOut = wk.ws.Alloc(b, 1)
	copy(wk.dOut.Data, dPreds)
	nn.SigmoidBackwardInPlace(tp.out, wk.dOut)
	wk.dOA1 = wk.ws.Alloc(b, h)
	m.out2.BackwardInput(wk.dOut, wk.dOA1)
	nn.ReLUBackwardInPlace(tp.oA1, wk.dOA1)
	dConcat := wk.ws.Alloc(b, 3*h)
	m.out1.BackwardInput(wk.dOA1, dConcat)

	dPool := wk.ws.Alloc(b, h)
	xs, offs := wk.pb.sets()
	layers := m.layers()
	for k := 0; k < 3; k++ {
		off := k * h
		for bi := 0; bi < b; bi++ {
			copy(dPool.Row(bi), dConcat.Row(bi)[off:off+h])
		}
		rows := xs[k].Rows()
		if rows == 0 {
			// Every query's set is empty: the pool emitted zeros, no
			// elements exist to receive gradient, and the module's layers
			// saw no input this step.
			continue
		}
		wk.dH2[k] = wk.ws.Alloc(rows, h)
		nn.SegmentAvgPoolBackward(dPool, offs[k], wk.dH2[k])
		nn.ReLUBackwardInPlace(tp.h2[k], wk.dH2[k])
		wk.dH1[k] = wk.ws.Alloc(rows, h)
		layers[2*k+1].BackwardInput(wk.dH2[k], wk.dH1[k])
		nn.ReLUBackwardInPlace(tp.h1[k], wk.dH1[k])
	}
}

// tape returns layer li's forward input and output gradient on the
// worker's shard: x, or for a set module's first layer the valued runs of
// its set. The input has no rows when the shard has no element of that
// set, and then dy is stale.
func (wk *trainWorker) tape(li int) (x nn.Matrix, runs *nn.RunIndex, dy nn.Matrix) {
	switch li {
	case layerOut2:
		return wk.tp.oA1, nil, wk.dOut
	case layerOut1:
		return wk.tp.concat, nil, wk.dOA1
	}
	k := li / 2
	if li%2 == 1 {
		return wk.tp.h1[k], nil, wk.dH2[k]
	}
	xs, _ := wk.pb.sets()
	return nn.Matrix{}, xs[k], wk.dH1[k]
}

// packedTrainer drives the data-parallel packed training steps. A step
// shards the minibatch contiguously across the workers, and each packs its
// own shard from the minibatch's QuerySource and forwards it, so the only
// feature rows alive are the workers' packed batches. The loss is summed
// serially in query order, each worker backpropagates its shard's input
// gradients row by row — a duplicate row too, so no gradient merges rows
// the forward deduplicated — and then every worker accumulates the
// parameter gradients of its range of each layer's output units straight
// into the shared Param.Grad, over every shard's rows in shard order. That
// is the order one worker takes, so every parameter gradient, and with it
// every weight, has the same bits at any parallelism.
//
// The serial remainder of a step is sharded too. update takes Adam's
// global gradient norm serially and then splits the element-wise update
// across the workers by parameter range (nn.Adam.StepShard). The forward
// runs on w, one transposed copy of the live weights that every worker
// reads: transpose rewrites it once per step, before the shards fork, and
// once per predict, its rows split across the workers (transposeShard).
// The backward reads the live [out][in] weights. Every one of these splits
// is of element-wise work, so none moves a bit.
//
// Every fork runs on the calling goroutine and the trainer's helpers,
// which live until stop, so a step starts no goroutine; update's and
// transpose's shares are bound once, so neither allocates per step.
//
// A step runs at width k, at most the worker count, which begin decides
// when the step starts: all of its forks — the transpose, the forward's and
// the backward's shards, the parameter gradients' output split and the
// Adam update — take the first k workers. A width is a schedule like the
// worker count, so a width that changes between steps moves no bit either.
type packedTrainer struct {
	m       *Model
	w       weights
	opt     *nn.Adam
	params  []*nn.Param
	workers []*trainWorker
	errs    []error // per-worker step errors, reused across steps
	preds   []float64
	grad    []float64

	helpers []chan func(w int) // helper i runs share i+1 of a fork
	joined  sync.WaitGroup     // a fork's helper shares, or stop's exits

	// transpose's and update's shares, bound to t once.
	transposeShare, updateShare func(w int)

	width func(full int) int // the next step's width (stepWidths)
	k     int                // the current step's width; full until the first begin
	steps trainmon.Steps     // steps begun since the last takeSteps
}

// stepWidths returns, for a new trainer, the function that gives the width
// of each of its steps from its worker count: the serving-pressure gauge's
// (pressure.Watch). Tests replace it to change the width step by step.
var stepWidths = func() func(full int) int { return pressure.NewWatch().Width }

// newPackedTrainer returns a trainer of parallelism workers stepping
// params, the model's, with opt; it runs until stop.
func newPackedTrainer(m *Model, params []*nn.Param, opt *nn.Adam, parallelism int) *packedTrainer {
	t := &packedTrainer{m: m, w: newWeights(m), opt: opt, params: params, width: stepWidths(), k: parallelism}
	t.workers = make([]*trainWorker, parallelism)
	for i := range t.workers {
		t.workers[i] = new(trainWorker)
	}
	t.errs = make([]error, parallelism)
	t.helpers = make([]chan func(int), parallelism-1)
	for i := range t.helpers {
		jobs := make(chan func(int))
		t.helpers[i] = jobs
		go func() {
			for fn := range jobs {
				fn(i + 1)
				t.joined.Done()
			}
			t.joined.Done() // stop's
		}()
	}
	t.transposeShare = func(w int) { transposeShard(t.m, &t.w, w, t.k) }
	t.updateShare = func(w int) { t.opt.StepShard(t.params, w, t.k) }
	return t
}

// begin decides the width of the step or validation pass that starts now
// and reports whether it is narrower than the worker count.
func (t *packedTrainer) begin() bool {
	t.k = t.width(len(t.workers))
	return t.k < len(t.workers)
}

// takeSteps returns how many steps began at full width and how many
// narrowed since its last call.
func (t *packedTrainer) takeSteps() trainmon.Steps {
	s := t.steps
	t.steps = trainmon.Steps{}
	return s
}

// stop ends the trainer's helpers and returns once they have exited. The
// trainer must not be used after.
func (t *packedTrainer) stop() {
	t.joined.Add(len(t.helpers))
	for _, jobs := range t.helpers {
		close(jobs)
	}
	t.joined.Wait()
}

// fork runs fn(0), …, fn(k-1), k at most the worker count, and returns
// when all have: fn(0) on the calling goroutine, the rest on helpers.
func (t *packedTrainer) fork(k int, fn func(w int)) {
	t.joined.Add(k - 1)
	for _, jobs := range t.helpers[:k-1] {
		jobs <- fn
	}
	fn(0)
	t.joined.Wait()
}

// transposeShard copies shard s of n of the live weights into w, which has
// their shape: the rows s·R/n up to (s+1)·R/n of the eight layers' R rows of
// WT taken end to end, with each layer's bias going to the shard holding
// its row 0 (nn.Transpose). Shards write disjoint rows, so the n of one
// step may run concurrently.
func transposeShard(m *Model, w *weights, s, n int) {
	layers := m.layers()
	rows := 0
	for _, l := range layers {
		rows += l.In
	}
	lo, hi := s*rows/n, (s+1)*rows/n
	off := 0
	for i, l := range layers {
		a, b := max(lo-off, 0), min(hi-off, l.In)
		off += l.In
		if a < b {
			nn.Transpose(&w[i], l, a, b)
		}
	}
}

// transpose rewrites w from the live weights, its rows split across the
// step's k workers in one fork.
func (t *packedTrainer) transpose() { t.fork(t.k, t.transposeShare) }

// update applies one step of opt to the live weights from the gradients a
// step accumulated, and zeroes them: the serial half (nn.Adam.BeginStep),
// then the element-wise half split across the step's k workers in one fork.
func (t *packedTrainer) update() {
	t.opt.BeginStep(t.params)
	t.fork(t.k, t.updateShare)
}

// parallelism reports the configured worker count, a full step's width.
func (t *packedTrainer) parallelism() int { return len(t.workers) }

// shards is how many workers n queries are split across: the step's k, or
// one per query when there are fewer queries than that.
func (t *packedTrainer) shards(n int) int { return min(t.k, n) }

// forEachShard splits [0, n) into shards(n) contiguous shards — worker w
// takes [lo(w), lo(w+1)), the first n%p shards one element longer — and runs
// fn on each in one fork. It returns the first error in worker order. Shard
// w may use t.workers[w] and nothing another shard touches.
func (t *packedTrainer) forEachShard(n int, fn func(w, lo, hi int) error) error {
	p := t.shards(n)
	if p == 0 {
		return nil
	}
	errs := t.errs[:p]
	t.fork(p, func(w int) {
		lo := w*(n/p) + min(w, n%p)
		hi := lo + n/p
		if w < n%p {
			hi++
		}
		errs[w] = fn(w, lo, hi)
	})
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// paramGrads accumulates layer li's parameter gradients for worker w's
// share (of the step's k) of its output units into the shared Param.Grad,
// over the first p workers' shards in shard order.
func (t *packedTrainer) paramGrads(w, p, li int) {
	l := t.m.layers()[li]
	lo, hi := w*l.Out/t.k, (w+1)*l.Out/t.k
	if lo == hi {
		return
	}
	dW, dB := t.params[2*li].Grad, t.params[2*li+1].Grad
	for _, wk := range t.workers[:p] {
		x, runs, dy := wk.tape(li)
		switch {
		case runs != nil && runs.Rows() > 0:
			l.BackwardIndexed(runs, dy, lo, hi, dW, dB)
		case runs == nil && x.Rows > 0:
			l.BackwardParams(x, dy, lo, hi, dW, dB)
		}
	}
}

// step runs one minibatch, the len(targets) queries of src, at the width
// begin decides for it: returns the mean loss with parameter gradients
// accumulated (the caller applies the optimizer step, update, at the same
// width). src and targets are staged by the caller in shuffled order.
func (t *packedTrainer) step(src QuerySource, targets []float64, norm nn.LabelNorm) (float64, error) {
	if t.begin() {
		t.steps.Narrowed++
	} else {
		t.steps.Full++
	}
	n := len(targets)
	if cap(t.preds) < n {
		t.preds = make([]float64, n)
		t.grad = make([]float64, n)
	}
	preds := t.preds[:n]
	grad := t.grad[:n]
	invN := 1.0 / float64(n)

	t.transpose()
	err := t.forEachShard(n, func(w, lo, hi int) error {
		return t.workers[w].forward(t.m, &t.w, src, lo, preds[lo:hi])
	})
	if err != nil {
		return 0, err
	}
	lossSum := nn.LossSumInto(t.m.Cfg.Loss, norm, preds, targets, grad, t.m.Cfg.GradCap, invN)
	// A shard's backward cannot fail.
	_ = t.forEachShard(n, func(w, lo, hi int) error {
		t.workers[w].backward(t.m, grad[lo:hi])
		return nil
	})
	p := t.shards(n)
	t.fork(t.k, func(w int) {
		for li := range t.m.layers() {
			t.paramGrads(w, p, li)
		}
	})
	return lossSum * invN, nil
}

// predict writes the live weights' normalized predictions for the
// len(preds) queries of src into preds: the forward half of a step, at a
// width begin decides for it, on a freshly transposed copy, sharded across
// the same workers and walked in Cfg.BatchSize chunks so each worker's
// arena stays minibatch-sized. A prediction does not depend on its batch or
// its worker (layer rows and segment pools are per query), so any
// parallelism returns the same bits.
func (t *packedTrainer) predict(src QuerySource, preds []float64) error {
	bs := t.m.Cfg.BatchSize
	t.begin()
	t.transpose()
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
