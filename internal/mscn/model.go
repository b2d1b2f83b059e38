// Package mscn implements the multi-set convolutional network of Kipf et
// al. ("Learned Cardinalities", CIDR 2019) that powers Deep Sketches. The
// model represents a query as three sets — tables, joins, and predicates —
// and, per the paper, "for each set, it has a separate module, comprised of
// one fully-connected multi-layer perceptron (MLP) per set element with
// shared parameters. We average module outputs, concatenate them, and feed
// them into a final output MLP, which captures correlations between sets
// and outputs a cardinality estimate."
//
// Both training and serving run on the packed ragged-batch representation:
// PackedBatch stores only valid set elements with CSR-style offsets, so a
// mixed-shape batch costs exactly its valid rows. Every set element is
// sparse — a table element is a one-hot plus the bitmap of qualifying
// sample tuples, a join a one-hot, a predicate three non-zeros — so a
// packed element is its list of valued runs (nn.Run), which the featurizer
// writes directly and each set module's first layer reads, in training and
// in serving, with the dense kernel's result in every bit
// (nn.Layer.ForwardRuns, nn.BackwardIndexed). Every layer's forward is that
// one kernel, on a copy of the weights transposed once per engine or once
// per step (the trainer). Serving uses the Engine (the forward kernel,
// segment pooling, pooled workspace arenas, zero steady-state allocations;
// concurrency-safe — workspaces are per-pass and never shared), which
// forwards each distinct set element once per engine: a row an earlier
// batch computed comes from an element memo that lives as long as the
// weight snapshot, and a row equal to an earlier row of its batch is
// copied from it. A model's weights never change under an engine: once
// one exists, training and ReadWeights refuse, and a refresh trains a
// Clone. Training packs its
// minibatches through the same QuerySource path (an Example is a reference
// to a query, never its feature rows), forwards every row, and is
// data-parallel over the same kernels: each
// minibatch is sharded contiguously across TrainOptions.Parallelism
// workers, every worker packs its shard and carries its gradient back
// through the layers with a private workspace arena (nn.BackwardInput,
// nn.SegmentAvgPoolBackward), each worker sums a range of every layer's
// output units' parameter gradients over all shards in query order
// (nn.BackwardParams, nn.BackwardIndexed), and one Adam step applies per
// minibatch — so the seed fixes every weight bit at any parallelism. Each
// epoch validates with the forward half of a step on the same workers, so
// training never goes through the Engine. The
// padded, masked Batch with its tape-based forward/backward is the dense
// reference the packed-equivalence tests compare against; it lives in
// padded_test.go and is compiled into no binary.
package mscn

import (
	"errors"
	"io"
	"math/rand"
	"sync/atomic"

	"deepsketch/internal/datagen"
	"deepsketch/internal/nn"
)

// Config holds the model and training hyperparameters users choose when
// defining a sketch (number of epochs is step 1 of Figure 1a).
type Config struct {
	// HiddenUnits is the width of every MLP layer. The original PyTorch
	// implementation uses 256; the default here is 64, which preserves the
	// result shape at a fraction of the CPU cost. Fully configurable.
	HiddenUnits int `json:"hidden_units"`
	// Epochs is the number of training epochs; the paper observes that "25
	// epochs are usually enough to achieve a reasonable mean q-error".
	Epochs int `json:"epochs"`
	// BatchSize is the mini-batch size.
	BatchSize int `json:"batch_size"`
	// LearningRate for Adam.
	LearningRate float64 `json:"learning_rate"`
	// Loss selects the training objective (default: mean q-error, as in the
	// paper).
	Loss nn.LossKind `json:"loss"`
	// ClipNorm bounds the global gradient norm (q-error gradients explode
	// early in training otherwise).
	ClipNorm float64 `json:"clip_norm"`
	// GradCap bounds the per-sample q-error loss gradient.
	GradCap float64 `json:"grad_cap"`
	// ValFrac is the fraction of training data held out for validation.
	ValFrac float64 `json:"val_frac"`
	// Seed drives weight init and epoch shuffling.
	Seed int64 `json:"seed"`
}

// DefaultConfig returns the defaults described above.
func DefaultConfig() Config {
	return Config{
		HiddenUnits:  64,
		Epochs:       25,
		BatchSize:    64,
		LearningRate: 1e-3,
		Loss:         nn.LossQError,
		ClipNorm:     5,
		GradCap:      1e4,
		ValFrac:      0.1,
	}
}

func (c Config) withDefaults() Config {
	d := DefaultConfig()
	if c.HiddenUnits <= 0 {
		c.HiddenUnits = d.HiddenUnits
	}
	if c.Epochs <= 0 {
		c.Epochs = d.Epochs
	}
	if c.BatchSize <= 0 {
		c.BatchSize = d.BatchSize
	}
	if c.LearningRate <= 0 {
		c.LearningRate = d.LearningRate
	}
	if c.ClipNorm <= 0 {
		c.ClipNorm = d.ClipNorm
	}
	if c.GradCap <= 0 {
		c.GradCap = d.GradCap
	}
	if c.ValFrac <= 0 || c.ValFrac >= 1 {
		c.ValFrac = d.ValFrac
	}
	return c
}

// Model is the MSCN network: three two-layer set modules with shared
// per-element parameters, average pooling over each set, and a two-layer
// output network ending in a sigmoid. Training runs data-parallel on the
// packed representation (TrainWithOptions); inference runs on the packed
// ragged-batch Engine. The padded tape reference (Batch, forward/backward)
// is in padded_test.go.
type Model struct {
	Cfg  Config
	TDim int
	JDim int
	PDim int

	table1, table2 *nn.Linear
	join1, join2   *nn.Linear
	pred1, pred2   *nn.Linear
	out1, out2     *nn.Linear

	// optState is the Adam state exported after the last training run (nil
	// before any training, and for models loaded from v1 sketch files). It
	// is what TrainOptions.Resume consumes for warm-start fine-tuning.
	optState *nn.OptState

	// prec is the precision the engine stores its weight snapshot at
	// (Precision). The f64 weights remain the source of truth.
	prec Precision
	// eng is the model's shared engine, the first built over it
	// (NewEngine); nil until then. Once it is set the weights and prec are
	// fixed.
	eng atomic.Pointer[Engine]
}

// errHasEngine is what training and ReadWeights return on a model an
// engine serves: its weights are fixed.
var errHasEngine = errors.New("mscn: the model's weights are fixed once it has an inference engine; change a Clone")

// Precision is the precision the inference engine stores its weights at.
// At F32 the engine rounds its transposed snapshot of the weights to
// single precision once per engine and runs the same float64
// forward on it; the model's weights, training and every other path stay
// float64. It remains only because bench/layers.go times an F32 engine
// (mscn.predict_f32_us) through core.Sketch.SetEnginePrecision.
type Precision uint32

const (
	// F64 serves the weights as trained (the default).
	F64 Precision = iota
	// F32 serves them rounded to single precision; TestEngineF32QErrorGate
	// bounds the q-error this costs.
	F32
)

// SetPrecision selects the precision the engine stores its weights at. It
// must be called before the model's first engine exists (Engine,
// NewEngine), and panics after. It remains only because bench/layers.go
// names it, through core.Sketch.SetEnginePrecision.
func (m *Model) SetPrecision(p Precision) {
	if m.eng.Load() != nil {
		panic("mscn: SetPrecision on a model that has an inference engine")
	}
	m.prec = p
}

// OptState returns the optimizer state captured at the end of the last
// training run, or nil if the model has never been trained in this process
// and none was restored (e.g. a v1 sketch file). The returned value is the
// model's own copy; callers that mutate it must Clone first.
func (m *Model) OptState() *nn.OptState { return m.optState }

// SetOptState installs a previously captured optimizer state (used when
// deserializing a sketch). The model takes ownership of st.
func (m *Model) SetOptState(st *nn.OptState) { m.optState = st }

// Engine returns the model's shared packed inference engine, building it on
// first use. From then on the model's weights and precision are fixed.
func (m *Model) Engine() *Engine {
	if e := m.eng.Load(); e != nil {
		return e
	}
	NewEngine(m)
	return m.eng.Load()
}

// New builds an MSCN with freshly initialized weights for the given feature
// dimensions (from featurize.Encoder: TableDim, JoinDim, PredDim).
func New(cfg Config, tdim, jdim, pdim int) *Model {
	cfg = cfg.withDefaults()
	rng := datagen.NewRand(cfg.Seed ^ 0x35c9)
	h := cfg.HiddenUnits
	return &Model{
		Cfg: cfg, TDim: tdim, JDim: jdim, PDim: pdim,
		table1: nn.NewLinear("table1", tdim, h, rng),
		table2: nn.NewLinear("table2", h, h, rng),
		join1:  nn.NewLinear("join1", jdim, h, rng),
		join2:  nn.NewLinear("join2", h, h, rng),
		pred1:  nn.NewLinear("pred1", pdim, h, rng),
		pred2:  nn.NewLinear("pred2", h, h, rng),
		out1:   nn.NewLinear("out1", 3*h, h, rng),
		out2:   nn.NewLinear("out2", h, 1, rng),
	}
}

// NumParamsFor is the number of learnable scalars New(cfg, tdim, jdim, pdim)
// allocates, computed without allocating them and in float64 so dimensions
// read from an untrusted sketch header cannot overflow it: three set modules
// (in·h + h, h·h + h), the output network (3h·h + h, h + 1).
func NumParamsFor(cfg Config, tdim, jdim, pdim int) float64 {
	h := float64(cfg.withDefaults().HiddenUnits)
	in := float64(tdim) + float64(jdim) + float64(pdim)
	return h*in + 6*h*h + 8*h + 1
}

// Clone returns a deep copy of the model: same architecture and config,
// copied weights and optimizer state, its own (lazily built) inference
// engine. Refreshes fine-tune a clone so the live model keeps serving
// untouched until the lifecycle swap.
func (m *Model) Clone() *Model {
	nm := New(m.Cfg, m.TDim, m.JDim, m.PDim)
	src := m.Params()
	dst := nm.Params()
	for i, p := range src {
		copy(dst[i].Data, p.Data)
	}
	nm.optState = m.optState.Clone()
	nm.prec = m.prec
	return nm
}

// layers returns the eight layers in the fixed order everything that
// enumerates them shares — Params (the serialization contract), the
// inference views, the packed training loops: set modules first (tables,
// joins, predicates; module k at 2k, 2k+1), then the output network.
//
//deepsketch:zeroalloc
func (m *Model) layers() [8]*nn.Linear {
	return [8]*nn.Linear{m.table1, m.table2, m.join1, m.join2, m.pred1, m.pred2, m.out1, m.out2}
}

// Params returns all learnable parameters in a fixed order (the
// serialization contract).
func (m *Model) Params() []*nn.Param {
	var ps []*nn.Param
	for _, l := range m.layers() {
		ps = append(ps, l.Params()...)
	}
	return ps
}

// NumParams returns the total number of learnable scalars.
func (m *Model) NumParams() int {
	n := 0
	for _, p := range m.Params() {
		n += len(p.Data)
	}
	return n
}

// WriteWeights serializes the weights (architecture metadata is the caller's
// responsibility — sketches store Config and dims in their JSON header).
func (m *Model) WriteWeights(w io.Writer) error { return nn.WriteParams(w, m.Params()) }

// ReadWeights restores weights written by WriteWeights into this
// architecture; dimensions must match and every weight must be finite. On
// a model that has an engine it returns an error and reads nothing.
func (m *Model) ReadWeights(r io.Reader) error {
	if m.eng.Load() != nil {
		return errHasEngine
	}
	return nn.ReadParams(r, m.Params())
}

// shuffle produces a deterministic permutation for one epoch.
func shuffle(rng *rand.Rand, n int) []int {
	perm := make([]int, n)
	for i := range perm {
		perm[i] = i
	}
	rng.Shuffle(n, func(i, j int) { perm[i], perm[j] = perm[j], perm[i] })
	return perm
}
