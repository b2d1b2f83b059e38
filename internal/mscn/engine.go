package mscn

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"deepsketch/internal/featurize"
	"deepsketch/internal/nn"
)

// Engine is the packed ragged-batch inference path of the model: fused
// Linear+ReLU kernels over PackedBatch rows, segment average pooling instead
// of masked pooling, and sync.Pool-backed scratch so a steady-state forward
// pass performs zero heap allocations. It shares the model's weights
// (read-only) with the training path and is safe for concurrent use — every
// concurrent caller gets its own scratch from the pool. Obtain one with
// Model.Engine (shared, cached) or NewEngine.
//
// The forward pass is forwardPacked instantiated at the model's Precision:
// f64 reads the live weights in place, f32 reads a copy converted once per
// weight generation, so reduced precision never pays conversion per forward
// and never serves stale weights after a Refresh/Swap.
//
// The same generation tag keys the reference-row memo (SetReferenceRows):
// table rows the owner expects over and over — an unfiltered table's
// all-ones bitmap — get their first-layer output computed once per weight
// generation and precision and copied thereafter.
type Engine struct {
	m    *Model
	pool sync.Pool // *engineScratch

	// reduced is the f32 weight snapshot and memo64/memo32 the reference
	// rows' first-layer outputs at each precision, all built lazily under
	// convMu and tagged with the Model.WeightGen they were computed from.
	convMu  sync.Mutex
	reduced atomic.Pointer[snapshot]
	refs    atomic.Pointer[refRows]
	memo64  atomic.Pointer[rowMemo[float64]]
	memo32  atomic.Pointer[rowMemo[float32]]
}

// snapshot is a float32 copy of all eight layers, tagged with the weight
// generation it was converted from.
type snapshot struct {
	gen uint64
	w   weights[float32]
}

// refRows are the table rows whose first-layer output the engine memoises,
// with their run index. Immutable once installed.
type refRows struct {
	x   nn.Matrix
	idx nn.RunIndex
}

// rowMemo is the table module's first layer applied to refs at element
// type T — by the kernel forwardPacked runs, on the weights of generation
// gen — so copying a row of h1 is bit for bit computing it.
type rowMemo[T nn.Float] struct {
	gen  uint64
	refs *refRows
	x    nn.Mat[T] // refs.x at T
	h1   nn.Mat[T] // post-ReLU, one row per reference
}

// SetReferenceRows installs the table rows (width TDim) whose first-layer
// output the engine computes once per weight generation instead of once per
// occurrence. It changes no prediction in any bit, only what recurring rows
// cost; the rows replace any installed before. Safe for concurrent use with
// predictions.
func (e *Engine) SetReferenceRows(rows [][]float64) {
	r := &refRows{x: nn.NewMatrix(len(rows), e.m.TDim)}
	for i, row := range rows {
		if len(row) != e.m.TDim {
			panic(fmt.Sprintf("mscn: reference row width %d, model expects %d", len(row), e.m.TDim))
		}
		copy(r.x.Row(i), row)
	}
	nn.Index(&r.idx, r.x)
	e.refs.Store(r)
}

// memoFor returns the reference rows' memo at element type T for weight
// generation gen, of which l must be the table module's first layer:
// the cached one when slot holds it, else computed once under convMu (the
// snapshot's double-checked pattern). Nil when no reference rows are
// installed.
func memoFor[T nn.Float](e *Engine, slot *atomic.Pointer[rowMemo[T]], gen uint64, l nn.Layer[T]) *rowMemo[T] {
	refs := e.refs.Load()
	if refs == nil {
		return nil
	}
	if mm := slot.Load(); mm != nil && mm.gen == gen && mm.refs == refs {
		return mm
	}
	e.convMu.Lock()
	defer e.convMu.Unlock()
	if mm := slot.Load(); mm != nil && mm.gen == gen && mm.refs == refs {
		return mm
	}
	mm := &rowMemo[T]{gen: gen, refs: refs,
		x: nn.NewMat[T](refs.x.Rows, refs.x.Cols), h1: nn.NewMat[T](refs.x.Rows, l.Out)}
	nn.ConvertRows(mm.x, refs.x)
	l.ForwardIndexed(mm.x, &refs.idx, mm.h1, 0, mm.x.Rows, true)
	slot.Store(mm)
	return mm
}

// lookup returns the memoised first-layer output of the reference row that
// x — a packed table row whose run index is runs — equals, or nil. A
// reference drops out at its first differing run, which for table rows is
// the one-hot column, so all but one candidate cost one comparison; a hit
// needs the same runs and the same values in them, so a row that merely
// shares a prefix with a reference (a smaller table's all-ones bitmap, one
// cleared bit) misses.
//
//deepsketch:zeroalloc
func (mm *rowMemo[T]) lookup(x []T, runs []nn.Run) []T {
next:
	for i := 0; i < mm.x.Rows; i++ {
		ref := mm.refs.idx.Row(i)
		if len(ref) != len(runs) {
			continue
		}
		rx := mm.x.Row(i)
		for j, run := range runs {
			if ref[j] != run {
				continue next
			}
			for k := run.Lo; k < run.Hi; k++ {
				if x[k] != rx[k] {
					continue next
				}
			}
		}
		return mm.h1.Row(i)
	}
	return nil
}

// engineScratch bundles the per-goroutine reusable state: a packed batch,
// the forward arenas (only the active precision's grows), and the staging
// for single-query Predict.
type engineScratch struct {
	pb      PackedBatch
	ws      nn.Workspace
	reduced nn.Arena[float32]
	one     [1]featurize.Encoded
	out     [1]float64
}

// NewEngine builds an inference engine over the model's weights.
func NewEngine(m *Model) *Engine { return &Engine{m: m} }

func (e *Engine) scratch() *engineScratch {
	if s, ok := e.pool.Get().(*engineScratch); ok {
		return s
	}
	return &engineScratch{}
}

// weights is the inference view of the model's eight layers at element
// type T, in Model.layers order: set module k (tables, joins, predicates)
// is w[2k], w[2k+1]; the output network is w[6], w[7].
type weights[T nn.Float] [8]nn.Layer[T]

// weights returns the float64 inference view of the eight layers. It
// aliases the live parameters, so training steps show through it with no
// rebuild and no generation tag.
//
//deepsketch:zeroalloc
func (m *Model) weights() (w weights[float64]) {
	for i, l := range m.layers() {
		w[i] = l.View()
	}
	return w
}

// activations records the intermediates of one packed forward. All matrices
// alias the arena the forward ran on and live until its next Reserve; the
// packed trainer keeps them as its tape.
type activations[T nn.Float] struct {
	h1, h2, pool [3]nn.Mat[T] // per set module, post-ReLU / pooled
	concat       nn.Mat[T]
	oA1          nn.Mat[T]
	out          nn.Mat[T] // sigmoid output, B×1
}

// forwardFloats is the arena forwardPacked consumes on pb at hidden width
// h: two hidden activations per set row, three pools + concat (3·B·h) +
// oA1, and the B outputs.
//
//deepsketch:zeroalloc
func forwardFloats(pb *PackedBatch, h int) int {
	nt, nj, np := pb.Rows()
	return (2*(nt+nj+np)+7*pb.B)*h + pb.B
}

// forwardPacked is the MSCN forward pass on packed rows — the only one:
// per set module Linear+ReLU twice then a segment average pool, the three
// pools concatenated, the two-layer output network, a sigmoid. xs are pb's
// packed feature rows at element type T (see PackedBatch.sets); the table
// module's first layer reads them through pb's run index (tableLayer1), the
// other seven layers are dense. memo, when non-nil, holds that first
// layer's output for recurring table rows on these same weights. Every
// intermediate is carved from ws — which the caller has Reserved — and
// recorded in act; the normalized predictions (act.out) are also written to
// out (len B), widened when T is float32.
//
//deepsketch:zeroalloc
func forwardPacked[T nn.Float](w *weights[T], pb *PackedBatch, xs [3]nn.Mat[T], memo *rowMemo[T], ws *nn.Arena[T], act *activations[T], out []float64) {
	b := len(out)
	h := w[7].In
	_, offs := pb.sets()
	for k := 0; k < 3; k++ {
		rows := xs[k].Rows
		act.h1[k] = ws.Alloc(rows, h)
		if k == 0 {
			tableLayer1(w[0], xs[0], &pb.tidx, memo, act.h1[0])
		} else {
			w[2*k].ForwardFused(xs[k], act.h1[k], true)
		}
		act.h2[k] = ws.Alloc(rows, h)
		w[2*k+1].ForwardFused(act.h1[k], act.h2[k], true)
		act.pool[k] = ws.Alloc(b, h)
		nn.SegmentAvgPool(act.h2[k], offs[k], act.pool[k])
	}
	act.concat = ws.Alloc(b, 3*h)
	for bi := 0; bi < b; bi++ {
		dst := act.concat.Row(bi)
		copy(dst[:h], act.pool[0].Row(bi))
		copy(dst[h:2*h], act.pool[1].Row(bi))
		copy(dst[2*h:], act.pool[2].Row(bi))
	}
	act.oA1 = ws.Alloc(b, h)
	w[6].ForwardFused(act.concat, act.oA1, true)
	act.out = ws.Alloc(b, 1)
	w[7].ForwardFused(act.oA1, act.out, false)
	nn.SigmoidInPlace(act.out)
	nn.ConvertRows(nn.Matrix{Rows: b, Cols: 1, Data: out}, act.out)
}

// tableLayer1 is the table module's first layer (Linear+ReLU) computed from
// the set form of its input: rows that equal a memoised reference row are
// copied, the stretches between them go through the indexed kernel — which
// works row by row, so where the stretches fall changes no bit.
//
//deepsketch:zeroalloc
func tableLayer1[T nn.Float](l nn.Layer[T], x nn.Mat[T], ix *nn.RunIndex, memo *rowMemo[T], y nn.Mat[T]) {
	lo := 0
	if memo != nil {
		for r := 0; r < x.Rows; r++ {
			if h := memo.lookup(x.Row(r), ix.Row(r)); h != nil {
				l.ForwardIndexed(x, ix, y, lo, r, true)
				copy(y.Row(r), h)
				lo = r + 1
			}
		}
	}
	l.ForwardIndexed(x, ix, y, lo, x.Rows, true)
}

// Forward runs one packed forward pass in float64 on the live weights,
// writing the normalized prediction for query i into out[i]. out must have
// length ≥ pb.B; ws provides the scratch and must not be shared with a
// concurrent pass. Steady-state (after the workspace has grown to the batch
// shape) the call performs zero heap allocations.
//
//deepsketch:zeroalloc
func (e *Engine) Forward(pb *PackedBatch, ws *nn.Workspace, out []float64) {
	ws.Reserve(forwardFloats(pb, e.m.Cfg.HiddenUnits))
	gen := e.m.WeightGen()
	w := e.m.weights()
	//deepsketch:ignore zeroalloc the memo computes once per weight generation, then caches
	memo := memoFor(e, &e.memo64, gen, w[0])
	xs, _ := pb.sets()
	var act activations[float64]
	forwardPacked(&w, pb, xs, memo, ws, &act, out[:pb.B])
}

// forwardReduced runs one packed forward pass in float32 on the converted
// weight snapshot. Packed feature rows convert f64→f32 into the arena on
// entry (each element touched once — negligible next to the GEMMs) and the
// B predictions widen back on exit. Same contract and steady-state
// zero-allocation property as Forward.
//
//deepsketch:zeroalloc
func (e *Engine) forwardReduced(pb *PackedBatch, ws *nn.Arena[float32], out []float64) {
	//deepsketch:ignore zeroalloc snapshot converts once per weight generation, then caches
	snap := e.snapshot()
	//deepsketch:ignore zeroalloc the memo computes once per weight generation, then caches
	memo := memoFor(e, &e.memo32, snap.gen, snap.w[0])
	src, _ := pb.sets()
	ws.Reserve(len(src[0].Data) + len(src[1].Data) + len(src[2].Data) + forwardFloats(pb, e.m.Cfg.HiddenUnits))
	var xs [3]nn.Mat[float32]
	for k, x := range src {
		xs[k] = ws.Alloc(x.Rows, x.Cols)
		nn.ConvertRows(xs[k], x)
	}
	var act activations[float32]
	forwardPacked(&snap.w, pb, xs, memo, ws, &act, out[:pb.B])
}

// snapshot returns the cached f32 weights for the current weight
// generation, converting them once under convMu on a miss. The
// double-checked load keeps the hot path to one atomic read.
func (e *Engine) snapshot() *snapshot {
	gen := e.m.WeightGen()
	if s := e.reduced.Load(); s != nil && s.gen == gen {
		return s
	}
	e.convMu.Lock()
	defer e.convMu.Unlock()
	if s := e.reduced.Load(); s != nil && s.gen == gen {
		return s
	}
	s := &snapshot{gen: gen}
	for i, l := range e.m.layers() {
		s.w[i] = nn.ConvertLayer[float32](l)
	}
	e.reduced.Store(s)
	return s
}

// forward dispatches one packed forward pass to the model's current
// precision. out must have length ≥ pb.B; s must not be shared with a
// concurrent pass.
//
//deepsketch:zeroalloc
func (e *Engine) forward(pb *PackedBatch, s *engineScratch, out []float64) {
	if e.m.Precision() == F32 {
		e.forwardReduced(pb, &s.reduced, out)
		return
	}
	e.Forward(pb, &s.ws, out)
}

// Predict returns the normalized prediction for one featurized query using
// pooled scratch — the serving hot path for single ad-hoc estimates.
func (e *Engine) Predict(enc featurize.Encoded) (float64, error) {
	s := e.scratch()
	defer e.pool.Put(s)
	s.one[0] = enc
	err := s.pb.Build(s.one[:], e.m.TDim, e.m.JDim, e.m.PDim)
	// Don't let the pooled scratch pin the caller's feature slices.
	s.one[0] = featurize.Encoded{}
	if err != nil {
		return 0, err
	}
	e.forward(&s.pb, s, s.out[:])
	return s.out[0], nil
}

// forEachChunk runs fn over [0,n) in chunks that fan out across cores. The
// chunk size is the model batch size, shrunk on multicore machines so even
// a single coalesced flush splits across every core instead of serializing
// on one (on GOMAXPROCS=1 the single full-size chunk keeps the zero-
// goroutine fast path). ctx is checked before each chunk; the first error
// wins and aborts the rest.
func (e *Engine) forEachChunk(ctx context.Context, n int, fn func(lo, hi int) error) error {
	bs := e.m.Cfg.BatchSize
	if bs <= 0 {
		bs = 64
	}
	if procs := runtime.GOMAXPROCS(0); procs > 1 {
		if per := (n + procs - 1) / procs; per < bs {
			bs = per
		}
	}
	chunks := (n + bs - 1) / bs
	runChunk := func(ci int) error {
		if err := ctx.Err(); err != nil {
			return err
		}
		lo := ci * bs
		hi := lo + bs
		if hi > n {
			hi = n
		}
		return fn(lo, hi)
	}
	workers := runtime.GOMAXPROCS(0)
	if workers > chunks {
		workers = chunks
	}
	if workers <= 1 {
		for ci := 0; ci < chunks; ci++ {
			if err := runChunk(ci); err != nil {
				return err
			}
		}
		return nil
	}
	var (
		next   atomic.Int64
		wg     sync.WaitGroup
		mu     sync.Mutex
		runErr error
	)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				ci := int(next.Add(1)) - 1
				if ci >= chunks {
					return
				}
				if err := runChunk(ci); err != nil {
					mu.Lock()
					if runErr == nil {
						runErr = err
					}
					mu.Unlock()
					return
				}
			}
		}()
	}
	wg.Wait()
	return runErr
}

// QuerySource feeds queries straight into packed feature rows, bypassing
// any intermediate per-query materialization — the serving batch path.
// RowCounts must report exactly the rows EncodeTo will consume.
// Implementations must be safe for concurrent calls on distinct indices:
// on multicore machines PredictSourceInto fans chunks out across
// goroutines, each driving its own index range — per-call mutable state
// shared between calls would race.
type QuerySource interface {
	// RowCounts returns the table/join/predicate row counts of query i.
	RowCounts(i int) (t, j, p int)
	// EncodeTo writes query i's feature rows via the next functions, each
	// of which returns the next zeroed destination row for its set.
	EncodeTo(i int, nextT, nextJ, nextP func() []float64) error
}

// PredictSourceInto writes normalized predictions for the source's n
// queries into out (len n). Shapes may be arbitrarily mixed — packing makes a
// ragged batch cost exactly its valid rows, so no shape grouping happens.
// Work proceeds in model-batch-size chunks (forEachChunk: several chunks fan
// out across cores, ctx is checked between them), each on its own pooled
// scratch: feature rows are encoded directly into the scratch's PackedBatch
// (PackedBatch.BuildFrom) — no per-query vectors, no copies — and predicted
// at the serving precision.
func (e *Engine) PredictSourceInto(ctx context.Context, src QuerySource, n int, out []float64) error {
	if len(out) != n {
		return fmt.Errorf("mscn: %d outputs for %d queries", len(out), n)
	}
	if n == 0 {
		return nil
	}
	return e.forEachChunk(ctx, n, func(lo, hi int) error {
		s := e.scratch()
		defer e.pool.Put(s)
		if err := s.pb.BuildFrom(src, lo, hi, e.m.TDim, e.m.JDim, e.m.PDim); err != nil {
			return err
		}
		e.forward(&s.pb, s, out[lo:hi])
		return nil
	})
}
