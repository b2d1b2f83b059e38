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
// Every estimate enters through PredictSourceInto, a single estimate as a
// batch of one. Predict, and Forward over a BuildPackedBatch, are adapters
// over featurize.Encoded whose only callers are bench/layers.go and tests.
//
// The forward pass is forwardPacked instantiated at the model's Precision:
// f64 reads the live weights in place, f32 reads a copy converted once per
// weight generation, so reduced precision never pays conversion per forward
// and never serves stale weights after a Refresh/Swap.
//
// The engine forwards each distinct set element once. A set element's h2 —
// its output after both layers of its set module, what the pool averages —
// depends only on the element and the weights. So a row's h2 is copied from
// the element table when the row is one of its finite-domain elements
// (every join one-hot, the zero join and predicate rows, each reference row
// of SetReferenceRows; computed once per weight generation and precision),
// else from an earlier equal row of the same batch (PackedBatch's keys), and
// only the rows left are forwarded, as one contiguous block.
type Engine struct {
	m    *Model
	pool sync.Pool // *engineScratch

	// elems holds the element table's rows, replaced whole by
	// SetReferenceRows. reduced is the f32 weight snapshot and
	// table64/table32 the element table at each precision, all built lazily
	// under convMu and tagged with the Model.WeightGen they were computed
	// from.
	convMu  sync.Mutex
	reduced atomic.Pointer[snapshot]
	elems   atomic.Pointer[PackedBatch]
	table64 atomic.Pointer[elementTable[float64]]
	table32 atomic.Pointer[elementTable[float32]]
}

// snapshot is a float32 copy of all eight layers, tagged with the weight
// generation it was converted from.
type snapshot struct {
	gen uint64
	w   weights[float32]
}

// elementTable is the h2 of every row of the element batch elems at
// element type T — by the kernels forwardPacked runs, on the weights of
// generation gen — so copying a row of h2 is bit for bit computing it.
type elementTable[T nn.Float] struct {
	gen   uint64
	elems *PackedBatch
	h2    [3]nn.Mat[T]
}

// NewEngine builds an inference engine over the model's weights.
func NewEngine(m *Model) *Engine {
	e := &Engine{m: m}
	e.SetReferenceRows(nil)
	return e
}

// SetReferenceRows installs the table rows (width TDim) the engine puts in
// its element table beside the join and zero rows: the rows the owner
// expects over and over, such as an unfiltered table's all-ones bitmap. It
// changes no prediction in any bit, only what recurring rows cost; the rows
// replace any installed before. Safe for concurrent use with predictions.
func (e *Engine) SetReferenceRows(rows [][]float64) {
	m := e.m
	joins := make([][]float64, m.JDim+1) // each one-hot, then the zero row
	for j := range joins {
		joins[j] = make([]float64, m.JDim)
		if j < m.JDim {
			joins[j][j] = 1
		}
	}
	elems := encodedSource{{TableVecs: rows, JoinVecs: joins, PredVecs: [][]float64{make([]float64, m.PDim)}}}
	el := &PackedBatch{}
	if err := el.BuildFrom(elems, 0, 1, m.TDim, m.JDim, m.PDim); err != nil {
		panic(fmt.Sprintf("mscn: reference rows: %v", err))
	}
	e.elems.Store(el)
}

// tableFor returns the element table at element type T for weight
// generation gen, on weights w of that generation: the cached one when slot
// holds it, else computed once under convMu (the snapshot's double-checked
// pattern).
func tableFor[T nn.Float](e *Engine, slot *atomic.Pointer[elementTable[T]], gen uint64, w *weights[T]) *elementTable[T] {
	elems := e.elems.Load()
	if t := slot.Load(); t != nil && t.gen == gen && t.elems == elems {
		return t
	}
	e.convMu.Lock()
	defer e.convMu.Unlock()
	if t := slot.Load(); t != nil && t.gen == gen && t.elems == elems {
		return t
	}
	t := &elementTable[T]{gen: gen, elems: elems}
	src, _ := elems.sets()
	for k, x := range src {
		xt := nn.NewMat[T](x.Rows, x.Cols)
		nn.ConvertRows(xt, x)
		h1 := nn.NewMat[T](x.Rows, w[2*k].Out)
		t.h2[k] = nn.NewMat[T](x.Rows, w[2*k+1].Out)
		setModule(w, k, xt, &elems.keys[k].runs, h1, t.h2[k])
	}
	slot.Store(t)
	return t
}

// find returns the row of the element batch's set k that row r of pb's set
// k equals, or -1.
//
//deepsketch:zeroalloc
func (t *elementTable[T]) find(pb *PackedBatch, k, r int) int {
	for q := 0; q < t.h2[k].Rows; q++ {
		if pb.sameRow(k, r, t.elems, q) {
			return q
		}
	}
	return -1
}

// engineScratch bundles the per-goroutine reusable state: a packed batch and
// the forward arenas (only the active precision's grows).
type engineScratch struct {
	pb      PackedBatch
	ws      nn.Workspace
	reduced nn.Arena[float32]
}

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
// h: three hidden activations per set row (h1, h2 and, with an element
// table, the block of rows forwarded fresh), three pools + concat (3·B·h) +
// oA1, and the B outputs.
//
//deepsketch:zeroalloc
func forwardFloats(pb *PackedBatch, h int) int {
	nt, nj, np := pb.Rows()
	return (3*(nt+nj+np)+7*pb.B)*h + pb.B
}

// forwardPacked is the MSCN forward pass on packed rows — the only one:
// per set module Linear+ReLU twice then a segment average pool, the three
// pools concatenated, the two-layer output network, a sigmoid. xs are pb's
// packed feature rows at element type T (see PackedBatch.sets); each set
// module's first layer reads them through pb's run index, the other layers
// are dense. With an element table (on these same weights) each distinct
// element is forwarded once (elementTable.module); without one — the
// trainer — every row is. Every intermediate is carved from ws — which the
// caller has Reserved — and recorded in act; the normalized predictions
// (act.out) are also written to out (len B), widened when T is float32.
//
//deepsketch:zeroalloc
func forwardPacked[T nn.Float](w *weights[T], pb *PackedBatch, xs [3]nn.Mat[T], table *elementTable[T], ws *nn.Arena[T], act *activations[T], out []float64) {
	b := len(out)
	h := w[7].In
	_, offs := pb.sets()
	for k := 0; k < 3; k++ {
		rows := xs[k].Rows
		act.h1[k] = ws.Alloc(rows, h)
		act.h2[k] = ws.Alloc(rows, h)
		if table == nil {
			setModule(w, k, xs[k], &pb.keys[k].runs, act.h1[k], act.h2[k])
		} else {
			table.module(w, k, pb, xs[k], ws, act.h1[k], act.h2[k])
		}
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

// setModule runs set module k on every row of x, whose run index is runs:
// the indexed first layer into h1, the dense second into h2.
//
//deepsketch:zeroalloc
func setModule[T nn.Float](w *weights[T], k int, x nn.Mat[T], runs *nn.RunIndex, h1, h2 nn.Mat[T]) {
	w[2*k].ForwardIndexed(x, runs, h1, 0, x.Rows, true)
	w[2*k+1].ForwardFused(h1, h2, true)
}

// module is setModule with each distinct element forwarded once: a row
// equal to an earlier row of the batch (pb's keys) or to an element of the
// table is copied, and the rest — the first occurrences the table lacks —
// go through the first layer one row at a time (it works row by row),
// gather at the top of h1, and go through the second layer as one
// contiguous block, so its 2-row tile stays fed. Every kernel sums each
// output in ascending k whatever rows surround it, so a copied row is the
// bits the row would have been computed to.
//
//deepsketch:zeroalloc
func (t *elementTable[T]) module(w *weights[T], k int, pb *PackedBatch, x nn.Mat[T], ws *nn.Arena[T], h1, h2 nn.Mat[T]) {
	keys := &pb.keys[k]
	n := 0
	for r := 0; r < x.Rows; r++ {
		if keys.rep[r] == r && t.find(pb, k, r) < 0 {
			w[2*k].ForwardIndexed(x, &keys.runs, h1, r, r+1, true)
			copy(h1.Row(n), h1.Row(r))
			n++
		}
	}
	fresh := ws.Alloc(n, h2.Cols)
	w[2*k+1].ForwardFused(nn.Mat[T]{Rows: n, Cols: h1.Cols, Data: h1.Data[:n*h1.Cols]}, fresh, true)
	n = 0
	for r := 0; r < x.Rows; r++ {
		if q := keys.rep[r]; q != r {
			copy(h2.Row(r), h2.Row(q))
		} else if e := t.find(pb, k, r); e >= 0 {
			copy(h2.Row(r), t.h2[k].Row(e))
		} else {
			copy(h2.Row(r), fresh.Row(n))
			n++
		}
	}
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
	//deepsketch:ignore zeroalloc the table computes once per weight generation, then caches
	table := tableFor(e, &e.table64, gen, &w)
	xs, _ := pb.sets()
	var act activations[float64]
	forwardPacked(&w, pb, xs, table, ws, &act, out[:pb.B])
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
	//deepsketch:ignore zeroalloc the table computes once per weight generation, then caches
	table := tableFor(e, &e.table32, snap.gen, &snap.w)
	src, _ := pb.sets()
	ws.Reserve(len(src[0].Data) + len(src[1].Data) + len(src[2].Data) + forwardFloats(pb, e.m.Cfg.HiddenUnits))
	var xs [3]nn.Mat[float32]
	for k, x := range src {
		xs[k] = ws.Alloc(x.Rows, x.Cols)
		nn.ConvertRows(xs[k], x)
	}
	var act activations[float32]
	forwardPacked(&snap.w, pb, xs, table, ws, &act, out[:pb.B])
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

// Predict returns the normalized prediction for one featurized query: a
// batch of one through PredictSourceInto's chunk body, so it returns the
// bits a batch would. It is an adapter over dense rows whose only callers
// are bench/layers.go and tests; estimates never build a featurize.Encoded.
func (e *Engine) Predict(enc featurize.Encoded) (float64, error) {
	var out [1]float64
	err := e.chunk(encodedSource{enc}, 0, 1, out[:])
	return out[0], err
}

// QuerySource feeds queries straight into packed feature rows, bypassing
// any intermediate per-query materialization — the path every estimate
// batch and every training minibatch (Example) takes. RowCounts must report
// exactly the rows EncodeTo will consume. Implementations must be safe for
// concurrent calls on distinct indices: PredictSourceInto fans chunks out
// across goroutines and the trainer its shards, each driving its own index
// range — per-call mutable state shared between calls would race.
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
// Work proceeds in chunks of the model batch size, shrunk on multicore
// machines so even a single modest batch splits across every core
// (GOMAXPROCS=1 keeps one full-size chunk and no goroutines). Each chunk
// runs on its own pooled scratch (predictChunk); ctx is checked before each
// one, and the first error wins: no chunk starts after it.
func (e *Engine) PredictSourceInto(ctx context.Context, src QuerySource, n int, out []float64) error {
	if len(out) != n {
		return fmt.Errorf("mscn: %d outputs for %d queries", len(out), n)
	}
	if n == 0 {
		return nil
	}
	bs := e.m.Cfg.BatchSize
	if bs <= 0 {
		bs = 64
	}
	procs := runtime.GOMAXPROCS(0)
	if procs > 1 {
		bs = min(bs, (n+procs-1)/procs)
	}
	workers := min(procs, (n+bs-1)/bs)
	if workers <= 1 {
		for lo := 0; lo < n; lo += bs {
			if err := e.predictChunk(ctx, src, lo, min(lo+bs, n), out); err != nil {
				return err
			}
		}
		return nil
	}
	return e.predictParallel(ctx, src, n, bs, workers, out)
}

// predictParallel is PredictSourceInto's fan-out: workers goroutines pull
// chunks of bs queries until none are left or one has failed.
func (e *Engine) predictParallel(ctx context.Context, src QuerySource, n, bs, workers int, out []float64) error {
	chunks := (n + bs - 1) / bs
	var (
		next   atomic.Int64
		failed atomic.Bool
		wg     sync.WaitGroup
		mu     sync.Mutex
		runErr error
	)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for !failed.Load() {
				ci := int(next.Add(1)) - 1
				if ci >= chunks {
					return
				}
				lo := ci * bs
				if err := e.predictChunk(ctx, src, lo, min(lo+bs, n), out); err != nil {
					mu.Lock()
					if runErr == nil {
						runErr = err
					}
					mu.Unlock()
					failed.Store(true)
					return
				}
			}
		}()
	}
	wg.Wait()
	return runErr
}

// predictChunk is chunk once ctx has been checked.
func (e *Engine) predictChunk(ctx context.Context, src QuerySource, lo, hi int, out []float64) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	return e.chunk(src, lo, hi, out)
}

// chunk predicts queries lo..hi of src into out[lo:hi]: feature rows are
// encoded directly into a pooled scratch's PackedBatch
// (PackedBatch.BuildFrom) — no per-query vectors, no copies — and predicted
// at the serving precision. It is the one way into the engine.
func (e *Engine) chunk(src QuerySource, lo, hi int, out []float64) error {
	s := e.scratch()
	defer e.pool.Put(s)
	if err := s.pb.BuildFrom(src, lo, hi, e.m.TDim, e.m.JDim, e.m.PDim); err != nil {
		return err
	}
	e.forward(&s.pb, s, out[lo:hi])
	return nil
}
