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

// Engine is the packed ragged-batch inference path of the model: the one
// forward kernel over PackedBatch rows, segment average pooling instead of
// masked pooling, and sync.Pool-backed scratch so a steady-state forward
// pass performs zero heap allocations. It reads a transposed copy of the
// model's weights and is safe for concurrent use — every concurrent caller
// gets its own scratch from the pool. Obtain one with Model.Engine (shared,
// cached) or NewEngine.
//
// Every estimate enters through PredictSourceInto, a single estimate as a
// batch of one. Predict, and Forward over a BuildPackedBatch, are adapters
// over featurize.Encoded whose only callers are bench/layers.go and tests.
//
// The forward pass is forwardPacked on a snapshot of the eight layers with
// W transposed to [in][out] (nn.Layer): every layer is one kernel,
// nn.Layer.Forward, whose outputs are the dense GEMM's in every bit. The
// snapshot is taken once per weight generation and Precision — at F32 its
// weights are rounded to single precision as it is taken — so no forward
// pays a transposition or a rounding, none serves stale weights after a
// Refresh/Swap, and every forward runs the same float64 arithmetic.
//
// The engine forwards each distinct set element once. A set element's h2 —
// its output after both layers of its set module, what the pool averages —
// depends only on the element and the weights. So a row's h2 is copied from
// the element table when the row is one of its finite-domain elements
// (every join one-hot, the zero join and predicate rows, each reference row
// of SetReferenceRows; computed once per snapshot), else from an earlier
// equal row of the same batch (PackedBatch's keys), and only the rows left
// are forwarded.
type Engine struct {
	m    *Model
	pool sync.Pool // *engineScratch

	// elems holds the element table's rows, replaced whole by
	// SetReferenceRows. snap is the transposed weights with their element
	// table, built lazily under convMu and tagged with the Model.WeightGen
	// and the Precision they were read at.
	convMu sync.Mutex
	elems  atomic.Pointer[PackedBatch]
	snap   atomic.Pointer[snapshot]
}

// snapshot is the model's eight layers, W transposed and stored at prec,
// tagged with the weight generation they were read at, and the element
// table computed on exactly these weights — so a forward that loads the
// snapshot once reads a table and weights of one generation.
type snapshot struct {
	gen   uint64
	prec  Precision
	w     weights
	table atomic.Pointer[elementTable]
}

// elementTable is the h2 of every row of the element batch elems — by the
// kernels forwardPacked runs, on its snapshot's weights — so copying a row
// of h2 is bit for bit computing it.
type elementTable struct {
	elems *PackedBatch
	h2    [3]nn.Matrix
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

// current returns the snapshot of the current weight generation and
// precision and its element table of the installed reference rows: the
// weights and the table a forward reads, of one generation.
func (e *Engine) current() (*snapshot, *elementTable) {
	s := e.snapshot()
	return s, s.tableFor(e)
}

// snapshot returns the cached snapshot when it is of the current weight
// generation and precision, else transposes the live weights into a new
// one once under convMu, rounding them to single precision at F32. The
// double-checked load keeps the hot path to one atomic read.
func (e *Engine) snapshot() *snapshot {
	gen, prec := e.m.WeightGen(), e.m.precision()
	if s := e.snap.Load(); s != nil && s.gen == gen && s.prec == prec {
		return s
	}
	e.convMu.Lock()
	defer e.convMu.Unlock()
	if s := e.snap.Load(); s != nil && s.gen == gen && s.prec == prec {
		return s
	}
	s := &snapshot{gen: gen, prec: prec}
	transpose(e.m, &s.w)
	if prec == F32 {
		for i := range s.w {
			s.w[i].RoundToSingle()
		}
	}
	e.snap.Store(s)
	return s
}

// tableFor returns the element table of the installed reference rows on
// the snapshot's weights: the cached one when it is of those rows, else
// computed once under convMu (the snapshot's double-checked pattern).
func (s *snapshot) tableFor(e *Engine) *elementTable {
	elems := e.elems.Load()
	if t := s.table.Load(); t != nil && t.elems == elems {
		return t
	}
	e.convMu.Lock()
	defer e.convMu.Unlock()
	if t := s.table.Load(); t != nil && t.elems == elems {
		return t
	}
	t := &elementTable{elems: elems}
	src, _ := elems.sets()
	for k, x := range src {
		h1 := nn.NewMatrix(x.Rows, s.w[2*k].Out)
		t.h2[k] = nn.NewMatrix(x.Rows, s.w[2*k+1].Out)
		setModule(&s.w, k, x, &elems.keys[k].runs, h1, t.h2[k])
	}
	s.table.Store(t)
	return t
}

// find returns the row of the element batch's set k that row r of pb's set
// k equals, or -1.
//
//deepsketch:zeroalloc
func (t *elementTable) find(pb *PackedBatch, k, r int) int {
	for q := 0; q < t.h2[k].Rows; q++ {
		if pb.sameRow(k, r, t.elems, q) {
			return q
		}
	}
	return -1
}

// engineScratch bundles the per-goroutine reusable state: a packed batch and
// the forward's workspace.
type engineScratch struct {
	pb PackedBatch
	ws nn.Workspace
}

func (e *Engine) scratch() *engineScratch {
	if s, ok := e.pool.Get().(*engineScratch); ok {
		return s
	}
	return &engineScratch{}
}

// weights is the inference view of the model's eight layers, W
// transposed, in Model.layers order: set module k (tables, joins,
// predicates) is w[2k], w[2k+1]; the output network is w[6], w[7].
type weights [8]nn.Layer

// transpose copies the live weights into w, W transposed, reusing w's
// buffers when they fit (nn.Transpose).
func transpose(m *Model, w *weights) {
	for i, l := range m.layers() {
		nn.Transpose(&w[i], l)
	}
}

// activations records the intermediates of one packed forward. All matrices
// alias the arena the forward ran on and live until its next Reserve; the
// packed trainer keeps them as its tape.
type activations struct {
	h1, h2, pool [3]nn.Matrix // per set module, post-ReLU / pooled
	concat       nn.Matrix
	oA1          nn.Matrix
	out          nn.Matrix // sigmoid output, B×1
}

// forwardFloats is the arena forwardPacked consumes on pb at hidden width
// h: two hidden activations per set row (h1, h2), three pools + concat
// (3·B·h) + oA1, and the B outputs.
//
//deepsketch:zeroalloc
func forwardFloats(pb *PackedBatch, h int) int {
	nt, nj, np := pb.Rows()
	return (2*(nt+nj+np)+7*pb.B)*h + pb.B
}

// forwardPacked is the MSCN forward pass on packed rows — the only one:
// per set module Linear+ReLU twice then a segment average pool, the three
// pools concatenated, the two-layer output network, a sigmoid. Every layer
// is nn.Layer.Forward on w, over pb's packed feature rows (see
// PackedBatch.sets), which each set module's first layer reads through
// pb's run index. With an element table (on these same weights) each
// distinct element is forwarded once (elementTable.module); without one —
// the trainer — every row is. Every intermediate is carved from ws — which
// the caller has Reserved — and recorded in act; the normalized
// predictions (act.out) are also copied to out (len B).
//
//deepsketch:zeroalloc
func forwardPacked(w *weights, pb *PackedBatch, table *elementTable, ws *nn.Workspace, act *activations, out []float64) {
	b := len(out)
	h := w[7].In
	xs, offs := pb.sets()
	for k := 0; k < 3; k++ {
		rows := xs[k].Rows
		act.h1[k] = ws.Alloc(rows, h)
		act.h2[k] = ws.Alloc(rows, h)
		if table == nil {
			setModule(w, k, xs[k], &pb.keys[k].runs, act.h1[k], act.h2[k])
		} else {
			table.module(w, k, pb, xs[k], act.h1[k], act.h2[k])
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
	w[6].Forward(act.concat, nil, act.oA1, 0, b, true)
	act.out = ws.Alloc(b, 1)
	w[7].Forward(act.oA1, nil, act.out, 0, b, false)
	nn.SigmoidInPlace(act.out)
	copy(out, act.out.Data)
}

// setModule runs set module k on every row of x, whose run index is runs:
// the indexed first layer into h1, the dense second into h2.
//
//deepsketch:zeroalloc
func setModule(w *weights, k int, x nn.Matrix, runs *nn.RunIndex, h1, h2 nn.Matrix) {
	w[2*k].Forward(x, runs, h1, 0, x.Rows, true)
	w[2*k+1].Forward(h1, nil, h2, 0, x.Rows, true)
}

// module is setModule with each distinct element forwarded once: a row
// equal to an earlier row of the batch (pb's keys) or to an element of the
// table is copied, and only the rest — the first occurrences the table
// lacks — go through both layers. The kernel computes each row on its own,
// summing each output in ascending k whatever rows surround it, so a copied
// row is the bits the row would have been computed to.
//
//deepsketch:zeroalloc
func (t *elementTable) module(w *weights, k int, pb *PackedBatch, x nn.Matrix, h1, h2 nn.Matrix) {
	keys := &pb.keys[k]
	for r := 0; r < x.Rows; r++ {
		if q := keys.rep[r]; q != r {
			copy(h2.Row(r), h2.Row(q))
		} else if e := t.find(pb, k, r); e >= 0 {
			copy(h2.Row(r), t.h2[k].Row(e))
		} else {
			w[2*k].Forward(x, &keys.runs, h1, r, r+1, true)
			w[2*k+1].Forward(h1, nil, h2, r, r+1, true)
		}
	}
}

// Forward runs one packed forward pass on the current weights at the
// model's Precision, writing the normalized prediction for query i into
// out[i]. out must have length ≥ pb.B; ws provides the scratch and must not
// be shared with a concurrent pass. Steady-state (after the workspace has
// grown to the batch shape) the call performs zero heap allocations.
//
//deepsketch:zeroalloc
func (e *Engine) Forward(pb *PackedBatch, ws *nn.Workspace, out []float64) {
	//deepsketch:ignore zeroalloc the snapshot and its table compute once per weight generation, then cache
	snap, table := e.current()
	ws.Reserve(forwardFloats(pb, e.m.Cfg.HiddenUnits))
	var act activations
	forwardPacked(&snap.w, pb, table, ws, &act, out[:pb.B])
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
// (PackedBatch.BuildFrom) — no per-query vectors, no copies — and
// forwarded (Forward). It is the one way into the engine.
func (e *Engine) chunk(src QuerySource, lo, hi int, out []float64) error {
	s := e.scratch()
	defer e.pool.Put(s)
	if err := s.pb.BuildFrom(src, lo, hi, e.m.TDim, e.m.JDim, e.m.PDim); err != nil {
		return err
	}
	e.Forward(&s.pb, &s.ws, out[lo:hi])
	return nil
}
