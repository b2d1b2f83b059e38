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
// The engine forwards each distinct set element once per snapshot. A set
// element's h2 — its output after both layers of its set module, what the
// pool averages — depends only on the element and the weights. So a row's
// h2 is copied from the snapshot's element memo when an earlier batch
// computed it (elementTable: memoSlots direct-mapped slots per set, filled
// as batches miss), else from an earlier equal row of the same batch
// (PackedBatch's keys), and only the rows left are forwarded.
type Engine struct {
	m    *Model
	pool sync.Pool // *engineScratch

	// snap is the transposed weights with their element memo, built lazily
	// under convMu and tagged with the Model.WeightGen and the Precision
	// they were read at.
	convMu sync.Mutex
	snap   atomic.Pointer[snapshot]
}

// snapshot is the model's eight layers, W transposed and stored at prec,
// tagged with the weight generation they were read at, and the element
// memo of h2s computed on exactly these weights — so a forward that loads
// the snapshot once reads a memo and weights of one generation, and a new
// generation or precision starts from an empty memo.
type snapshot struct {
	gen  uint64
	prec Precision
	w    weights
	memo elementTable
}

// memoSlots is the number of slots per set of an element memo: the
// estimate cache's capacity.
const (
	memoSlotBits = 10
	memoSlots    = 1 << memoSlotBits
)

// elementTable is a snapshot's element memo: per set (tables, joins,
// predicates) memoSlots slots, each holding one row's key and its h2 — by
// the kernels forwardPacked runs, on the snapshot's weights — so copying a
// slot's h2 is bit for bit computing it. It is direct-mapped on the row
// hash packing computes (memoSlot); a miss overwrites the slot.
type elementTable [3]memoSet

// memoSet is the memo of one set: slot i's key is keys[i], its h2 row i
// of h2. mu guards both; no forward runs under it.
type memoSet struct {
	mu   sync.Mutex
	keys [memoSlots]memoKey
	h2   nn.Matrix
}

// memoKey is what sameRow compares of a row: its runs and the values in
// them (vals, run after run), with the row's hash; full is false until
// the slot is first written. The buffers are the slot's own, reused by
// every row written to it.
type memoKey struct {
	full bool
	hash uint64
	runs []nn.Run
	vals []float64
}

// memoSlot is the slot of a row hash: the top bits of the hash times an
// odd constant, which depend on every bit of the hash. Its low bits alone
// barely vary between predicate rows that differ only in their literal.
//
//deepsketch:zeroalloc
func memoSlot(hash uint64) int {
	return int((hash * 0x9e3779b97f4a7c15) >> (64 - memoSlotBits))
}

// lookup copies into h2 the memoised h2 of each first occurrence of pb's
// set k that set's memo holds, lists the others in fresh and returns how
// many it listed.
//
//deepsketch:zeroalloc
func (s *memoSet) lookup(pb *PackedBatch, k int, h2 nn.Matrix, fresh []int) int {
	keys, x := &pb.keys[k], pb.set(k)
	n := 0
	s.mu.Lock()
	for r := 0; r < x.Rows; r++ {
		if keys.rep[r] != r {
			continue
		}
		i := memoSlot(keys.hash[r])
		if s.keys[i].holds(keys.hash[r], keys.runs.Row(r), x.Row(r)) {
			copy(h2.Row(r), s.h2.Row(i))
		} else {
			fresh[n] = r
			n++
		}
	}
	s.mu.Unlock()
	return n
}

// store writes rows of pb's set k, with their h2, into their slots.
//
//deepsketch:zeroalloc
func (s *memoSet) store(pb *PackedBatch, k int, h2 nn.Matrix, rows []int) {
	keys, x := &pb.keys[k], pb.set(k)
	s.mu.Lock()
	for _, r := range rows {
		i := memoSlot(keys.hash[r])
		s.keys[i].set(keys.hash[r], keys.runs.Row(r), x.Row(r))
		copy(s.h2.Row(i), h2.Row(r))
	}
	s.mu.Unlock()
}

// holds reports whether the key is of the row x with these runs and hash:
// the same runs and the same values in them (compared with ==, so a row
// holding a NaN is held by no key), as sameRow decides.
//
//deepsketch:zeroalloc
func (m *memoKey) holds(hash uint64, runs []nn.Run, x []float64) bool {
	if !m.full || m.hash != hash || len(m.runs) != len(runs) {
		return false
	}
	at := 0
	for j, run := range runs {
		if m.runs[j] != run {
			return false
		}
		for _, v := range x[run.Lo:run.Hi] {
			if m.vals[at] != v {
				return false
			}
			at++
		}
	}
	return true
}

// set makes the key the row x's, with these runs and hash, in the slot's
// own buffers.
//
//deepsketch:zeroalloc
func (m *memoKey) set(hash uint64, runs []nn.Run, x []float64) {
	n := 0
	for _, run := range runs {
		n += int(run.Hi - run.Lo)
	}
	m.full, m.hash = true, hash
	//deepsketch:ignore zeroalloc a slot's buffers grow to the longest row written to it, then are reused
	m.runs, m.vals = ensureLen(m.runs, len(runs)), ensureLen(m.vals, n)
	copy(m.runs, runs)
	at := 0
	for _, run := range runs {
		at += copy(m.vals[at:], x[run.Lo:run.Hi])
	}
}

// NewEngine builds an inference engine over the model's weights.
func NewEngine(m *Model) *Engine { return &Engine{m: m} }

// snapshot returns the cached snapshot when it is of the current weight
// generation and precision, else transposes the live weights into a new
// one, with an empty element memo, once under convMu, rounding them to
// single precision at F32. The double-checked load keeps the hot path to
// one atomic read.
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
	s := &snapshot{gen: gen, prec: prec, w: newWeights(e.m)}
	if prec == F32 {
		for i := range s.w {
			s.w[i].RoundToSingle()
		}
	}
	for k := range s.memo {
		s.memo[k].h2 = nn.NewMatrix(memoSlots, s.w[2*k+1].Out)
	}
	e.snap.Store(s)
	return s
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

// newWeights returns the live weights, W transposed (nn.NewLayer).
func newWeights(m *Model) weights {
	var w weights
	for i, l := range m.layers() {
		w[i] = nn.NewLayer(l)
	}
	return w
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
// pb's run index. Each distinct element is forwarded once
// (elementTable.module): with an element memo (on these same weights) a
// row it holds is copied from it and the rows it lacks are written into
// it; without one — the trainer — only rows equal to an earlier row of the
// batch are copied, h1 as well as h2, so the tape the backward reads is
// every row's. Every intermediate is carved
// from ws — which the caller has Reserved — and recorded in act; the
// normalized predictions (act.out) are also copied to out (len B).
//
//deepsketch:zeroalloc
func forwardPacked(w *weights, pb *PackedBatch, memo *elementTable, ws *nn.Workspace, act *activations, out []float64) {
	b := len(out)
	h := w[7].In
	xs, offs := pb.sets()
	for k := 0; k < 3; k++ {
		rows := xs[k].Rows
		act.h1[k] = ws.Alloc(rows, h)
		act.h2[k] = ws.Alloc(rows, h)
		memo.module(w, k, pb, xs[k], act.h1[k], act.h2[k], ws)
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
	w[6].Forward(act.concat, nil, act.oA1, nil, true, ws)
	act.out = ws.Alloc(b, 1)
	w[7].Forward(act.oA1, nil, act.out, nil, false, ws)
	nn.SigmoidInPlace(act.out)
	copy(out, act.out.Data)
}

// module runs set module k — the indexed first layer into h1, the dense
// second into h2 — on x, pb's set k, forwarding each distinct element once.
// A first occurrence the memo holds is copied from it (h2 only: the engine
// reads nothing else) in one locked pass; the others are listed
// (ws.RowList) and go through both layers as one row list, under no lock,
// so the dense second layer takes them four at a time; a second locked
// pass writes them into their slots; and then a row equal to an earlier
// row of the batch (pb's keys) is copied from that row. A nil memo — the
// trainer's — holds no element and keeps none: every first occurrence is
// forwarded, and a copied row gets its h1 too, which the trainer's
// backward reads. The kernel computes each row's outputs on their own,
// summing each in ascending k whatever rows share its tile, so a copied
// row is the bits the row would have been computed to.
//
//deepsketch:zeroalloc
func (t *elementTable) module(w *weights, k int, pb *PackedBatch, x nn.Matrix, h1, h2 nn.Matrix, ws *nn.Workspace) {
	keys := &pb.keys[k]
	fresh := ws.RowList(x.Rows)
	n := 0
	if t != nil {
		n = t[k].lookup(pb, k, h2, fresh)
	} else {
		for r := 0; r < x.Rows; r++ {
			if keys.rep[r] == r {
				fresh[n] = r
				n++
			}
		}
	}
	w[2*k].Forward(x, &keys.runs, h1, fresh[:n:n], true, ws)
	w[2*k+1].Forward(h1, nil, h2, fresh[:n:n], true, ws)
	if t != nil {
		t[k].store(pb, k, h2, fresh[:n])
	}
	for r := 0; r < x.Rows; r++ {
		if q := keys.rep[r]; q != r {
			copy(h2.Row(r), h2.Row(q))
			if t == nil {
				copy(h1.Row(r), h1.Row(q))
			}
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
	//deepsketch:ignore zeroalloc the snapshot and its memo are built once per weight generation, then cached
	snap := e.snapshot()
	ws.Reserve(forwardFloats(pb, e.m.Cfg.HiddenUnits))
	var act activations
	forwardPacked(&snap.w, pb, &snap.memo, ws, &act, out[:pb.B])
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
