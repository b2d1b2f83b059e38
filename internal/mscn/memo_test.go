package mscn

import (
	"bytes"
	"math"
	"math/rand"
	"slices"
	"sync"
	"testing"

	"deepsketch/internal/featurize"
	"deepsketch/internal/nn"
)

// The transposed-weight kernel, the element memo and the in-batch dedupe
// are optimisations with no numerical content: the engine must return the
// bits of a plain forward, which computes every row of every set with the
// dense GEMM (plainPredict). The tests below compare the two with ==.

const memoT, memoBits = 4, 70 // tables, bitmap width

// tableRow is a table row of the shape the featurizer emits: one-hot of
// table ti, then n leading ones of the bitmap.
func tableRow(ti, n int) []float64 {
	v := make([]float64, memoT+memoBits)
	v[ti] = 1
	for i := 0; i < n; i++ {
		v[memoT+i] = 1
	}
	return v
}

// memoReferences: table 0 has a full sample, table 1 a short one (a small
// table's all-ones bitmap ends early), table 2 a one-tuple sample.
func memoReferences() [][]float64 {
	return [][]float64{tableRow(0, memoBits), tableRow(1, 25), tableRow(2, 1)}
}

// oneHot is a width-dim row with a 1 at column i (the zero row for i < 0).
func oneHot(dim, i int) []float64 {
	v := make([]float64, dim)
	if i >= 0 {
		v[i] = 1
	}
	return v
}

// nearTableRow returns a table row of one of the classes the element memo
// and the dedupe must tell apart: exact reference rows, rows that share a
// reference's prefix or runs but not its values, rows of no reference.
func nearTableRow(rng *rand.Rand) []float64 {
	switch rng.Intn(8) {
	case 0:
		return tableRow(1, 24) // a prefix of reference 1
	case 1:
		return tableRow(1, 26) // reference 1 is a prefix of it
	case 2:
		v := tableRow(0, memoBits) // one cleared bit
		v[memoT+rng.Intn(memoBits)] = 0
		return v
	case 3:
		v := tableRow(0, memoBits)
		if rng.Intn(2) == 0 { // one other value, splitting the bitmap's run
			v[memoT+rng.Intn(memoBits)] = 0.5
			return v
		}
		for i := memoT; i < len(v); i++ { // the same runs, another value
			v[i] = 0.5
		}
		return v
	case 4:
		return tableRow(3, memoBits) // a table with no reference
	case 5:
		return make([]float64, memoT+memoBits) // no non-zero column at all
	default:
		return memoReferences()[rng.Intn(3)]
	}
}

// memoEncs mixes the table-row classes of nearTableRow with join rows that
// are one-hots, zero or arbitrary, predicate rows that are zero or
// arbitrary, and rows repeated from earlier queries, into ragged queries.
func memoEncs(rng *rand.Rand, n, jdim, pdim int) []featurize.Encoded {
	encs := make([]featurize.Encoded, n)
	for i := range encs {
		encs[i] = randEnc(rng, 0, rng.Intn(3), rng.Intn(3), memoT+memoBits, jdim, pdim)
		e := &encs[i]
		for t := 1 + rng.Intn(4); t > 0; t-- {
			e.TableVecs = append(e.TableVecs, nearTableRow(rng))
		}
		for j := rng.Intn(3); j > 0; j-- {
			e.JoinVecs = append(e.JoinVecs, oneHot(jdim, rng.Intn(jdim+1)-1))
		}
		if rng.Intn(3) == 0 {
			e.PredVecs = append(e.PredVecs, make([]float64, pdim))
		}
		if i > 0 && rng.Intn(2) == 0 {
			prev := encs[rng.Intn(i)]
			if len(prev.JoinVecs) > 0 {
				e.JoinVecs = append(e.JoinVecs, prev.JoinVecs[rng.Intn(len(prev.JoinVecs))])
			}
			if len(prev.PredVecs) > 0 {
				e.PredVecs = append(e.PredVecs, prev.PredVecs[rng.Intn(len(prev.PredVecs))])
			}
			e.TableVecs = append(e.TableVecs, prev.TableVecs[rng.Intn(len(prev.TableVecs))])
		}
	}
	return encs
}

// templateEncs is a template expansion in miniature: n instances of one
// query that differ in one predicate's literal.
func templateEncs(rng *rand.Rand, n, jdim, pdim int) []featurize.Encoded {
	base := memoEncs(rng, 1, jdim, pdim)[0]
	encs := make([]featurize.Encoded, n)
	for i := range encs {
		lit := oneHot(pdim, 0)
		lit[1] = 1
		lit[pdim-1] = float64(i) / float64(n)
		encs[i] = featurize.Encoded{
			TableVecs: base.TableVecs,
			JoinVecs:  base.JoinVecs,
			PredVecs:  append(append([][]float64{}, base.PredVecs...), lit),
		}
	}
	return encs
}

// denseSets stacks encs' dense rows into one matrix per set, with CSR
// offsets per query — the packed batch of encs as dense rows, built with no
// code of the packer's.
func denseSets(encs []featurize.Encoded, tdim, jdim, pdim int) ([3]nn.Matrix, [3][]int) {
	var xs [3]nn.Matrix
	var offs [3][]int
	for k, dim := range [3]int{tdim, jdim, pdim} {
		offs[k] = []int{0}
		var data []float64
		for _, enc := range encs {
			vecs := [3][][]float64{enc.TableVecs, enc.JoinVecs, enc.PredVecs}[k]
			for _, v := range vecs {
				data = append(data, v...)
			}
			offs[k] = append(offs[k], offs[k][len(offs[k])-1]+len(vecs))
		}
		xs[k] = nn.Matrix{Rows: len(data) / dim, Cols: dim, Data: data}
	}
	return xs, offs
}

// plainPredict is the MSCN forward with no element memo, no dedupe, no runs
// and no transposed weights — every row of every set through every layer
// as a dense GEMM on the [out][in] weights (gemmBias,
// nn.Linear.ForwardFused) — over encs as one batch.
func plainPredict(t testing.TB, m *Model, encs []featurize.Encoded) []float64 {
	t.Helper()
	if len(encs) == 0 {
		t.Fatal("plainPredict of no query")
	}
	layers := m.layers()
	dense := func(l *nn.Linear, x nn.Matrix, relu bool) nn.Matrix {
		y := nn.NewMatrix(x.Rows, l.Out)
		l.ForwardFused(x, y, relu)
		return y
	}
	src, offs := denseSets(encs, m.TDim, m.JDim, m.PDim)
	h, b := m.Cfg.HiddenUnits, len(encs)
	concat := nn.NewMatrix(b, 3*h)
	for k, x := range src {
		h2 := dense(layers[2*k+1], dense(layers[2*k], x, true), true)
		pool := nn.NewMatrix(b, h)
		nn.SegmentAvgPool(h2, offs[k], pool)
		for bi := 0; bi < b; bi++ {
			copy(concat.Row(bi)[k*h:(k+1)*h], pool.Row(bi))
		}
	}
	y := dense(layers[7], dense(layers[6], concat, true), false)
	nn.SigmoidInPlace(y)
	return y.Data
}

func samePredictions(t *testing.T, what string, got, want []float64) {
	t.Helper()
	for i := range want {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("%s: query %d: engine %v, plain %v", what, i, got[i], want[i])
		}
	}
}

// checkEngineIsPlain compares e against plainPredict over every encs,
// batched (PredictSourceInto and one Forward over all of them) and single
// (Predict).
func checkEngineIsPlain(t *testing.T, what string, e *Engine, encs []featurize.Encoded) {
	t.Helper()
	m := e.m
	want := plainPredict(t, m, encs)
	samePredictions(t, what+" batch", predictBatch(t, e, encs), want)
	pb, err := BuildPackedBatch(encs, m.TDim, m.JDim, m.PDim)
	if err != nil {
		t.Fatal(err)
	}
	var ws nn.Workspace
	got := make([]float64, len(encs))
	e.Forward(pb, &ws, got)
	samePredictions(t, what+" one forward", got, want)
	for i, enc := range encs[:min(len(encs), 40)] {
		got, err := e.Predict(enc)
		if err != nil {
			t.Fatal(err)
		}
		if got != want[i] {
			t.Fatalf("%s single: query %d: engine %v, plain %v", what, i, got, want[i])
		}
	}
}

// rowwisePredict is plainPredict on each query alone: no row of one query
// shares a batch with another's.
func rowwisePredict(t testing.TB, m *Model, encs []featurize.Encoded) []float64 {
	t.Helper()
	out := make([]float64, len(encs))
	for i := range encs {
		out[i] = plainPredict(t, m, encs[i:i+1])[0]
	}
	return out
}

// rerollEncs is a second batch drawn from first: n ragged queries whose
// rows are, each with probability 1/2, a row of the same set of a query of
// first, and otherwise memoEncs' fresh rows.
func rerollEncs(rng *rand.Rand, first []featurize.Encoded, n, jdim, pdim int) []featurize.Encoded {
	encs := memoEncs(rng, n, jdim, pdim)
	draw := func(rows [][]float64, set func(featurize.Encoded) [][]float64) [][]float64 {
		out := slices.Clone(rows)
		for i := range out {
			if from := set(first[rng.Intn(len(first))]); len(from) > 0 && rng.Intn(2) == 0 {
				out[i] = from[rng.Intn(len(from))]
			}
		}
		return out
	}
	for i := range encs {
		e := &encs[i]
		e.TableVecs = draw(e.TableVecs, func(f featurize.Encoded) [][]float64 { return f.TableVecs })
		e.JoinVecs = draw(e.JoinVecs, func(f featurize.Encoded) [][]float64 { return f.JoinVecs })
		e.PredVecs = draw(e.PredVecs, func(f featurize.Encoded) [][]float64 { return f.PredVecs })
	}
	return encs
}

// collidingRows returns two rows of width dim (at least 3), each one valued
// run: a's is columns lo..hi-1, b's one column longer, and b's value is a's
// with exactly the bits flipped where the two runs' bounds differ
// (rowHash's word per run) — the same rowHash, and not equal.
func collidingRows(rng *rand.Rand, dim int) (a, b []float64) {
	lo := rng.Intn(dim - 2)
	hi := lo + 1 + rng.Intn(dim-lo-1)
	va := 1 + rng.Float64()
	bounds := func(lo, hi int) uint64 { return uint64(lo)<<32 | uint64(hi) }
	vb := math.Float64frombits(math.Float64bits(va) ^ bounds(lo, hi) ^ bounds(lo, hi+1))
	a, b = make([]float64, dim), make([]float64, dim)
	for c := lo; c < hi; c++ {
		a[c] = va
	}
	for c := lo; c <= hi; c++ {
		b[c] = vb
	}
	return a, b
}

// memoMisses returns how many first occurrences of pb's set k the current
// snapshot's memo of e lacks — what a forward of pb would compute — and
// the number of first occurrences. It writes nothing into the memo.
func memoMisses(e *Engine, pb *PackedBatch, k int) (misses, firsts int) {
	rows := pb.keys[k].runs.Rows()
	for r := 0; r < rows; r++ {
		if pb.keys[k].rep[r] == r {
			firsts++
		}
	}
	h2 := nn.NewMatrix(rows, e.m.Cfg.HiddenUnits)
	return e.snap.Load().memo[k].lookup(pb, k, h2, make([]int, rows)), firsts
}

func TestReferenceRowMemoIsBitwise(t *testing.T) {
	const jdim, pdim = 5, 9
	rng := rand.New(rand.NewSource(61))
	m := New(Config{HiddenUnits: 22, BatchSize: 16, Seed: 3}, memoT+memoBits, jdim, pdim)
	e := NewEngine(m)
	encs := memoEncs(rng, 150, jdim, pdim)
	tpl := templateEncs(rng, 70, jdim, pdim)

	check := func(what string) {
		t.Helper()
		checkEngineIsPlain(t, what, e, encs)
		checkEngineIsPlain(t, what+" template", e, tpl)
	}
	check("initial weights")
	check("a warm memo")
	checkEngineIsPlain(t, "a fresh engine", NewEngine(m), encs)

	// Other weights, read into a fresh model as a sketch file is loaded:
	// its engine's memo is filled on them.
	other := New(Config{HiddenUnits: 22, BatchSize: 16, Seed: 4}, memoT+memoBits, jdim, pdim)
	var buf bytes.Buffer
	if err := other.WriteWeights(&buf); err != nil {
		t.Fatal(err)
	}
	loaded := New(m.Cfg, m.TDim, m.JDim, m.PDim)
	if err := loaded.ReadWeights(&buf); err != nil {
		t.Fatal(err)
	}
	le := loaded.Engine()
	checkEngineIsPlain(t, "read weights", le, encs)
	checkEngineIsPlain(t, "read weights, warm memo", le, tpl)
	if after := predictBatch(t, le, encs); slices.Equal(after, predictBatch(t, e, encs)) {
		t.Fatal("the read weights predict as the model's — the test is vacuous")
	}

	checkEngineIsPlain(t, "clone", m.Clone().Engine(), encs)
}

// TestReferenceRowLookup pins what the memo holds and what counts as a hit:
// a row a batch computed on the snapshot's weights, with the same runs and
// the same values, nothing less — and nothing of a released snapshot.
func TestReferenceRowLookup(t *testing.T) {
	const jdim, pdim = 3, 5
	m := New(Config{HiddenUnits: 8, Seed: 1}, memoT+memoBits, jdim, pdim)
	e := NewEngine(m)
	held := func(k int, row []float64) bool {
		t.Helper()
		enc := featurize.Encoded{TableVecs: [][]float64{tableRow(0, 0)}}
		switch k {
		case 0:
			enc.TableVecs[0] = row
		case 1:
			enc.JoinVecs = [][]float64{row}
		default:
			enc.PredVecs = [][]float64{row}
		}
		pb, err := BuildPackedBatch([]featurize.Encoded{enc}, m.TDim, m.JDim, m.PDim)
		if err != nil {
			t.Fatal(err)
		}
		misses, _ := memoMisses(e, pb, k)
		return misses == 0
	}
	refs := memoReferences()
	if held(0, refs[0]) || held(1, oneHot(jdim, 0)) || held(2, make([]float64, pdim)) {
		t.Fatal("an engine that has predicted nothing holds a row")
	}
	// One query per join one-hot and the zero join, each with every
	// reference row and the zero predicate row.
	var warm []featurize.Encoded
	for j := -1; j < jdim; j++ {
		warm = append(warm, featurize.Encoded{TableVecs: refs, JoinVecs: [][]float64{oneHot(jdim, j)}, PredVecs: [][]float64{make([]float64, pdim)}})
	}
	predictBatch(t, e, warm)
	snap := e.snap.Load()
	for i, ref := range refs {
		if !held(0, ref) {
			t.Fatalf("reference row %d is not held after a batch computed it", i)
		}
	}
	for j := -1; j < jdim; j++ {
		if !held(1, oneHot(jdim, j)) {
			t.Fatalf("join one-hot %d is not held after a batch computed it", j)
		}
	}
	if !held(2, make([]float64, pdim)) {
		t.Fatal("the zero predicate row is not held after a batch computed it")
	}
	if e.snap.Load() != snap {
		t.Fatal("the snapshot was replaced while serving")
	}
	oneHalf := tableRow(0, memoBits)
	oneHalf[memoT+3] = 0.5
	half := tableRow(0, memoBits)
	for i := memoT; i < len(half); i++ {
		half[i] = 0.5
	}
	cleared := tableRow(0, memoBits)
	cleared[memoT+memoBits-1] = 0
	twoJoins := oneHot(jdim, 0)
	twoJoins[2] = 1
	scaledJoin := oneHot(jdim, 1)
	scaledJoin[1] = 2
	for name, c := range map[string]struct {
		k   int
		row []float64
	}{
		"shorter all-ones bitmap":    {0, tableRow(1, 24)},
		"longer all-ones bitmap":     {0, tableRow(1, 26)},
		"same runs, different value": {0, half},
		"one value different":        {0, oneHalf},
		"last bit cleared":           {0, cleared},
		"other table, same bitmap":   {0, tableRow(3, 25)},
		"one-hot only":               {0, tableRow(0, 0)},
		"all-zero table row":         {0, make([]float64, memoT+memoBits)},
		"two-hot join":               {1, twoJoins},
		"join one-hot of value 2":    {1, scaledJoin},
		"non-zero predicate":         {2, oneHot(pdim, 1)},
	} {
		if held(c.k, c.row) {
			t.Errorf("%s is held", name)
		}
	}
	e.Release()
	e.Serve()
	if e.snap.Load() == snap || held(0, refs[0]) || held(1, oneHot(jdim, 0)) {
		t.Fatal("the memo survived a Release")
	}
}

// TestMemoAcrossBatches: a second batch that reuses half of the first's
// rows is served partly from the memo the first filled, and both batches
// equal, bit for bit, a fresh engine's answers, the plain forward and the
// plain forward of each query alone.
func TestMemoAcrossBatches(t *testing.T) {
	const jdim, pdim = 5, 9
	rng := rand.New(rand.NewSource(65))
	m := New(Config{HiddenUnits: 20, BatchSize: 16, Seed: 5}, memoT+memoBits, jdim, pdim)
	e := NewEngine(m)
	first := memoEncs(rng, 90, jdim, pdim)
	second := rerollEncs(rng, first, 90, jdim, pdim)

	samePredictions(t, "first batch", predictBatch(t, e, first), rowwisePredict(t, m, first))
	pb, err := BuildPackedBatch(second, m.TDim, m.JDim, m.PDim)
	if err != nil {
		t.Fatal(err)
	}
	for k := 0; k < 3; k++ {
		if misses, firsts := memoMisses(e, pb, k); misses*4 > firsts*3 {
			t.Fatalf("set %d: the memo lacks %d of the second batch's %d distinct rows — the test is vacuous", k, misses, firsts)
		}
	}
	got := predictBatch(t, e, second)
	samePredictions(t, "second batch, fresh engine", got, predictBatch(t, NewEngine(m), second))
	samePredictions(t, "second batch, plain", got, plainPredict(t, m, second))
	samePredictions(t, "second batch, row by row", got, rowwisePredict(t, m, second))
	samePredictions(t, "first batch again", predictBatch(t, e, first), rowwisePredict(t, m, first))
}

// TestMemoHashCollision: rows whose valued runs differ but have the same
// rowHash (collidingRows) take the same slot and are not deduped; each must
// get its own h2, whichever the slot holds when it arrives.
func TestMemoHashCollision(t *testing.T) {
	const jdim, pdim = 6, 9
	rng := rand.New(rand.NewSource(66))
	m := New(Config{HiddenUnits: 12, BatchSize: 8, Seed: 6}, memoT+memoBits, jdim, pdim)
	e := NewEngine(m)
	ta, tb := collidingRows(rng, memoT+memoBits)
	ja, jb := collidingRows(rng, jdim)
	pa, pb := collidingRows(rng, pdim)
	ab := []featurize.Encoded{
		{TableVecs: [][]float64{ta}, JoinVecs: [][]float64{ja}, PredVecs: [][]float64{pa}},
		{TableVecs: [][]float64{tb}, JoinVecs: [][]float64{jb}, PredVecs: [][]float64{pb}},
	}
	packed, err := BuildPackedBatch(ab, m.TDim, m.JDim, m.PDim)
	if err != nil {
		t.Fatal(err)
	}
	for k := 0; k < 3; k++ {
		keys := &packed.keys[k]
		if keys.hash[0] != keys.hash[1] || keys.rep[1] != 1 {
			t.Fatalf("set %d: hashes %x and %x, rep %d — the rows do not collide", k, keys.hash[0], keys.hash[1], keys.rep[1])
		}
	}
	want := plainPredict(t, m, ab)
	if want[0] == want[1] {
		t.Fatal("the colliding rows predict the same — the test is vacuous")
	}
	for _, order := range [][]int{{0}, {1}, {0}, {0, 1}, {1, 0}, {1}, {1, 1, 0}} {
		encs := make([]featurize.Encoded, len(order))
		for j, q := range order {
			encs[j] = ab[q]
		}
		got := predictBatch(t, e, encs)
		for j, q := range order {
			if got[j] != want[q] {
				t.Fatalf("batch %v, query %d: %v, plain %v", order, j, got[j], want[q])
			}
		}
	}
}

// TestMemoMoreRowsThanSlots: three times as many distinct predicate rows as
// a set has slots, twice over, so slots are overwritten throughout; every
// answer is the plain forward's.
func TestMemoMoreRowsThanSlots(t *testing.T) {
	const jdim, pdim = 4, 6
	m := New(Config{HiddenUnits: 8, BatchSize: 64, Seed: 7}, memoT+memoBits, jdim, pdim)
	e := NewEngine(m)
	n := 3 * memoSlots
	encs := make([]featurize.Encoded, n)
	for i := range encs {
		lit := oneHot(pdim, i%3)
		lit[pdim-1] = float64(i+1) / float64(n)
		encs[i] = featurize.Encoded{TableVecs: [][]float64{tableRow(i%memoT, i%memoBits)}, PredVecs: [][]float64{lit}}
	}
	want := plainPredict(t, m, encs)
	samePredictions(t, "first pass", predictBatch(t, e, encs), want)
	samePredictions(t, "second pass", predictBatch(t, e, encs), want)
}

// TestMemoHoldsCollidingRows: memoWays distinct predicate rows whose
// hashes pick one bucket — rows a direct-mapped memo would evict in turn —
// are all held after one batch, a second batch of them forwards none, and
// both answer as the plain forward.
func TestMemoHoldsCollidingRows(t *testing.T) {
	const jdim, pdim, candidates = 3, 6, 8 * memoSlots
	m := New(Config{HiddenUnits: 8, BatchSize: 64, Seed: 8}, memoT+memoBits, jdim, pdim)
	enc := func(i int) featurize.Encoded {
		lit := oneHot(pdim, 0)
		lit[1] = 1
		lit[pdim-1] = float64(i+1) / candidates
		return featurize.Encoded{TableVecs: [][]float64{tableRow(0, 5)}, PredVecs: [][]float64{lit}}
	}
	all := make([]featurize.Encoded, candidates)
	for i := range all {
		all[i] = enc(i)
	}
	pb, err := BuildPackedBatch(all, m.TDim, m.JDim, m.PDim)
	if err != nil {
		t.Fatal(err)
	}
	buckets := map[int][]featurize.Encoded{}
	var encs []featurize.Encoded
	for r, h := range pb.keys[2].hash {
		b := memoSlot(h)
		if buckets[b] = append(buckets[b], all[r]); len(buckets[b]) == memoWays {
			encs = buckets[b]
			break
		}
	}
	if encs == nil {
		t.Fatalf("no %d of %d predicate rows share a bucket", memoWays, candidates)
	}
	e := NewEngine(m)
	want := plainPredict(t, m, encs)
	samePredictions(t, "first batch", predictBatch(t, e, encs), want)
	one, err := BuildPackedBatch(encs, m.TDim, m.JDim, m.PDim)
	if err != nil {
		t.Fatal(err)
	}
	if misses, firsts := memoMisses(e, one, 2); firsts != memoWays || misses != 0 {
		t.Fatalf("after one batch the memo lacks %d of the %d colliding rows (%d distinct)", misses, memoWays, firsts)
	}
	samePredictions(t, "second batch", predictBatch(t, e, encs), want)
	if misses, _ := memoMisses(e, one, 2); misses != 0 {
		t.Fatalf("after the second batch the memo lacks %d of the colliding rows", misses)
	}
}

// TestPackedBatchKeys pins the in-batch dedupe: each row's rep is the first
// row of its set with the same runs and values, and rows that differ in any
// value — or hold a NaN — are their own.
func TestPackedBatchKeys(t *testing.T) {
	a := tableRow(0, 10)
	b := tableRow(0, 10)
	b[memoT+3] = 0.5
	nan := tableRow(1, 3)
	nan[memoT] = math.NaN()
	z := make([]float64, memoT+memoBits)
	rows := [][]float64{a, b, a, z, nan, b, nan, z, tableRow(0, 11)}
	want := []int{0, 1, 0, 3, 4, 1, 6, 3, 8}
	enc := featurize.Encoded{TableVecs: rows, JoinVecs: [][]float64{{0, 1}, {0, 1}}, PredVecs: [][]float64{{0}}}
	var pb PackedBatch
	for round := 0; round < 2; round++ { // the second build reuses the buffers
		if err := pb.BuildFrom(encodedSource{enc}, 0, 1, memoT+memoBits, 2, 1); err != nil {
			t.Fatal(err)
		}
		for r, w := range want {
			if got := pb.keys[0].rep[r]; got != w {
				t.Fatalf("round %d: table row %d has rep %d, want %d", round, r, got, w)
			}
		}
		if got := pb.keys[1].rep; got[0] != 0 || got[1] != 0 {
			t.Fatalf("round %d: join reps %v, want [0 0]", round, got)
		}
	}
}

// TestReferenceRowMemoZeroAlloc: with every row a memo hit or deduped, the
// steady-state forward does not touch the heap, at either precision (a
// clone of one model each). TestPredictSourceIntoZeroAlloc adds the batch
// entry.
func TestReferenceRowMemoZeroAlloc(t *testing.T) {
	const jdim, pdim = 5, 9
	base := New(Config{HiddenUnits: 16, BatchSize: 64, Seed: 1}, memoT+memoBits, jdim, pdim)
	encs := memoEncs(rand.New(rand.NewSource(62)), 24, jdim, pdim)
	var pb PackedBatch
	if err := pb.BuildFrom(newRunsSource(encs, memoT+memoBits, jdim, pdim), 0, len(encs), memoT+memoBits, jdim, pdim); err != nil {
		t.Fatal(err)
	}
	var ws nn.Workspace
	out := make([]float64, len(encs))
	for _, p := range []Precision{F64, F32} {
		m := base.Clone()
		m.SetPrecision(p)
		e := NewEngine(m)
		e.Forward(&pb, &ws, out)
		if a := testing.AllocsPerRun(50, func() { e.Forward(&pb, &ws, out) }); a != 0 {
			t.Fatalf("precision %d: forward allocates %.1f times per op, want 0", p, a)
		}
	}
}

// TestMemoSnapshotRaceReleaseServe: goroutines predict overlapping windows
// of one query list — so they share memo slots, reading what the others
// wrote — while another keeps releasing and serving the engine, so a
// forward finds the snapshot, a new one with an empty memo, or none and
// transposes the weights for itself. Every forward must equal, over its
// whole batch, the plain forward of the served weights: the model's at
// F64, their float32 rounding at F32 (a clone of one model each). Under
// -race this is the memo's locking and the snapshot's atomic swaps.
func TestMemoSnapshotRaceReleaseServe(t *testing.T) {
	const jdim, pdim = 5, 9
	const goroutines, window = 4, 25
	base := New(Config{HiddenUnits: 16, BatchSize: 8, Seed: 1}, memoT+memoBits, jdim, pdim)
	rng := rand.New(rand.NewSource(63))
	first := memoEncs(rng, 30, jdim, pdim)
	encs := append(first, rerollEncs(rng, first, 30, jdim, pdim)...)
	for _, p := range []Precision{F64, F32} {
		m := base.Clone()
		m.SetPrecision(p)
		served := m
		if p == F32 {
			served = roundedClone(m)
		}
		want := plainPredict(t, served, encs)
		e := NewEngine(m)

		stop := make(chan struct{})
		var cycler sync.WaitGroup
		cycler.Add(1)
		go func() {
			defer cycler.Done()
			for {
				select {
				case <-stop:
					return
				default:
					e.Release()
					e.Serve()
				}
			}
		}()
		var wg sync.WaitGroup
		for g := 0; g < goroutines; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				lo := g * (len(encs) - window) / (goroutines - 1)
				mine := encs[lo : lo+window]
				var ws nn.Workspace
				var pb PackedBatch
				out := make([]float64, window)
				for round := 0; round < 30; round++ {
					if err := pb.BuildFrom(encodedSource(mine), 0, window, memoT+memoBits, jdim, pdim); err != nil {
						t.Error(err)
						return
					}
					e.Forward(&pb, &ws, out)
					if !slices.Equal(out, want[lo:lo+window]) {
						t.Errorf("precision %d, goroutine %d round %d: predictions %v, served weights %v", p, g, round, out, want[lo:lo+window])
						return
					}
				}
			}(g)
		}
		wg.Wait()
		close(stop)
		cycler.Wait()
		if !e.Snapshotted() {
			t.Fatalf("precision %d: the engine was served last and holds no snapshot", p)
		}
	}
}

// TestReleasedEngineKeepsNoSnapshot: a released engine's late forwards —
// batched, one Forward and single — answer as the served engine did, bit
// for bit, at F64 and at F32, and leave no snapshot behind; Serve builds
// one again, with an empty memo.
func TestReleasedEngineKeepsNoSnapshot(t *testing.T) {
	const jdim, pdim = 5, 9
	base := New(Config{HiddenUnits: 24, BatchSize: 16, Seed: 2}, memoT+memoBits, jdim, pdim)
	rng := rand.New(rand.NewSource(67))
	encs := memoEncs(rng, 60, jdim, pdim)
	for _, p := range []Precision{F64, F32} {
		m := base.Clone()
		m.SetPrecision(p)
		e := m.Engine()
		served := predictBatch(t, e, encs)
		e.Release()
		if e.Snapshotted() {
			t.Fatalf("precision %d: a released engine holds a snapshot", p)
		}
		samePredictions(t, "released, batched", predictBatch(t, e, encs), served)
		pb, err := BuildPackedBatch(encs, m.TDim, m.JDim, m.PDim)
		if err != nil {
			t.Fatal(err)
		}
		var ws nn.Workspace
		got := make([]float64, len(encs))
		e.Forward(pb, &ws, got)
		samePredictions(t, "released, one forward", got, served)
		for i, enc := range encs[:10] {
			if y, err := e.Predict(enc); err != nil || y != served[i] {
				t.Fatalf("precision %d, released, single query %d: %v (%v), served %v", p, i, y, err, served[i])
			}
		}
		if e.Snapshotted() {
			t.Fatalf("precision %d: late forwards left a snapshot behind", p)
		}
		e.Serve()
		for k := 0; k < 3; k++ {
			if misses, firsts := memoMisses(e, pb, k); misses != firsts {
				t.Fatalf("precision %d: set %d: the memo Serve built holds %d of %d rows", p, k, firsts-misses, firsts)
			}
		}
		samePredictions(t, "served again", predictBatch(t, e, encs), served)
	}
}

// FuzzDedupedForwardMatchesPlain: two consecutive ragged batches through
// one engine — the first built from the seed with planted duplicates
// within and across queries, join one-hots, reference rows, zero rows and
// arbitrary rows; the second drawing about half its rows from the first —
// each equal the plain forward (dense GEMMs, no memo, no dedupe) in every
// bit. Shape bit 0 adds pairs of rows whose hashes collide, one of each
// pair per batch; bit 1 makes the first batch a template expansion; bit 2
// selects the serving width, 256 units.
func FuzzDedupedForwardMatchesPlain(f *testing.F) {
	f.Add(int64(1), uint8(1), uint8(0))
	f.Add(int64(2), uint8(64), uint8(1))
	f.Add(int64(3), uint8(17), uint8(2))
	f.Add(int64(4), uint8(200), uint8(3))
	f.Add(int64(5), uint8(30), uint8(5))
	f.Fuzz(func(t *testing.T, seed int64, n, shape uint8) {
		const jdim, pdim = 4, 7
		rng := rand.New(rand.NewSource(seed))
		units := 6 + int(shape%4)*3
		if shape&4 != 0 {
			units = 256
		}
		m := New(Config{HiddenUnits: units, BatchSize: 1 + int(n%80), Seed: seed}, memoT+memoBits, jdim, pdim)
		e := NewEngine(m)
		var first []featurize.Encoded
		if shape&2 == 0 {
			first = memoEncs(rng, 1+int(n)%97, jdim, pdim)
		} else {
			first = templateEncs(rng, 1+int(n)%97, jdim, pdim)
		}
		second := rerollEncs(rng, first, 1+int(n)%89, jdim, pdim)
		if shape&1 != 0 {
			for i := 0; i < 3; i++ {
				ta, tb := collidingRows(rng, memoT+memoBits)
				ja, jb := collidingRows(rng, jdim)
				pa, pb := collidingRows(rng, pdim)
				first = append(first, featurize.Encoded{TableVecs: [][]float64{ta}, JoinVecs: [][]float64{ja}, PredVecs: [][]float64{pa}})
				second = append(second, featurize.Encoded{TableVecs: [][]float64{tb}, JoinVecs: [][]float64{jb}, PredVecs: [][]float64{pb}})
			}
		}
		samePredictions(t, "fuzz, first batch", predictBatch(t, e, first), plainPredict(t, m, first))
		samePredictions(t, "fuzz, second batch", predictBatch(t, e, second), plainPredict(t, m, second))
	})
}

// TestEngineMatchesGemmBias pins the engine's predictions at the serving
// width, 256 units, to the plain forward on gemmBias bit for bit: batched,
// as one forward and single, with the memo (warm after the first) and the
// dedupe on.
func TestEngineMatchesGemmBias(t *testing.T) {
	const jdim, pdim = 5, 9
	m := New(Config{HiddenUnits: 256, BatchSize: 32, Seed: 8}, memoT+memoBits, jdim, pdim)
	e := NewEngine(m)
	checkEngineIsPlain(t, "256 units", e, memoEncs(rand.New(rand.NewSource(64)), 60, jdim, pdim))
}
