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
		v := tableRow(0, memoBits) // same runs, one other value
		v[memoT+rng.Intn(memoBits)] = 0.5
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

// plainPredict is the MSCN forward with no element memo, no dedupe and no
// transposed weights — every row of every set through every layer as a
// dense GEMM on the [out][in] weights (gemmBias, nn.Linear.ForwardFused) —
// over encs as one packed batch.
func plainPredict(t testing.TB, m *Model, encs []featurize.Encoded) []float64 {
	t.Helper()
	pb, err := BuildPackedBatch(encs, m.TDim, m.JDim, m.PDim)
	if err != nil {
		t.Fatal(err)
	}
	layers := m.layers()
	dense := func(l *nn.Linear, x nn.Matrix, relu bool) nn.Matrix {
		y := nn.NewMatrix(x.Rows, l.Out)
		l.ForwardFused(x, y, relu)
		return y
	}
	src, offs := pb.sets()
	h := m.Cfg.HiddenUnits
	concat := nn.NewMatrix(pb.B, 3*h)
	for k, x := range src {
		h2 := dense(layers[2*k+1], dense(layers[2*k], x, true), true)
		pool := nn.NewMatrix(pb.B, h)
		nn.SegmentAvgPool(h2, offs[k], pool)
		for bi := 0; bi < pb.B; bi++ {
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

// collidingRows returns two rows of width dim with the same runs and the
// same values, permuted inside one run — the same rowHash, and not equal.
func collidingRows(rng *rand.Rand, dim int) (a, b []float64) {
	lo := rng.Intn(dim - 2)
	a = make([]float64, dim)
	for c := lo; c < lo+3; c++ {
		a[c] = float64(c-lo+1) / 4 * (1 + rng.Float64())
	}
	b = slices.Clone(a)
	b[lo], b[lo+1] = b[lo+1], b[lo]
	return a, b
}

// memoMisses returns how many first occurrences of pb's set k the current
// snapshot's memo of e lacks — what a forward of pb would compute — and
// the number of first occurrences. It writes nothing into the memo.
func memoMisses(e *Engine, pb *PackedBatch, k int) (misses, firsts int) {
	x := pb.set(k)
	for r := 0; r < x.Rows; r++ {
		if pb.keys[k].rep[r] == r {
			firsts++
		}
	}
	h2 := nn.NewMatrix(x.Rows, e.m.Cfg.HiddenUnits)
	return e.snapshot().memo[k].lookup(pb, k, h2, make([]int, x.Rows)), firsts
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

	// New weights under a new generation: the memo must follow them.
	other := New(Config{HiddenUnits: 22, BatchSize: 16, Seed: 4}, memoT+memoBits, jdim, pdim)
	var buf bytes.Buffer
	if err := other.WriteWeights(&buf); err != nil {
		t.Fatal(err)
	}
	before := predictBatch(t, e, encs)
	if err := m.ReadWeights(&buf); err != nil {
		t.Fatal(err)
	}
	check("after ReadWeights")
	if after := predictBatch(t, e, encs); after[0] == before[0] {
		t.Fatal("ReadWeights changed no prediction — the test is vacuous")
	}

	checkEngineIsPlain(t, "clone", m.Clone().Engine(), encs)
}

// TestReferenceRowLookup pins what the memo holds and what counts as a hit:
// a row a batch computed on the snapshot's weights, with the same runs and
// the same values, nothing less — and nothing of another snapshot.
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
	snap := e.snapshot()
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
	if e.snapshot() != snap {
		t.Fatal("the snapshot was rebuilt on an unchanged generation")
	}
	half := tableRow(0, memoBits)
	half[memoT+3] = 0.5
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
	m.noteWeightsChanged()
	if e.snapshot() == snap || held(0, refs[0]) {
		t.Fatal("the memo survived a weight-generation bump")
	}
	predictBatch(t, e, warm)
	m.SetPrecision(F32)
	if held(0, refs[0]) || held(1, oneHot(jdim, 0)) {
		t.Fatal("the memo survived a precision switch")
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

// TestMemoHashCollision: rows with the same runs and the same values in a
// permuted order have the same rowHash, so the same slot; each must get
// its own h2, whichever the slot holds when it arrives.
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
// steady-state forward does not touch the heap, at either precision.
// TestPredictSourceIntoZeroAlloc adds the batch entry.
func TestReferenceRowMemoZeroAlloc(t *testing.T) {
	const jdim, pdim = 5, 9
	m := New(Config{HiddenUnits: 16, BatchSize: 64, Seed: 1}, memoT+memoBits, jdim, pdim)
	e := NewEngine(m)
	encs := memoEncs(rand.New(rand.NewSource(62)), 24, jdim, pdim)
	pb, err := BuildPackedBatch(encs, memoT+memoBits, jdim, pdim)
	if err != nil {
		t.Fatal(err)
	}
	var ws nn.Workspace
	out := make([]float64, len(encs))
	for _, p := range []Precision{F64, F32} {
		m.SetPrecision(p)
		e.Forward(pb, &ws, out)
		if a := testing.AllocsPerRun(50, func() { e.Forward(pb, &ws, out) }); a != 0 {
			t.Fatalf("precision %d: forward allocates %.1f times per op, want 0", p, a)
		}
	}
}

// TestReferenceRowMemoConcurrentGenerations: goroutines predict overlapping
// windows of one query list — so they share memo slots, reading what the
// others wrote — while another keeps bumping the weight generation
// (ReadWeights on an empty stream fails before it writes a weight, and
// bumps regardless) and flipping the precision. The weights never change,
// so every forward must equal, over its whole batch, the plain forward of
// the weights or of their float32 rounding — one snapshot and its memo,
// never a mix; under -race this is the memo's locking and the snapshot's
// double-checked rebuild.
func TestReferenceRowMemoConcurrentGenerations(t *testing.T) {
	const jdim, pdim = 5, 9
	const goroutines, window = 4, 25
	m := New(Config{HiddenUnits: 16, BatchSize: 8, Seed: 1}, memoT+memoBits, jdim, pdim)
	e := NewEngine(m)
	rng := rand.New(rand.NewSource(63))
	first := memoEncs(rng, 30, jdim, pdim)
	encs := append(first, rerollEncs(rng, first, 30, jdim, pdim)...)
	want := [2][]float64{F64: plainPredict(t, m, encs), F32: plainPredict(t, roundedClone(m), encs)}

	stop := make(chan struct{})
	var bumper sync.WaitGroup
	bumper.Add(1)
	go func() {
		defer bumper.Done()
		for {
			select {
			case <-stop:
				return
			default:
				if m.precision() == F64 {
					m.SetPrecision(F32)
				} else {
					m.SetPrecision(F64)
				}
				if err := m.ReadWeights(bytes.NewReader(nil)); err == nil {
					t.Error("ReadWeights on an empty stream succeeded")
					return
				}
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
				if !slices.Equal(out, want[F64][lo:lo+window]) && !slices.Equal(out, want[F32][lo:lo+window]) {
					t.Errorf("goroutine %d round %d: predictions %v are neither the weights' %v nor their rounding's %v", g, round, out, want[F64][lo:lo+window], want[F32][lo:lo+window])
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(stop)
	bumper.Wait()
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
