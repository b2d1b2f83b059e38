package mscn

import (
	"bytes"
	"math"
	"math/rand"
	"sync"
	"testing"

	"deepsketch/internal/featurize"
	"deepsketch/internal/nn"
)

// The transposed-weight kernel, the element table and the in-batch dedupe
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

// nearTableRow returns a table row of one of the classes the element table
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

// plainPredict is the MSCN forward with no element table, no dedupe and no
// transposed weights — every row of every set through every layer as a
// dense GEMM on the [out][in] weights (referenceLinear) — at the model's
// current precision, over encs as one packed batch.
func plainPredict(t testing.TB, m *Model, encs []featurize.Encoded) []float64 {
	t.Helper()
	pb, err := BuildPackedBatch(encs, m.TDim, m.JDim, m.PDim)
	if err != nil {
		t.Fatal(err)
	}
	if m.Precision() == F32 {
		return referenceForward[float32](m, pb)
	}
	return referenceForward[float64](m, pb)
}

// referenceForward is plainPredict's forward at element type T.
func referenceForward[T nn.Float](m *Model, pb *PackedBatch) []float64 {
	layers := m.layers()
	src, offs := pb.sets()
	h := m.Cfg.HiddenUnits
	concat := nn.NewMat[T](pb.B, 3*h)
	for k, x := range src {
		xt := nn.NewMat[T](x.Rows, x.Cols)
		nn.ConvertRows(xt, x)
		h2 := referenceLinear(layers[2*k+1], referenceLinear(layers[2*k], xt, true), true)
		pool := nn.NewMat[T](pb.B, h)
		nn.SegmentAvgPool(h2, offs[k], pool)
		for bi := 0; bi < pb.B; bi++ {
			copy(concat.Row(bi)[k*h:(k+1)*h], pool.Row(bi))
		}
	}
	y := referenceLinear(layers[7], referenceLinear(layers[6], concat, true), false)
	nn.SigmoidInPlace(y)
	out := make([]float64, pb.B)
	nn.ConvertRows(nn.Matrix{Rows: pb.B, Cols: 1, Data: out}, y)
	return out
}

// referenceLinear is the dense layer the engine's kernel answers to bit for
// bit: gemmBias itself (nn.Linear.ForwardFused) at float64, and at float32
// its per-output order written out — each output summed over every input in
// ascending k from zero, then the bias, then the ReLU.
func referenceLinear[T nn.Float](l *nn.Linear, x nn.Mat[T], relu bool) nn.Mat[T] {
	y := nn.NewMat[T](x.Rows, l.Out)
	if x64, ok := any(x).(nn.Matrix); ok {
		l.ForwardFused(x64, any(y).(nn.Matrix), relu)
		return y
	}
	for r := 0; r < x.Rows; r++ {
		for o := range y.Row(r) {
			var a T
			for k, v := range x.Row(r) {
				a += v * T(l.W.Data[o*l.In+k])
			}
			a += T(l.B.Data[o])
			if relu && !(a > 0) {
				a = 0
			}
			y.Row(r)[o] = a
		}
	}
	return y
}

func samePredictions(t *testing.T, what string, got, want []float64) {
	t.Helper()
	for i := range want {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("%s: query %d: engine %v, plain %v", what, i, got[i], want[i])
		}
	}
}

// checkEngineIsPlain compares e against plainPredict over every encs, at
// f64, f32 and f64 again, batched (PredictSourceInto and one Forward over
// all of them) and single (Predict).
func checkEngineIsPlain(t *testing.T, what string, e *Engine, encs []featurize.Encoded) {
	t.Helper()
	m := e.m
	for _, p := range []Precision{F64, F32, F64} {
		m.SetPrecision(p)
		want := plainPredict(t, m, encs)
		samePredictions(t, what+" batch "+p.String(), predictBatch(t, e, encs), want)
		pb, err := BuildPackedBatch(encs, m.TDim, m.JDim, m.PDim)
		if err != nil {
			t.Fatal(err)
		}
		var s engineScratch
		got := make([]float64, len(encs))
		e.forward(pb, &s, got)
		samePredictions(t, what+" one forward "+p.String(), got, want)
		for i, enc := range encs[:min(len(encs), 40)] {
			got, err := e.Predict(enc)
			if err != nil {
				t.Fatal(err)
			}
			if got != want[i] {
				t.Fatalf("%s single %v: query %d: engine %v, plain %v", what, p, i, got, want[i])
			}
		}
	}
	m.SetPrecision(F64)
}

func TestReferenceRowMemoIsBitwise(t *testing.T) {
	const jdim, pdim = 5, 9
	rng := rand.New(rand.NewSource(61))
	m := New(Config{HiddenUnits: 22, BatchSize: 16, Seed: 3}, memoT+memoBits, jdim, pdim)
	e := NewEngine(m)
	e.SetReferenceRows(memoReferences())
	encs := memoEncs(rng, 150, jdim, pdim)
	tpl := templateEncs(rng, 70, jdim, pdim)

	check := func(what string) {
		t.Helper()
		checkEngineIsPlain(t, what, e, encs)
		checkEngineIsPlain(t, what+" template", e, tpl)
	}
	check("initial weights")
	checkEngineIsPlain(t, "no reference rows", NewEngine(m), encs)

	// New weights under a new generation: the table must follow them.
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

	// Other reference rows on the same generation: the table must follow
	// those too.
	e.SetReferenceRows(memoReferences()[1:])
	check("after replacing the reference rows")

	c := m.Clone().Engine()
	c.SetReferenceRows(memoReferences())
	checkEngineIsPlain(t, "clone", c, encs)
}

// TestReferenceRowLookup pins what the element table holds and what counts
// as a hit: the same runs and the same values, nothing less.
func TestReferenceRowLookup(t *testing.T) {
	const jdim, pdim = 3, 5
	m := New(Config{HiddenUnits: 8, Seed: 1}, memoT+memoBits, jdim, pdim)
	e := NewEngine(m)
	table := func() *elementTable[float64] { return snapshotFor(e, &e.snap64).tableFor(e) }
	tb := table()
	if r := [3]int{tb.h2[0].Rows, tb.h2[1].Rows, tb.h2[2].Rows}; r != [3]int{0, jdim + 1, 1} {
		t.Fatalf("an engine with no reference rows has table rows %v, want [0 %d 1]", r, jdim+1)
	}
	refs := memoReferences()
	e.SetReferenceRows(refs)
	tb = table()
	if again := table(); again != tb {
		t.Fatal("the table was recomputed on an unchanged generation")
	}
	find := func(k int, row []float64) int {
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
		return tb.find(pb, k, 0)
	}
	for i, ref := range refs {
		if got := find(0, ref); got != i {
			t.Fatalf("reference row %d finds table row %d", i, got)
		}
	}
	for j := -1; j < jdim; j++ {
		want := j
		if j < 0 {
			want = jdim
		}
		if got := find(1, oneHot(jdim, j)); got != want {
			t.Fatalf("join one-hot %d finds table row %d, want %d", j, got, want)
		}
	}
	if got := find(2, make([]float64, pdim)); got != 0 {
		t.Fatalf("the zero predicate row finds table row %d", got)
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
		if got := find(c.k, c.row); got >= 0 {
			t.Errorf("%s finds table row %d", name, got)
		}
	}
	m.noteWeightsChanged()
	if next := table(); next == tb {
		t.Fatal("the table survived a weight-generation bump")
	}
	tb = table()
	e.SetReferenceRows(refs)
	if next := table(); next == tb {
		t.Fatal("the table survived a replaced reference set")
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

// TestReferenceRowMemoZeroAlloc: with the element table hit and rows
// deduped, the steady-state forward still does not touch the heap, at
// either precision — both kernels directly and Engine.forward, the dispatch
// every estimate goes through, so a local of the dispatch moved to the heap
// fails here. TestPredictSourceIntoZeroAlloc adds the batch entry.
func TestReferenceRowMemoZeroAlloc(t *testing.T) {
	const jdim, pdim = 5, 9
	m := New(Config{HiddenUnits: 16, BatchSize: 64, Seed: 1}, memoT+memoBits, jdim, pdim)
	e := NewEngine(m)
	e.SetReferenceRows(memoReferences())
	encs := memoEncs(rand.New(rand.NewSource(62)), 24, jdim, pdim)
	pb, err := BuildPackedBatch(encs, memoT+memoBits, jdim, pdim)
	if err != nil {
		t.Fatal(err)
	}
	var ws nn.Workspace
	var ws32 nn.Arena[float32]
	out := make([]float64, len(encs))
	e.Forward(pb, &ws, out)
	e.forwardReduced(pb, &ws32, out)
	if a := testing.AllocsPerRun(50, func() { e.Forward(pb, &ws, out) }); a != 0 {
		t.Fatalf("f64 forward allocates %.1f times per op, want 0", a)
	}
	if a := testing.AllocsPerRun(50, func() { e.forwardReduced(pb, &ws32, out) }); a != 0 {
		t.Fatalf("f32 forward allocates %.1f times per op, want 0", a)
	}
	var s engineScratch
	for _, p := range []Precision{F64, F32} {
		m.SetPrecision(p)
		e.forward(pb, &s, out)
		if a := testing.AllocsPerRun(50, func() { e.forward(pb, &s, out) }); a != 0 {
			t.Fatalf("%v forward dispatch allocates %.1f times per op, want 0", p, a)
		}
	}
}

// TestReferenceRowMemoConcurrentGenerations: predictions at both precisions
// race a goroutine that keeps bumping the weight generation (ReadWeights on
// an empty stream fails before it writes a weight, and bumps regardless).
// The weights never change, so every prediction must equal the plain
// forward's; under -race this is the table's and the snapshot's
// double-checked rebuild.
func TestReferenceRowMemoConcurrentGenerations(t *testing.T) {
	const jdim, pdim = 5, 9
	m := New(Config{HiddenUnits: 16, BatchSize: 8, Seed: 1}, memoT+memoBits, jdim, pdim)
	e := NewEngine(m)
	e.SetReferenceRows(memoReferences())
	encs := memoEncs(rand.New(rand.NewSource(63)), 40, jdim, pdim)
	var want [2][]float64
	for _, p := range []Precision{F64, F32} {
		m.SetPrecision(p)
		want[p] = plainPredict(t, m, encs)
	}

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
				if err := m.ReadWeights(bytes.NewReader(nil)); err == nil {
					t.Error("ReadWeights on an empty stream succeeded")
					return
				}
			}
		}
	}()
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			var ws nn.Workspace
			var ws32 nn.Arena[float32]
			var pb PackedBatch
			out := make([]float64, len(encs))
			for round := 0; round < 30; round++ {
				if err := pb.BuildFrom(encodedSource(encs), 0, len(encs), memoT+memoBits, jdim, pdim); err != nil {
					t.Error(err)
					return
				}
				p := Precision((g + round) % 2)
				if p == F32 {
					e.forwardReduced(&pb, &ws32, out)
				} else {
					e.Forward(&pb, &ws, out)
				}
				for i := range out {
					if out[i] != want[p][i] {
						t.Errorf("goroutine %d round %d %v: query %d = %v, want %v", g, round, p, i, out[i], want[p][i])
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
	close(stop)
	bumper.Wait()
}

// FuzzDedupedForwardMatchesPlain: over ragged batches built from the seed —
// planted duplicates within and across queries, join one-hots, reference
// rows, zero rows and arbitrary rows — the engine's forward equals the plain
// forward (dense GEMMs, no table, no dedupe) in every bit, at f64 and f32.
// Shape bit 2 selects the serving width, 256 units.
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
		if shape&1 == 0 {
			e.SetReferenceRows(memoReferences())
		}
		var encs []featurize.Encoded
		if shape&2 == 0 {
			encs = memoEncs(rng, 1+int(n)%97, jdim, pdim)
		} else {
			encs = templateEncs(rng, 1+int(n)%97, jdim, pdim)
		}
		for _, p := range []Precision{F64, F32} {
			m.SetPrecision(p)
			samePredictions(t, "fuzz "+p.String(), predictBatch(t, e, encs), plainPredict(t, m, encs))
		}
	})
}

// TestEngineMatchesGemmBias pins the engine's predictions at the serving
// width, 256 units, to the plain forward on gemmBias bit for bit: at f64
// and f32, batched, as one forward and single, with the element table and
// the dedupe on.
func TestEngineMatchesGemmBias(t *testing.T) {
	const jdim, pdim = 5, 9
	m := New(Config{HiddenUnits: 256, BatchSize: 32, Seed: 8}, memoT+memoBits, jdim, pdim)
	e := NewEngine(m)
	e.SetReferenceRows(memoReferences())
	checkEngineIsPlain(t, "256 units", e, memoEncs(rand.New(rand.NewSource(64)), 60, jdim, pdim))
}
