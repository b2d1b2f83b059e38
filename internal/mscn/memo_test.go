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

// The reference-row memo is an optimisation with no numerical content: an
// engine that has it must return the bits an engine without it returns.
// The tests below hold two engines over one model — plain and memoised —
// and compare them with ==.

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

// memoEncs mixes exact reference rows, rows that share a reference's prefix
// or runs but not its values, and random rows, into ragged queries.
func memoEncs(rng *rand.Rand, n, jdim, pdim int) []featurize.Encoded {
	near := func() []float64 {
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
	encs := make([]featurize.Encoded, n)
	for i := range encs {
		encs[i] = randEnc(rng, 0, rng.Intn(4), rng.Intn(4), memoT+memoBits, jdim, pdim)
		for t := 1 + rng.Intn(4); t > 0; t-- {
			encs[i].TableVecs = append(encs[i].TableVecs, near())
		}
	}
	return encs
}

func samePredictions(t *testing.T, what string, got, want []float64) {
	t.Helper()
	for i := range want {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("%s: query %d: memoised %v, plain %v", what, i, got[i], want[i])
		}
	}
}

func TestReferenceRowMemoIsBitwise(t *testing.T) {
	const jdim, pdim = 5, 9
	rng := rand.New(rand.NewSource(61))
	m := New(Config{HiddenUnits: 22, BatchSize: 16, Seed: 3}, memoT+memoBits, jdim, pdim)
	plain, memo := NewEngine(m), NewEngine(m)
	memo.SetReferenceRows(memoReferences())
	encs := memoEncs(rng, 150, jdim, pdim)

	check := func(what string) {
		t.Helper()
		for _, p := range []Precision{F64, F32, F64} {
			m.SetPrecision(p)
			samePredictions(t, what+" batch "+p.String(), predictBatch(t, memo, encs), predictBatch(t, plain, encs))
			for i, enc := range encs[:40] {
				got, err := memo.Predict(enc)
				if err != nil {
					t.Fatal(err)
				}
				want, err := plain.Predict(enc)
				if err != nil {
					t.Fatal(err)
				}
				if got != want {
					t.Fatalf("%s single %v: query %d: memoised %v, plain %v", what, p, i, got, want)
				}
			}
		}
	}
	check("initial weights")

	// New weights under a new generation: the memo must follow them.
	other := New(Config{HiddenUnits: 22, BatchSize: 16, Seed: 4}, memoT+memoBits, jdim, pdim)
	var buf bytes.Buffer
	if err := other.WriteWeights(&buf); err != nil {
		t.Fatal(err)
	}
	before := predictBatch(t, memo, encs)
	if err := m.ReadWeights(&buf); err != nil {
		t.Fatal(err)
	}
	check("after ReadWeights")
	if after := predictBatch(t, memo, encs); after[0] == before[0] {
		t.Fatal("ReadWeights changed no prediction — the test is vacuous")
	}

	// Other reference rows on the same generation: the memo must follow
	// those too.
	memo.SetReferenceRows(memoReferences()[1:])
	check("after replacing the reference rows")
}

// TestReferenceRowLookup pins what counts as a hit: the same runs and the
// same values, nothing less.
func TestReferenceRowLookup(t *testing.T) {
	m := New(Config{HiddenUnits: 8, Seed: 1}, memoT+memoBits, 2, 3)
	e := NewEngine(m)
	if mm := memoFor(e, &e.memo64, m.WeightGen(), m.weights()[0]); mm != nil {
		t.Fatal("an engine with no reference rows has a memo")
	}
	refs := memoReferences()
	e.SetReferenceRows(refs)
	mm := memoFor(e, &e.memo64, m.WeightGen(), m.weights()[0])
	if again := memoFor(e, &e.memo64, m.WeightGen(), m.weights()[0]); again != mm {
		t.Fatal("the memo was recomputed on an unchanged generation")
	}
	lookup := func(row []float64) []float64 {
		x := nn.Matrix{Rows: 1, Cols: len(row), Data: row}
		var ix nn.RunIndex
		nn.Index(&ix, x)
		return mm.lookup(row, ix.Row(0))
	}
	for i, ref := range refs {
		got := lookup(ref)
		if got == nil || &got[0] != &mm.h1.Row(i)[0] {
			t.Fatalf("reference row %d does not hit its own memo", i)
		}
	}
	half := tableRow(0, memoBits)
	half[memoT+3] = 0.5
	cleared := tableRow(0, memoBits)
	cleared[memoT+memoBits-1] = 0
	for name, row := range map[string][]float64{
		"shorter all-ones bitmap":    tableRow(1, 24),
		"longer all-ones bitmap":     tableRow(1, 26),
		"same runs, different value": half,
		"last bit cleared":           cleared,
		"other table, same bitmap":   tableRow(3, 25),
		"one-hot only":               tableRow(0, 0),
		"all-zero row":               make([]float64, memoT+memoBits),
	} {
		if lookup(row) != nil {
			t.Errorf("%s hits the memo", name)
		}
	}
	m.noteWeightsChanged()
	if next := memoFor(e, &e.memo64, m.WeightGen(), m.weights()[0]); next == mm {
		t.Fatal("the memo survived a weight-generation bump")
	}
}

// TestReferenceRowMemoZeroAlloc: with reference rows installed and hit, the
// steady-state forward still does not touch the heap, at either precision —
// both kernels directly and Engine.forward, the dispatch every estimate
// goes through, so a local of the dispatch moved to the heap fails here.
func TestReferenceRowMemoZeroAlloc(t *testing.T) {
	const jdim, pdim = 5, 9
	m := New(Config{HiddenUnits: 16, Seed: 1}, memoT+memoBits, jdim, pdim)
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
		t.Fatalf("memoised f64 forward allocates %.1f times per op, want 0", a)
	}
	if a := testing.AllocsPerRun(50, func() { e.forwardReduced(pb, &ws32, out) }); a != 0 {
		t.Fatalf("memoised f32 forward allocates %.1f times per op, want 0", a)
	}
	var s engineScratch
	for _, p := range []Precision{F64, F32} {
		m.SetPrecision(p)
		e.forward(pb, &s, out)
		if a := testing.AllocsPerRun(50, func() { e.forward(pb, &s, out) }); a != 0 {
			t.Fatalf("memoised %v forward dispatch allocates %.1f times per op, want 0", p, a)
		}
	}
}

// TestReferenceRowMemoConcurrentGenerations: predictions at both precisions
// race a goroutine that keeps bumping the weight generation (ReadWeights on
// an empty stream fails before it writes a weight, and bumps regardless).
// The weights never change, so every prediction must equal the plain
// engine's; under -race this is the memo's and the snapshot's
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
		want[p] = predictBatch(t, NewEngine(m), encs)
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
				if err := pb.Build(encs, memoT+memoBits, jdim, pdim); err != nil {
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
