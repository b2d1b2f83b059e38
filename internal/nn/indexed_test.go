package nn

import (
	"fmt"
	"math"
	"testing"

	"deepsketch/internal/datagen"
)

// The forward kernel and the indexed backward promise equality of bits with
// gemmBias and the dense backward, so nothing here has a tolerance: values
// are compared through Float64bits (which tells −0 from +0).

// indexedCase is one input of the bitwise check: a rows×in matrix filled by
// cycling pattern through indexedVals (so a pattern whose length does not
// divide in gives every row a different phase), multiplied into out units.
type indexedCase struct {
	name          string
	rows, in, out int
	pattern       []byte
}

// indexedVals maps a pattern byte (mod 8) to an element: zeros, ones, and
// non-binary and negative values — the kernel reads x[k], it does not
// assume 1.
var indexedVals = [8]float64{0, 1, 0, 1, -1, 0.5, -2.75, 3}

func oneAt(n, i int) []byte {
	p := make([]byte, n)
	p[i] = 1
	return p
}

var indexedCases = []indexedCase{
	{"empty rows", 3, 9, 5, []byte{0}},
	{"single bit at column 0", 2, 11, 8, oneAt(11, 0)},
	{"single bit at column in-1", 3, 11, 6, oneAt(11, 10)},
	{"all ones, even rows", 4, 13, 8, []byte{1}},
	{"all ones, odd rows", 5, 13, 7, []byte{1}},
	{"alternating bits", 3, 10, 4, []byte{1, 0}},
	{"alternating bits, shifting phase", 4, 9, 9, []byte{0, 1}},
	{"runs touching both edges", 2, 7, 5, []byte{1, 1, 0, 0, 0, 1, 1}},
	{"non-binary and negative", 3, 8, 6, []byte{4, 5, 6, 7, 0, 7, 6, 2, 5}},
	{"one-hot then bitmap", 6, 37, 12, []byte{0, 0, 1, 0, 0, 1, 1, 1, 1, 0, 1, 1, 0, 0, 0, 0, 0, 0, 1}},
	{"single output", 3, 6, 1, []byte{1, 0, 5}},
	{"single row", 1, 6, 3, []byte{0, 6, 1}},
	{"zero rows", 0, 6, 4, []byte{1}},
}

func (c indexedCase) matrix() Matrix {
	x := NewMatrix(c.rows, c.in)
	for i := range x.Data {
		x.Data[i] = indexedVals[c.pattern[i%len(c.pattern)]%8]
	}
	return x
}

func sameBits(a, b []float64) int {
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return i
		}
	}
	return -1
}

// checkIndexedForward: Layer.Forward equals gemmBias on the [out][in]
// weights in every bit — through x's run index and through the dense
// x[k] != 0 test, with and without the fused ReLU, computed in one range
// or as two row lists.
func checkIndexedForward(t *testing.T, c indexedCase, seed int64) {
	t.Helper()
	lin := NewLinear("t", c.in, c.out, datagen.NewRand(seed))
	l := NewLayer(lin)
	x := c.matrix()
	var ix RunIndex
	Index(&ix, x)
	var ws Workspace
	for _, relu := range []bool{false, true} {
		want := dirty(c.rows, c.out)
		gemmBias(x, lin.W.Data, lin.B.Data, want, relu)
		for _, index := range []*RunIndex{&ix, nil} {
			got := dirty(c.rows, c.out)
			l.Forward(x, index, got, nil, relu, &ws)
			if i := sameBits(got.Data, want.Data); i >= 0 {
				t.Fatalf("%s relu=%v indexed=%v: forward[%d]=%v, gemmBias %v", c.name, relu, index != nil, i, got.Data[i], want.Data[i])
			}
			split := dirty(c.rows, c.out)
			l.Forward(x, index, split, span(0, c.rows/2), relu, &ws)
			l.Forward(x, index, split, span(c.rows/2, c.rows), relu, &ws)
			if i := sameBits(split.Data, want.Data); i >= 0 {
				t.Fatalf("%s relu=%v indexed=%v: forward as two row lists [%d]=%v, gemmBias %v", c.name, relu, index != nil, i, split.Data[i], want.Data[i])
			}
		}
	}
}

// checkIndexedBackward: BackwardIndexed equals BackwardParams in every bit
// of dW and dB, accumulating into buffers that already hold a previous
// contribution (the trainer accumulates every shard's rows in turn), and
// taken over two output ranges it equals one pass over all outputs.
func checkIndexedBackward(t *testing.T, c indexedCase, seed int64) {
	t.Helper()
	rng := datagen.NewRand(seed)
	l := NewLinear("t", c.in, c.out, rng)
	x := c.matrix()
	var ix RunIndex
	Index(&ix, x)
	dy := NewMatrix(c.rows, c.out)
	for i := range dy.Data {
		if rng.Intn(4) > 0 { // ReLU leaves exact zeros in real upstream gradients
			dy.Data[i] = rng.Float64()*2 - 1
		}
	}
	wantW, wantB := make([]float64, c.in*c.out), make([]float64, c.out)
	gotW, gotB := make([]float64, c.in*c.out), make([]float64, c.out)
	split := c.out / 3
	for pass := 0; pass < 2; pass++ {
		l.BackwardParams(x, dy, 0, c.out, wantW, wantB)
		l.BackwardIndexed(x, &ix, dy, split, c.out, gotW, gotB)
		l.BackwardIndexed(x, &ix, dy, 0, split, gotW, gotB)
	}
	if i := sameBits(gotW, wantW); i >= 0 {
		t.Fatalf("%s: indexed dW[%d]=%v, dense %v", c.name, i, gotW[i], wantW[i])
	}
	if i := sameBits(gotB, wantB); i >= 0 {
		t.Fatalf("%s: indexed dB[%d]=%v, dense %v", c.name, i, gotB[i], wantB[i])
	}
}

// wideCase is a table module's first layer at serving width: rows of a
// one-hot in 8 columns and a 1,006-column bitmap whose bits are set with
// probability fill, into 256 units. The pattern's length does not divide
// the row's, so every row has other bits.
func wideCase(fill float64, seed int64) indexedCase {
	rng := datagen.NewRand(seed)
	pattern := make([]byte, 1031)
	for i := range pattern {
		if rng.Float64() < fill {
			pattern[i] = 1
		}
	}
	return indexedCase{fmt.Sprintf("width 256, fill %g", fill), 5, 8 + 1006, 256, pattern}
}

func TestIndexedMatchesDenseBitwise(t *testing.T) {
	for i, c := range indexedCases {
		checkIndexedForward(t, c, int64(100+i))
		checkIndexedBackward(t, c, int64(300+i))
	}
	for i, fill := range []float64{0.02, 0.1, 0.5, 0.95, 1} {
		c := wideCase(fill, int64(400+i))
		checkIndexedForward(t, c, int64(500+i))
	}
}

// TestIndexRuns pins the index itself: maximal, ascending, half-open runs;
// rebuilt in place.
func TestIndexRuns(t *testing.T) {
	x := NewMatrix(4, 6)
	copy(x.Row(0), []float64{1, 1, 0, 0, 2, 1})
	copy(x.Row(2), []float64{0, 0, -3, 0, 0, 0})
	copy(x.Row(3), []float64{math.NaN(), 1, 1, 1, 1, math.Copysign(0, -1)})
	var ix RunIndex
	Index(&ix, NewMatrix(9, 2)) // a previous, larger build must leave nothing behind
	Index(&ix, x)
	want := [][]Run{{{0, 2}, {4, 6}}, {}, {{2, 3}}, {{0, 5}}}
	if ix.Rows() != len(want) {
		t.Fatalf("Rows() = %d, want %d", ix.Rows(), len(want))
	}
	for r, w := range want {
		got := ix.Row(r)
		if len(got) != len(w) {
			t.Fatalf("row %d: runs %v, want %v", r, got, w)
		}
		for i := range w {
			if got[i] != w[i] {
				t.Fatalf("row %d: runs %v, want %v", r, got, w)
			}
		}
	}
	if (&RunIndex{}).Rows() != 0 {
		t.Fatal("zero RunIndex has rows")
	}
}

// FuzzIndexedForwardMatchesDense lets the fuzzer pick the shape and the
// zero/non-zero pattern; the named cases above are its seeds. An out of 250
// or more is the serving width, 256 units.
func FuzzIndexedForwardMatchesDense(f *testing.F) {
	for i, c := range indexedCases {
		f.Add(uint8(c.rows), uint8(c.in), uint8(c.out), int64(i), c.pattern)
	}
	f.Fuzz(func(t *testing.T, rows, in, out uint8, seed int64, pattern []byte) {
		if len(pattern) == 0 {
			pattern = []byte{0}
		}
		units := 1 + int(out%19)
		if out >= 250 {
			units = 256
		}
		c := indexedCase{"fuzz", int(rows % 12), 1 + int(in%80), units, pattern}
		checkIndexedForward(t, c, seed)
		checkIndexedBackward(t, c, seed)
	})
}

// TestForwardIndexedZeroAlloc: the forward kernel, indexed and dense, over
// every row and over a row list, and the index lookups on its path never
// touch the heap once the workspace has grown — also at a table row wider
// than 1,024 columns into 256 units, where the column list outgrows any
// small fixed buffer.
func TestForwardIndexedZeroAlloc(t *testing.T) {
	wide := wideCase(0.5, 7)
	wide.rows, wide.in = 9, 8+1100
	for _, c := range []indexedCase{indexedCases[9], wide} {
		l := NewLayer(NewLinear("t", c.in, c.out, datagen.NewRand(1)))
		x := c.matrix()
		var ix RunIndex
		Index(&ix, x)
		y := NewMatrix(c.rows, c.out)
		list := span(1, c.rows)
		var ws Workspace
		for _, index := range []*RunIndex{&ix, nil} {
			for _, rows := range [][]int{nil, list} {
				l.Forward(x, index, y, rows, true, &ws) // grow the column list
				if a := testing.AllocsPerRun(20, func() { l.Forward(x, index, y, rows, true, &ws) }); a != 0 {
					t.Fatalf("%s: Forward (indexed=%v, rows %v) allocates %.1f times per call, want 0", c.name, index != nil, rows, a)
				}
			}
		}
		Index(&ix, x) // steady state: same shape, buffers reused
		if a := testing.AllocsPerRun(20, func() { Index(&ix, x) }); a != 0 {
			t.Fatalf("%s: Index allocates %.1f times per rebuild at a steady shape, want 0", c.name, a)
		}
	}
}
