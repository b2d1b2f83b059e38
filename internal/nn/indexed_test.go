package nn

import (
	"math"
	"testing"

	"deepsketch/internal/datagen"
)

// The indexed kernels promise equality of bits with the dense ones, so
// nothing here has a tolerance: values are compared through Float64bits
// (exact for float32 too, and it tells −0 from +0).

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

func sameBits[T Float](a, b []T) int {
	for i := range a {
		if math.Float64bits(float64(a[i])) != math.Float64bits(float64(b[i])) {
			return i
		}
	}
	return -1
}

// checkIndexedForward: ForwardIndexed over x's own index equals ForwardFused
// in every bit at element type T, with and without the fused ReLU, computed
// in one range or in two.
func checkIndexedForward[T Float](t *testing.T, c indexedCase, seed int64) {
	t.Helper()
	l := ConvertLayer[T](NewLinear("t", c.in, c.out, datagen.NewRand(seed)))
	x := convertMat[T](c.matrix())
	var ix RunIndex
	Index(&ix, x)
	for _, relu := range []bool{false, true} {
		want := dirty[T](c.rows, c.out)
		l.ForwardFused(x, want, relu)
		got := dirty[T](c.rows, c.out)
		l.ForwardIndexed(x, &ix, got, 0, c.rows, relu)
		if i := sameBits(got.Data, want.Data); i >= 0 {
			t.Fatalf("%s relu=%v: indexed[%d]=%v, dense %v", c.name, relu, i, got.Data[i], want.Data[i])
		}
		split := dirty[T](c.rows, c.out)
		l.ForwardIndexed(x, &ix, split, 0, c.rows/2, relu)
		l.ForwardIndexed(x, &ix, split, c.rows/2, c.rows, relu)
		if i := sameBits(split.Data, want.Data); i >= 0 {
			t.Fatalf("%s relu=%v: indexed in two ranges [%d]=%v, dense %v", c.name, relu, i, split.Data[i], want.Data[i])
		}
	}
}

// checkIndexedBackward: BackwardIndexed equals BackwardFused(x, dy, nil, …)
// in every bit of dW and dB, accumulating into buffers that already hold a
// previous contribution (the trainer accumulates rows of a shard).
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
	for pass := 0; pass < 2; pass++ {
		l.BackwardFused(x, dy, nil, wantW, wantB)
		l.BackwardIndexed(x, &ix, dy, gotW, gotB)
	}
	if i := sameBits(gotW, wantW); i >= 0 {
		t.Fatalf("%s: indexed dW[%d]=%v, dense %v", c.name, i, gotW[i], wantW[i])
	}
	if i := sameBits(gotB, wantB); i >= 0 {
		t.Fatalf("%s: indexed dB[%d]=%v, dense %v", c.name, i, gotB[i], wantB[i])
	}
}

func TestIndexedMatchesDenseBitwise(t *testing.T) {
	for i, c := range indexedCases {
		checkIndexedForward[float64](t, c, int64(100+i))
		checkIndexedForward[float32](t, c, int64(200+i))
		checkIndexedBackward(t, c, int64(300+i))
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
// zero/non-zero pattern; the named cases above are its seeds.
func FuzzIndexedForwardMatchesDense(f *testing.F) {
	for i, c := range indexedCases {
		f.Add(uint8(c.rows), uint8(c.in), uint8(c.out), int64(i), c.pattern)
	}
	f.Fuzz(func(t *testing.T, rows, in, out uint8, seed int64, pattern []byte) {
		if len(pattern) == 0 {
			pattern = []byte{0}
		}
		c := indexedCase{"fuzz", int(rows % 12), 1 + int(in%80), 1 + int(out%19), pattern}
		checkIndexedForward[float64](t, c, seed)
		checkIndexedForward[float32](t, c, seed)
		checkIndexedBackward(t, c, seed)
	})
}

// TestForwardIndexedZeroAlloc: the kernel and the index lookups on its path
// never touch the heap.
func TestForwardIndexedZeroAlloc(t *testing.T) {
	c := indexedCases[9]
	l := NewLinear("t", c.in, c.out, datagen.NewRand(1)).View()
	x := c.matrix()
	var ix RunIndex
	Index(&ix, x)
	y := NewMatrix(c.rows, c.out)
	if a := testing.AllocsPerRun(20, func() { l.ForwardIndexed(x, &ix, y, 0, c.rows, true) }); a != 0 {
		t.Fatalf("ForwardIndexed allocates %.1f times per call, want 0", a)
	}
	Index(&ix, x) // steady state: same shape, buffers reused
	if a := testing.AllocsPerRun(20, func() { Index(&ix, x) }); a != 0 {
		t.Fatalf("Index allocates %.1f times per rebuild at a steady shape, want 0", a)
	}
}
