package nn

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sync"
	"testing"

	"deepsketch/internal/datagen"
)

// f64Tol bounds the kernels' distance from the tape path's dot-product
// forward, which sums in another order.
const f64Tol = 1e-12

// relDiff is |got-want|, relative to |want| once that exceeds 1.
func relDiff(got, want float64) float64 {
	d := math.Abs(got - want)
	if m := math.Abs(want); m > 1 {
		d /= m
	}
	return d
}

// dirty returns a rows×cols matrix filled with a sentinel, to prove a
// kernel fully overwrites a reused output buffer.
func dirty(rows, cols int) Matrix {
	m := NewMatrix(rows, cols)
	for i := range m.Data {
		m.Data[i] = 999
	}
	return m
}

// TestForwardFusedMatchesForward: the forward kernel (dense, on transposed
// weights) and Linear.ForwardFused (gemmBias) must match the reference
// dot-product forward across shapes that hit gemmBias's tile-remainder
// paths (rows not divisible by 2, outputs not divisible by 4/2) and the
// axpy's (outputs not divisible by 16 or 4).
func TestForwardFusedMatchesForward(t *testing.T) {
	rng := datagen.NewRand(7)
	for _, shape := range [][3]int{
		{1, 3, 1}, {2, 5, 4}, {3, 8, 5}, {4, 16, 4}, {5, 7, 9},
		{8, 33, 12}, {17, 10, 6}, {64, 21, 13}, {3, 40, 37},
	} {
		rows, in, out := shape[0], shape[1], shape[2]
		l := NewLinear("t", in, out, rng)
		x := NewMatrix(rows, in)
		for i := range x.Data {
			x.Data[i] = rng.Float64()*2 - 1
		}
		lt := NewLayer(l)
		for _, relu := range []bool{false, true} {
			want := l.Forward(x)
			if relu {
				want = ReLU(want)
			}
			got := dirty(rows, out)
			var ws Workspace
			lt.Forward(x, got, nil, relu, &ws)
			fused := dirty(rows, out)
			l.ForwardFused(x, fused, relu)
			for i := range want.Data {
				if d := relDiff(got.Data[i], want.Data[i]); d > f64Tol {
					t.Fatalf("shape %v relu=%v: forward[%d]=%v want %v (Δ=%g)",
						shape, relu, i, got.Data[i], want.Data[i], d)
				}
				if d := relDiff(fused.Data[i], want.Data[i]); d > f64Tol {
					t.Fatalf("shape %v relu=%v: fused[%d]=%v want %v (Δ=%g)",
						shape, relu, i, fused.Data[i], want.Data[i], d)
				}
			}
		}
	}
}

// TestSegmentAvgPoolMatchesMasked: CSR segment pooling must agree with the
// padded masked pooling on equivalent inputs, including empty segments.
func TestSegmentAvgPoolMatchesMasked(t *testing.T) {
	rng := datagen.NewRand(8)
	const b, maxS, h = 5, 4, 3
	lens := []int{2, 0, 4, 1, 3}

	// Packed layout.
	total := 0
	for _, n := range lens {
		total += n
	}
	packed := NewMatrix(total, h)
	for i := range packed.Data {
		packed.Data[i] = rng.Float64()
	}
	offsets := make([]int, b+1)
	for i, n := range lens {
		offsets[i+1] = offsets[i] + n
	}

	// Equivalent padded layout.
	padded := NewMatrix(b*maxS, h)
	mask := make([]float64, b*maxS)
	for bi, n := range lens {
		for si := 0; si < n; si++ {
			copy(padded.Row(bi*maxS+si), packed.Row(offsets[bi]+si))
			mask[bi*maxS+si] = 1
		}
	}

	want := MaskedAvgPool(padded, mask, b, maxS)
	got := dirty(b, h) // prove full overwrite, incl. empty segments
	SegmentAvgPool(packed, offsets, got)
	for i := range want.Data {
		if d := relDiff(got.Data[i], want.Data[i]); d > f64Tol {
			t.Fatalf("pool[%d] = %v, want %v", i, got.Data[i], want.Data[i])
		}
	}
}

// checkPoolAt: SegmentAvgPoolAt of x through rep into columns col.. of a
// width-wide out whose every element holds a sentinel equals, bit for bit,
// SegmentAvgPool of the materialized rows (row r of it is x's row rep[r])
// in those columns, and leaves every other column's sentinel.
func checkPoolAt(t *testing.T, what string, x Matrix, rep, offsets []int, width, col int) {
	t.Helper()
	b, h := len(offsets)-1, x.Cols
	rows := NewMatrix(x.Rows, h)
	for r := range x.Rows {
		copy(rows.Row(r), x.Row(rowAt(rep, r)))
	}
	want := NewMatrix(b, h)
	SegmentAvgPool(rows, offsets, want)
	got := NewMatrix(b, width)
	sentinel := math.Float64frombits(0x7ff8000000000999)
	for i := range got.Data {
		got.Data[i] = sentinel
	}
	SegmentAvgPoolAt(x, rep, offsets, got, col)
	for i := range b {
		for c, v := range got.Row(i) {
			w := sentinel
			if c >= col && c < col+h {
				w = want.Row(i)[c-col]
			}
			if math.Float64bits(v) != math.Float64bits(w) {
				t.Fatalf("%s: segment %d column %d = %#x, want %#x", what, i, c, math.Float64bits(v), math.Float64bits(w))
			}
		}
	}
}

// poolCase draws checkPoolAt's input from seed: b segments of 0 to 4 rows
// (a third of them empty), h columns of tileVal values, and each row's rep
// r itself or, half the time, any row of x.
func poolCase(seed int64, b, h int) (x Matrix, rep, offsets []int) {
	rng := rand.New(rand.NewSource(seed))
	offsets = make([]int, b+1)
	for i := range b {
		n := 0
		if rng.Intn(3) > 0 {
			n = 1 + rng.Intn(4)
		}
		offsets[i+1] = offsets[i] + n
	}
	x = NewMatrix(offsets[b], h)
	for i := range x.Data {
		x.Data[i] = tileVal(rng)
	}
	rep = make([]int, x.Rows)
	for r := range rep {
		rep[r] = r
		if rng.Intn(2) == 0 {
			rep[r] = rng.Intn(x.Rows)
		}
	}
	return x, rep, offsets
}

// TestSegmentAvgPoolAt: pooling through reps at a column offset is
// SegmentAvgPool of the rows the reps name, in those columns only, with
// and without reps, at the first, a middle and the last column; empty
// segments zero their own columns and nothing else; and a column range
// outside out panics, as do offsets or reps that do not fit x.
func TestSegmentAvgPoolAt(t *testing.T) {
	for seed := int64(1); seed <= 40; seed++ {
		b, h := 1+int(seed%7), 1+int(seed%5)
		x, rep, offsets := poolCase(seed, b, h)
		for _, col := range []int{0, 1 + int(seed%3), 2*h + 2} {
			checkPoolAt(t, fmt.Sprintf("seed %d col %d", seed, col), x, rep, offsets, col+h+int(seed%2)*3, col)
			checkPoolAt(t, fmt.Sprintf("seed %d col %d, no reps", seed, col), x, nil, offsets, col+h, col)
		}
	}
	// Every segment empty: zeros in the pooled columns only.
	checkPoolAt(t, "all empty", NewMatrix(0, 3), nil, []int{0, 0, 0}, 9, 3)

	x, rep, offsets := poolCase(7, 4, 3)
	for name, f := range map[string]func(){
		"column past out":       func() { SegmentAvgPoolAt(x, rep, offsets, NewMatrix(4, 5), 3) },
		"negative column":       func() { SegmentAvgPoolAt(x, rep, offsets, NewMatrix(4, 5), -1) },
		"out narrower than x":   func() { SegmentAvgPool(x, offsets, NewMatrix(4, 2)) },
		"rep shorter than x":    func() { SegmentAvgPoolAt(x, rep[:len(rep)-1], offsets, NewMatrix(4, 3), 0) },
		"offsets past x":        func() { SegmentAvgPoolAt(x, rep, []int{0, 0, 0, 0, x.Rows + 1}, NewMatrix(4, 3), 0) },
		"one offset too few":    func() { SegmentAvgPoolAt(x, rep, offsets[:4], NewMatrix(4, 3), 0) },
		"rep past the last row": func() { SegmentAvgPoolAt(x, append(rep[:len(rep)-1:len(rep)-1], x.Rows), offsets, NewMatrix(4, 3), 0) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: no panic", name)
				}
			}()
			f()
		}()
	}
}

// FuzzSegmentAvgPoolAt lets the fuzzer pick the segments, the values, the
// reps, the column and out's extra width of TestSegmentAvgPoolAt's check.
func FuzzSegmentAvgPoolAt(f *testing.F) {
	f.Add(int64(1), uint8(3), uint8(4), uint8(0), uint8(0))
	f.Add(int64(2), uint8(9), uint8(1), uint8(5), uint8(2))
	f.Add(int64(3), uint8(1), uint8(8), uint8(9), uint8(7))
	f.Fuzz(func(t *testing.T, seed int64, bN, hN, col, extra uint8) {
		b, h := 1+int(bN%12), 1+int(hN%16)
		x, rep, offsets := poolCase(seed, b, h)
		c := int(col % 40)
		checkPoolAt(t, "reps", x, rep, offsets, c+h+int(extra%8), c)
		checkPoolAt(t, "no reps", x, nil, offsets, c+h+int(extra%8), c)
	})
}

// TestWorkspaceReuse: Reserve/Alloc must reuse the arena (zero allocations
// at steady state) and growth must leave earlier matrices intact.
func TestWorkspaceReuse(t *testing.T) {
	var ws Workspace
	ws.Reserve(12)
	a := ws.Alloc(2, 3)
	for i := range a.Data {
		a.Data[i] = float64(i)
	}
	// Force growth: earlier matrix keeps its (old) backing storage.
	b := ws.Alloc(10, 10)
	b.Data[0] = 7
	for i := range a.Data {
		if a.Data[i] != float64(i) {
			t.Fatalf("growth corrupted earlier matrix at %d", i)
		}
	}

	ws2 := &Workspace{}
	ws2.Reserve(64)
	ws2.Alloc(4, 8) // warm
	allocs := testing.AllocsPerRun(20, func() {
		ws2.Reserve(64)
		m := ws2.Alloc(4, 8)
		m.Data[0] = 1
	})
	if allocs != 0 {
		t.Fatalf("steady-state Reserve/Alloc allocates %.1f times, want 0", allocs)
	}
}

// singleEdges are values where rounding to single precision changes
// regime: the overflow threshold, the normal/subnormal boundary, the
// smallest subnormal and the ties around each, both signs.
var singleEdges = []float64{
	0, math.Copysign(0, -1), 1, 1 + 0x1p-24, 1 + 0x1p-23 + 0x1p-24, 1 + 0x1p-24 + 0x1p-52,
	math.MaxFloat32, math.MaxFloat32 + 0x1p103, math.MaxFloat32 + 0x1p103 - 0x1p75, 0x1p128, math.MaxFloat64,
	0x1p-126, 0x1p-126 - 0x1p-150, 0x1p-149, 0x1p-150, 0x1p-150 + 0x1p-170, 0x3p-150, 0x1p-151,
	math.SmallestNonzeroFloat64, math.Inf(1),
}

// TestRoundToSingleMatchesConversion: roundToSingle returns, bit for bit,
// what a conversion through float32 returns — at the regime edges and
// across random values of every magnitude a float32 can hold and beyond.
func TestRoundToSingleMatchesConversion(t *testing.T) {
	check := func(v float64) {
		want := float64(float32(v))
		if got := roundToSingle(v); math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("roundToSingle(%x) = %x, float32 conversion %x", v, got, want)
		}
	}
	for _, v := range singleEdges {
		check(v)
		check(-v)
	}
	rng := datagen.NewRand(24)
	for i := 0; i < 200000; i++ {
		v := math.Float64frombits(rng.Uint64())
		if math.IsNaN(v) {
			continue
		}
		check(v)
		check(math.Ldexp(rng.Float64()*2-1, rng.Intn(320)-170))
	}
	l := Layer{WT: []float64{1 + 0x1p-30, -0x1p-160}, B: []float64{math.MaxFloat64}}
	l.RoundToSingle()
	if l.WT[0] != 1 || math.Float64bits(l.WT[1]) != math.Float64bits(math.Copysign(0, -1)) || !math.IsInf(l.B[0], 1) {
		t.Fatalf("RoundToSingle = %v, %v; want [1 -0], [+Inf]", l.WT, l.B)
	}
}

// TestBackwardIntoMatchesBackward: the reusable-buffer backward (including
// the nil-dx params-only mode) must accumulate identical gradients.
func TestBackwardIntoMatchesBackward(t *testing.T) {
	rng := datagen.NewRand(9)
	const rows, in, out = 6, 7, 5
	mk := func() (*Linear, Matrix, Matrix) {
		l := NewLinear("t", in, out, datagen.NewRand(9))
		x := NewMatrix(rows, in)
		dy := NewMatrix(rows, out)
		r2 := datagen.NewRand(10)
		for i := range x.Data {
			x.Data[i] = r2.Float64()
		}
		for i := range dy.Data {
			dy.Data[i] = r2.Float64() - 0.5
		}
		return l, x, dy
	}
	_ = rng

	lRef, x, dy := mk()
	dxRef := lRef.Backward(x, dy)

	lInto, _, _ := mk()
	dx := NewMatrix(rows, in)
	for i := range dx.Data {
		dx.Data[i] = 999 // dirty: BackwardInto must fully overwrite
	}
	lInto.BackwardInto(x, dy, &dx)
	for i := range dxRef.Data {
		if math.Abs(dx.Data[i]-dxRef.Data[i]) > 1e-12 {
			t.Fatalf("dx[%d] = %v, want %v", i, dx.Data[i], dxRef.Data[i])
		}
	}
	lNil, _, _ := mk()
	lNil.BackwardInto(x, dy, nil)
	for p := 0; p < 2; p++ {
		ref, got := lRef.Params()[p], lNil.Params()[p]
		for i := range ref.Grad {
			if math.Abs(got.Grad[i]-ref.Grad[i]) > 1e-12 {
				t.Fatalf("params-only %s grad[%d] = %v, want %v", ref.Name, i, got.Grad[i], ref.Grad[i])
			}
		}
		got2 := lInto.Params()[p]
		for i := range ref.Grad {
			if math.Abs(got2.Grad[i]-ref.Grad[i]) > 1e-12 {
				t.Fatalf("into %s grad[%d] = %v, want %v", ref.Name, i, got2.Grad[i], ref.Grad[i])
			}
		}
	}
}

// TestInPlaceActivations: the in-place variants must match their allocating
// counterparts.
func TestInPlaceActivations(t *testing.T) {
	rng := datagen.NewRand(11)
	x := NewMatrix(3, 4)
	for i := range x.Data {
		x.Data[i] = rng.Float64()*4 - 2
	}
	s := Sigmoid(x)
	sip := x.Clone()
	SigmoidInPlace(sip)
	for i := range s.Data {
		if s.Data[i] != sip.Data[i] {
			t.Fatalf("SigmoidInPlace[%d] = %v, want %v", i, sip.Data[i], s.Data[i])
		}
	}

	y := ReLU(x)
	dy := NewMatrix(3, 4)
	for i := range dy.Data {
		dy.Data[i] = rng.Float64() - 0.5
	}
	want := ReLUBackward(y, dy)
	dyIP := dy.Clone()
	ReLUBackwardInPlace(y, dyIP)
	for i := range want.Data {
		if want.Data[i] != dyIP.Data[i] {
			t.Fatalf("ReLUBackwardInPlace[%d] = %v, want %v", i, dyIP.Data[i], want.Data[i])
		}
	}

	sw := Sigmoid(x)
	wantS := SigmoidBackward(sw, dy)
	dyS := dy.Clone()
	SigmoidBackwardInPlace(sw, dyS)
	for i := range wantS.Data {
		if wantS.Data[i] != dyS.Data[i] {
			t.Fatalf("SigmoidBackwardInPlace[%d] = %v, want %v", i, dyS.Data[i], wantS.Data[i])
		}
	}
}

// TestMaskedAvgPoolIntoDirtyBuffers: the Into pooling variants must fully
// overwrite dirty reused buffers, including masked-out and empty rows.
func TestMaskedAvgPoolIntoDirtyBuffers(t *testing.T) {
	rng := datagen.NewRand(12)
	const b, s, h = 3, 2, 4
	x := NewMatrix(b*s, h)
	for i := range x.Data {
		x.Data[i] = rng.Float64()
	}
	mask := []float64{1, 0, 0, 0, 1, 1} // set 1 is empty
	want := MaskedAvgPool(x, mask, b, s)
	got := NewMatrix(b, h)
	for i := range got.Data {
		got.Data[i] = 999
	}
	MaskedAvgPoolInto(x, mask, b, s, got)
	for i := range want.Data {
		if want.Data[i] != got.Data[i] {
			t.Fatalf("pool into[%d] = %v, want %v", i, got.Data[i], want.Data[i])
		}
	}

	dOut := NewMatrix(b, h)
	for i := range dOut.Data {
		dOut.Data[i] = rng.Float64()
	}
	wantB := MaskedAvgPoolBackward(dOut, mask, b, s)
	gotB := NewMatrix(b*s, h)
	for i := range gotB.Data {
		gotB.Data[i] = 999
	}
	MaskedAvgPoolBackwardInto(dOut, mask, b, s, gotB)
	for i := range wantB.Data {
		if wantB.Data[i] != gotB.Data[i] {
			t.Fatalf("pool backward into[%d] = %v, want %v", i, gotB.Data[i], wantB.Data[i])
		}
	}
}

// TestTransposeRangesMatchElementLoop: Transpose over any split of WT's rows
// into ranges, run concurrently, writes the element loop's WT[k][o] =
// W[o][k] and the bias, and a range writes no row outside itself and the
// bias only when it holds row 0.
func TestTransposeRangesMatchElementLoop(t *testing.T) {
	rng := datagen.NewRand(3)
	for _, shape := range [][2]int{{1006, 256}, {9, 17}, {7, 3}, {1, 1}} {
		in, out := shape[0], shape[1]
		l := NewLinear("t", in, out, rng)
		want := make([]float64, in*out)
		for o := 0; o < out; o++ {
			for k := 0; k < in; k++ {
				want[k*out+o] = l.W.Data[o*in+k]
			}
		}
		// Every cut point for the small shapes; around the block edges
		// and the middle for the wide one. Each set of cuts is one split.
		var splits [][]int
		for c := 0; c <= in; c++ {
			if in < 64 || c%8 <= 1 && (c < 24 || c > in-24) || c == in/2 {
				splits = append(splits, []int{0, c, in})
			}
		}
		splits = append(splits, []int{0, in / 3, 2 * in / 3, in})
		if in < 64 {
			every := make([]int, in+1)
			for i := range every {
				every[i] = i
			}
			splits = append(splits, every)
		}
		for _, cuts := range splits {
			dst := NewLayer(NewLinear("zero", in, out, rng)) // other weights, to be overwritten
			var wg sync.WaitGroup
			for i := 0; i+1 < len(cuts); i++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					Transpose(&dst, l, cuts[i], cuts[i+1])
				}()
			}
			wg.Wait()
			for i, v := range want {
				if math.Float64bits(dst.WT[i]) != math.Float64bits(v) {
					t.Fatalf("%d×%d split %v: WT[%d][%d] = %v, want %v", in, out, cuts, i/out, i%out, dst.WT[i], v)
				}
			}
			for o, v := range l.B.Data {
				if math.Float64bits(dst.B[o]) != math.Float64bits(v) {
					t.Fatalf("%d×%d split %v: B[%d] = %v, want %v", in, out, cuts, o, dst.B[o], v)
				}
			}
		}
		// One range alone leaves the other rows, and the bias unless it
		// holds row 0, as they were.
		for _, r := range [][2]int{{0, in / 2}, {in / 2, in}, {in, in}} {
			dst := NewLayer(NewLinear("zero", in, out, rng))
			oldWT, oldB := slices.Clone(dst.WT), slices.Clone(dst.B)
			Transpose(&dst, l, r[0], r[1])
			for i := range want {
				k := i / out
				exp := oldWT[i]
				if k >= r[0] && k < r[1] {
					exp = want[i]
				}
				if dst.WT[i] != exp {
					t.Fatalf("%d×%d range %v: WT[%d][%d] = %v, want %v", in, out, r, k, i%out, dst.WT[i], exp)
				}
			}
			wantB := oldB
			if r[0] == 0 && r[1] > 0 {
				wantB = l.B.Data
			}
			if !slices.Equal(dst.B, wantB) {
				t.Fatalf("%d×%d range %v: bias %v, want %v", in, out, r, dst.B, wantB)
			}
		}
	}
}
