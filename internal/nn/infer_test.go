package nn

import (
	"math"
	"testing"

	"deepsketch/internal/datagen"
)

// The kernel tests below take the element type as one more input: every
// helper runs at float64 against a tight bound and at float32 against
// f32RelTol. f32 kernels accumulate in float32, so they drift from the f64
// reference by rounding noise that grows with the inner dimension; a
// relative bound of ~1e-5 is comfortable for these shapes while still
// catching any real kernel bug (tiling, remainder, offset errors produce
// O(1) deviations).
const (
	f64Tol    = 1e-12
	f32RelTol = 2e-5
)

// relDiff is |got-want|, relative to |want| once that exceeds 1.
func relDiff[T Float](got T, want float64) float64 {
	d := math.Abs(float64(got) - want)
	if m := math.Abs(want); m > 1 {
		d /= m
	}
	return d
}

// dirty returns a rows×cols matrix filled with a sentinel, to prove a
// kernel fully overwrites a reused output buffer.
func dirty[T Float](rows, cols int) Mat[T] {
	m := NewMat[T](rows, cols)
	for i := range m.Data {
		m.Data[i] = 999
	}
	return m
}

// convertMat returns src converted to element type T.
func convertMat[T Float](src Matrix) Mat[T] {
	dst := NewMat[T](src.Rows, src.Cols)
	ConvertRows(dst, src)
	return dst
}

// testForwardFused: the forward kernel at T (dense, on transposed weights)
// and, at float64, Linear.ForwardFused (gemmBias) must match the reference
// f64 dot-product forward across shapes that hit gemmBias's tile-remainder
// paths (rows not divisible by 2, outputs not divisible by 4/2) and the
// axpy's (outputs not divisible by 16 or 4).
func testForwardFused[T Float](t *testing.T, seed int64, tol float64) {
	rng := datagen.NewRand(seed)
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
		var lt Layer[T]
		Transpose(&lt, l)
		xt := convertMat[T](x)
		for _, relu := range []bool{false, true} {
			want := l.Forward(x)
			if relu {
				want = ReLU(want)
			}
			got := dirty[T](rows, out)
			lt.Forward(xt, nil, got, 0, rows, relu)
			fused := dirty[float64](rows, out)
			l.ForwardFused(x, fused, relu)
			for i := range want.Data {
				if d := relDiff(got.Data[i], want.Data[i]); d > tol {
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

func TestForwardFusedMatchesForward(t *testing.T) { testForwardFused[float64](t, 7, f64Tol) }
func TestForwardFused32MatchesF64(t *testing.T)   { testForwardFused[float32](t, 21, f32RelTol) }

// testSegmentAvgPool: CSR segment pooling at T must agree with the padded
// f64 masked pooling on equivalent inputs, including empty segments.
func testSegmentAvgPool[T Float](t *testing.T, seed int64, tol float64) {
	rng := datagen.NewRand(seed)
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
	got := dirty[T](b, h) // prove full overwrite, incl. empty segments
	SegmentAvgPool(convertMat[T](packed), offsets, got)
	for i := range want.Data {
		if d := relDiff(got.Data[i], want.Data[i]); d > tol {
			t.Fatalf("pool[%d] = %v, want %v", i, got.Data[i], want.Data[i])
		}
	}
}

func TestSegmentAvgPoolMatchesMasked(t *testing.T) { testSegmentAvgPool[float64](t, 8, f64Tol) }
func TestSegmentAvgPool32MatchesF64(t *testing.T)  { testSegmentAvgPool[float32](t, 22, f32RelTol) }

// TestSigmoidInPlace32MatchesF64: the f32 sigmoid computes through float64
// exp and rounds once, so it should sit within one ulp-ish of the f64 one.
func TestSigmoidInPlace32MatchesF64(t *testing.T) {
	rng := datagen.NewRand(23)
	x := NewMatrix(3, 4)
	for i := range x.Data {
		x.Data[i] = rng.Float64()*8 - 4
	}
	want := x.Clone()
	SigmoidInPlace(want)
	got := convertMat[float32](x)
	SigmoidInPlace(got)
	for i := range want.Data {
		if d := relDiff(got.Data[i], want.Data[i]); d > f32RelTol {
			t.Fatalf("sigmoid32[%d] = %v, want %v", i, got.Data[i], want.Data[i])
		}
	}
}

// testArenaReuse: Reserve/Alloc must reuse the arena (zero allocations at
// steady state) and growth must leave earlier matrices intact.
func testArenaReuse[T Float](t *testing.T) {
	var ws Arena[T]
	ws.Reserve(12)
	a := ws.Alloc(2, 3)
	for i := range a.Data {
		a.Data[i] = T(i)
	}
	// Force growth: earlier matrix keeps its (old) backing storage.
	b := ws.Alloc(10, 10)
	b.Data[0] = 7
	for i := range a.Data {
		if a.Data[i] != T(i) {
			t.Fatalf("growth corrupted earlier matrix at %d", i)
		}
	}

	ws2 := &Arena[T]{}
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

func TestWorkspaceReuse(t *testing.T)   { testArenaReuse[float64](t) }
func TestWorkspace32Reuse(t *testing.T) { testArenaReuse[float32](t) }

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
