package nn

import (
	"math"
	"math/rand"
	"testing"
)

// TestBackwardFusedMatchesBackwardInto: the serial packed backward kernels
// must agree with the padded training backward (same math, different
// parallelization) on random layers within float tolerance, and the
// parameter half must not depend on how the outputs are split.
func TestBackwardFusedMatchesBackwardInto(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for _, shape := range []struct{ rows, in, out int }{
		{1, 3, 2}, {5, 7, 4}, {17, 33, 9}, {70, 16, 16},
	} {
		l := NewLinear("l", shape.in, shape.out, rng)
		x := NewMatrix(shape.rows, shape.in)
		dy := NewMatrix(shape.rows, shape.out)
		for i := range x.Data {
			x.Data[i] = rng.NormFloat64()
		}
		for i := range dy.Data {
			if rng.Float64() < 0.8 { // leave some exact zeros (masked rows)
				dy.Data[i] = rng.NormFloat64()
			}
		}

		l.W.ZeroGrad()
		l.B.ZeroGrad()
		wantDx := NewMatrix(shape.rows, shape.in)
		l.BackwardInto(x, dy, &wantDx)
		wantDW := append([]float64(nil), l.W.Grad...)
		wantDB := append([]float64(nil), l.B.Grad...)

		dW := make([]float64, shape.in*shape.out)
		dB := make([]float64, shape.out)
		gotDx := NewMatrix(shape.rows, shape.in)
		l.BackwardFused(x, dy, &gotDx, dW, dB)

		const tol = 1e-12
		for i := range wantDW {
			if math.Abs(dW[i]-wantDW[i]) > tol {
				t.Fatalf("shape %+v: dW[%d] = %v, want %v", shape, i, dW[i], wantDW[i])
			}
		}
		for i := range wantDB {
			if math.Abs(dB[i]-wantDB[i]) > tol {
				t.Fatalf("shape %+v: dB[%d] = %v, want %v", shape, i, dB[i], wantDB[i])
			}
		}
		for i := range wantDx.Data {
			if math.Abs(gotDx.Data[i]-wantDx.Data[i]) > tol {
				t.Fatalf("shape %+v: dx[%d] = %v, want %v", shape, i, gotDx.Data[i], wantDx.Data[i])
			}
		}

		// Split into two output ranges, taken in either order, the
		// parameter half gives the same bits.
		splitW := make([]float64, shape.in*shape.out)
		splitB := make([]float64, shape.out)
		k := shape.out / 2
		l.BackwardParams(x, dy, k, shape.out, splitW, splitB)
		l.BackwardParams(x, dy, 0, k, splitW, splitB)
		for i := range dW {
			if math.Float64bits(splitW[i]) != math.Float64bits(dW[i]) {
				t.Fatalf("shape %+v: split dW[%d] = %v, whole %v", shape, i, splitW[i], dW[i])
			}
		}
		for i := range dB {
			if math.Float64bits(splitB[i]) != math.Float64bits(dB[i]) {
				t.Fatalf("shape %+v: split dB[%d] = %v, whole %v", shape, i, splitB[i], dB[i])
			}
		}

		// BackwardFused accumulates: a second call must double the gradients.
		l.BackwardFused(x, dy, nil, dW, dB)
		for i := range wantDW {
			if math.Abs(dW[i]-2*wantDW[i]) > 10*tol {
				t.Fatalf("shape %+v: accumulated dW[%d] = %v, want %v", shape, i, dW[i], 2*wantDW[i])
			}
		}
	}
}

// TestSegmentAvgPoolBackwardMatchesMasked: the segment-scaled scatter must
// agree with the masked backward on equivalent padded layouts, including
// empty segments.
func TestSegmentAvgPoolBackwardMatchesMasked(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	const h = 6
	segs := []int{3, 0, 1, 5, 0, 2} // element counts, incl. empty segments
	b := len(segs)
	maxS := 0
	total := 0
	offsets := make([]int, b+1)
	for i, n := range segs {
		offsets[i] = total
		total += n
		if n > maxS {
			maxS = n
		}
	}
	offsets[b] = total

	dOut := NewMatrix(b, h)
	for i := range dOut.Data {
		dOut.Data[i] = rng.NormFloat64()
	}

	// Packed scatter.
	dx := NewMatrix(total, h)
	for i := range dx.Data {
		dx.Data[i] = 99 // dirty: must be fully overwritten for non-empty rows
	}
	SegmentAvgPoolBackward(dOut, offsets, dx)

	// Padded reference: same segments laid out with masks.
	mask := make([]float64, b*maxS)
	for i, n := range segs {
		for s := 0; s < n; s++ {
			mask[i*maxS+s] = 1
		}
	}
	want := MaskedAvgPoolBackward(dOut, mask, b, maxS)

	for i, n := range segs {
		for s := 0; s < n; s++ {
			packed := dx.Row(offsets[i] + s)
			padded := want.Row(i*maxS + s)
			for c := 0; c < h; c++ {
				if math.Abs(packed[c]-padded[c]) > 1e-15 {
					t.Fatalf("segment %d element %d col %d: packed %v, padded %v",
						i, s, c, packed[c], padded[c])
				}
			}
		}
	}
}

// TestLossSumIntoMatchesLoss: sharded loss (per-shard sums + full-batch invN
// gradient scaling) must reproduce Loss exactly when combined in order.
func TestLossSumIntoMatchesLoss(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	norm := LabelNorm{MinLog: 0, MaxLog: 10}
	for _, kind := range []LossKind{LossQError, LossL1Log} {
		n := 23
		preds := make([]float64, n)
		targets := make([]float64, n)
		for i := range preds {
			preds[i] = rng.Float64()
			targets[i] = rng.Float64()
		}
		wantLoss, wantGrad := Loss(kind, norm, preds, targets, 100)

		grad := make([]float64, n)
		invN := 1.0 / float64(n)
		var sum float64
		for _, bounds := range [][2]int{{0, 7}, {7, 16}, {16, 23}} {
			lo, hi := bounds[0], bounds[1]
			sum += LossSumInto(kind, norm, preds[lo:hi], targets[lo:hi], grad[lo:hi], 100, invN)
		}
		if got := sum * invN; math.Abs(got-wantLoss) > 1e-12 {
			t.Fatalf("kind %v: sharded loss %v, want %v", kind, got, wantLoss)
		}
		for i := range grad {
			if grad[i] != wantGrad[i] {
				t.Fatalf("kind %v: grad[%d] = %v, want %v", kind, i, grad[i], wantGrad[i])
			}
		}
	}
}
