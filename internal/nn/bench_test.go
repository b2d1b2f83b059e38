package nn

import (
	"testing"
	"unsafe"

	"deepsketch/internal/datagen"
)

// Layer sizes mirror the MSCN table module at paper-ish scale: input width
// dominated by the 1000-bit sample bitmap, hidden width 64.
const (
	benchIn    = 1008
	benchOut   = 64
	benchBatch = 256
)

func benchLinear(b *testing.B) (*Linear, Matrix) {
	b.Helper()
	rng := datagen.NewRand(1)
	l := NewLinear("bench", benchIn, benchOut, rng)
	x := NewMatrix(benchBatch, benchIn)
	for i := range x.Data {
		x.Data[i] = rng.Float64()
	}
	return l, x
}

// BenchmarkLinearForwardFused measures the serial register-tiled inference
// kernel at both element types. Zero allocs/op expected.
func BenchmarkLinearForwardFused(b *testing.B) {
	b.Run("f64", benchForwardFused[float64])
	b.Run("f32", benchForwardFused[float32])
}

func benchForwardFused[T Float](b *testing.B) {
	l, x := benchLinear(b)
	lt, xt := ConvertLayer[T](l), convertMat[T](x)
	y := NewMat[T](benchBatch, benchOut)
	b.SetBytes(int64(benchBatch*benchIn) * int64(unsafe.Sizeof(T(0))))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		lt.ForwardFused(xt, y, true)
	}
}

// BenchmarkSegmentAvgPool pools 64 sets of 2 valid elements on the packed
// representation (no padding rows).
func BenchmarkSegmentAvgPool(b *testing.B) {
	b.Run("f64", benchSegmentAvgPool[float64])
	b.Run("f32", benchSegmentAvgPool[float32])
}

func benchSegmentAvgPool[T Float](b *testing.B) {
	rng := datagen.NewRand(2)
	const sets, valid, width = 64, 2, 64
	x := NewMat[T](sets*valid, width)
	for i := range x.Data {
		x.Data[i] = T(rng.Float64())
	}
	offsets := make([]int, sets+1)
	for i := 1; i <= sets; i++ {
		offsets[i] = i * valid
	}
	out := NewMat[T](sets, width)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		SegmentAvgPool(x, offsets, out)
	}
}

// BenchmarkLinearBackward measures the packed trainer's backward kernel as
// its two call shapes: a set module's first layer skips the input gradient
// (dx nil), every other layer computes it.
func BenchmarkLinearBackward(b *testing.B) {
	l, x := benchLinear(b)
	dy := NewMatrix(benchBatch, benchOut)
	for i := range dy.Data {
		dy.Data[i] = 0.01
	}
	dx := NewMatrix(benchBatch, benchIn)
	dW, dB := make([]float64, benchIn*benchOut), make([]float64, benchOut)
	for _, c := range []struct {
		name string
		dx   *Matrix
	}{{"dW", nil}, {"dW+dx", &dx}} {
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				l.BackwardFused(x, dy, c.dx, dW, dB)
			}
		})
	}
}

func BenchmarkAdamStep(b *testing.B) {
	rng := datagen.NewRand(3)
	l := NewLinear("bench", benchIn, benchOut, rng)
	opt := NewAdam(1e-3, 5)
	params := l.Params()
	for _, p := range params {
		for i := range p.Grad {
			p.Grad[i] = rng.Float64() - 0.5
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		// Re-fill grads so the step has work to do.
		for _, p := range params {
			for j := range p.Grad {
				p.Grad[j] = 0.01
			}
		}
		opt.Step(params)
	}
}

func BenchmarkQErrorLoss(b *testing.B) {
	rng := datagen.NewRand(4)
	norm := LabelNorm{MinLog: 0, MaxLog: 15}
	preds := make([]float64, 1024)
	targets := make([]float64, 1024)
	for i := range preds {
		preds[i] = rng.Float64()
		targets[i] = rng.Float64()
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Loss(LossQError, norm, preds, targets, 1e4)
	}
}
