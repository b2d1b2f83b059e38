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

// benchBitmapRows fills a batch with table rows of the MSCN shape — a
// one-hot in the first 8 columns, then a bitmap whose bits are set
// independently with probability fill (1 gives the all-ones row of an
// unfiltered table, two runs; 0.3 a range predicate's few hundred short
// runs; 0.005 a template instance's handful of bits).
func benchBitmapRows(fill float64) Matrix {
	rng := datagen.NewRand(2)
	x := NewMatrix(benchBatch, benchIn)
	for r := 0; r < benchBatch; r++ {
		row := x.Row(r)
		row[r%8] = 1
		for k := 8; k < benchIn; k++ {
			if rng.Float64() < fill {
				row[k] = 1
			}
		}
	}
	return x
}

// BenchmarkLinearForwardIndexed measures the run-indexed first-layer kernel
// beside the dense one on the same rows, and the cost of building the index.
func BenchmarkLinearForwardIndexed(b *testing.B) {
	for _, c := range []struct {
		name string
		fill float64
	}{{"fill=1", 1}, {"fill=0.3", 0.3}, {"fill=0.005", 0.005}} {
		l, _ := benchLinear(b)
		x := benchBitmapRows(c.fill)
		y := NewMatrix(benchBatch, benchOut)
		var ix RunIndex
		Index(&ix, x)
		b.Run(c.name+"/dense", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				l.ForwardFused(x, y, true)
			}
		})
		b.Run(c.name+"/indexed", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				l.View().ForwardIndexed(x, &ix, y, 0, benchBatch, true)
			}
		})
		b.Run(c.name+"/index", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				Index(&ix, x)
			}
		})
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

// BenchmarkLinearBackwardIndexed is the first layer's dW over the run index
// beside the dense dW on the same rows.
func BenchmarkLinearBackwardIndexed(b *testing.B) {
	dy := NewMatrix(benchBatch, benchOut)
	for i := range dy.Data {
		if i%2 == 0 { // ReLU zeroes about half of a real upstream gradient
			dy.Data[i] = 0.01
		}
	}
	dW, dB := make([]float64, benchIn*benchOut), make([]float64, benchOut)
	for _, c := range []struct {
		name string
		fill float64
	}{{"fill=1", 1}, {"fill=0.3", 0.3}, {"fill=0.005", 0.005}} {
		l, _ := benchLinear(b)
		x := benchBitmapRows(c.fill)
		var ix RunIndex
		Index(&ix, x)
		b.Run(c.name+"/dense", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				l.BackwardFused(x, dy, nil, dW, dB)
			}
		})
		b.Run(c.name+"/indexed", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				l.BackwardIndexed(x, &ix, dy, dW, dB)
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
