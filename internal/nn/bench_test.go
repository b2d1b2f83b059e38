package nn

import (
	"fmt"
	"testing"

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

// BenchmarkLinearForward measures the forward kernel on a table module's
// first layer at 256 units, run-indexed, at 5, 50 and 100 % bitmap fill
// ("index" is the cost of building the run index), and on the dense layers
// that follow — a set module's second layer (256→256) and the output
// network's first (768→256) — at batches of 1, 4 and 64 rows. A dense
// input is either ReLU rows from a real forward ("relu": the first layer's
// outputs on bitmap rows, whose zeros line up across rows) or rows with
// independent random zeros at the same ~50 % ("random": the four-row tile's
// worst case, the union of four rows' columns nearly full). Each runs on
// the kernel Forward selects and, where that is the tile, on the axpy loop
// beside it. Zero allocs/op expected.
func BenchmarkLinearForward(b *testing.B) {
	const units = 256
	l := NewLinear("bench", benchIn, units, datagen.NewRand(1))
	for _, fill := range []float64{0.05, 0.5, 1} {
		x := benchBitmapRows(fill)
		var ix RunIndex
		Index(&ix, x)
		name := fmt.Sprintf("fill=%g", fill)
		b.Run(name+"/forward", func(b *testing.B) { benchForward(b, l, x, &ix) })
		b.Run(name+"/index", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				Index(&ix, x)
			}
		})
	}
	for _, in := range []int{256, 768} {
		dense := NewLinear("bench", in, units, datagen.NewRand(3))
		for _, rows := range []string{"relu", "random"} {
			x := benchDenseRows(rows, in)
			for _, batch := range []int{1, 4, 64} {
				xb := Matrix{Rows: batch, Cols: in, Data: x.Data[:batch*in]}
				b.Run(fmt.Sprintf("dense=%d/%s/batch=%d", in, rows, batch), func(b *testing.B) { benchForward(b, dense, xb, nil) })
			}
		}
	}
}

// benchDenseRows returns benchBatch dense input rows of width in: "relu"
// forwards bitmap rows at 50 % fill through a first layer of in units with
// the ReLU; "random" zeroes each element independently with that
// forward's zero share and draws the rest uniformly from (0, 1).
func benchDenseRows(kind string, in int) Matrix {
	lt := NewLayer(NewLinear("bench.first", benchIn, in, datagen.NewRand(2)))
	bits := benchBitmapRows(0.5)
	var ix RunIndex
	Index(&ix, bits)
	x := NewMatrix(benchBatch, in)
	var ws Workspace
	lt.Forward(bits, &ix, x, nil, true, &ws)
	if kind == "relu" {
		return x
	}
	zeros := 0
	for _, v := range x.Data {
		if v == 0 {
			zeros++
		}
	}
	share := float64(zeros) / float64(len(x.Data))
	rng := datagen.NewRand(4)
	for i := range x.Data {
		x.Data[i] = 0
		if rng.Float64() >= share {
			x.Data[i] = 1 - rng.Float64()
		}
	}
	return x
}

func benchForward(b *testing.B, l *Linear, x Matrix, ix *RunIndex) {
	lt := NewLayer(l)
	y := NewMatrix(x.Rows, l.Out)
	var ws Workspace
	kernels := []string{"axpy"}
	if useTile && l.Out%32 == 0 {
		kernels = []string{"tile", "axpy"}
	}
	for _, kernel := range kernels {
		b.Run(kernel, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				lt.forward(x, ix, y, nil, true, &ws, kernel == "tile")
			}
		})
	}
}

// BenchmarkAxpy measures the primitive at a hidden layer's width (256) and
// a table row's (1006): the dispatched axpy (assembly where the CPU has
// AVX) beside the pure-Go loop.
func BenchmarkAxpy(b *testing.B) {
	for _, n := range []int{256, 1006} {
		x, y := make([]float64, n), make([]float64, n)
		for i := range x {
			x[i] = float64(i%7) - 3
		}
		for _, c := range []struct {
			name string
			fn   func(float64, []float64, []float64)
		}{{"axpy", axpy}, {"go", axpyGo}} {
			b.Run(fmt.Sprintf("n=%d/%s", n, c.name), func(b *testing.B) {
				b.SetBytes(int64(16 * n))
				for i := 0; i < b.N; i++ {
					c.fn(1e-9, x, y)
				}
			})
		}
	}
}

// BenchmarkSegmentAvgPool pools 64 sets of 2 valid elements on the packed
// representation (no padding rows).
func BenchmarkSegmentAvgPool(b *testing.B) {
	rng := datagen.NewRand(2)
	const sets, valid, width = 64, 2, 64
	x := NewMatrix(sets*valid, width)
	for i := range x.Data {
		x.Data[i] = rng.Float64()
	}
	offsets := make([]int, sets+1)
	for i := 1; i <= sets; i++ {
		offsets[i] = i * valid
	}
	out := NewMatrix(sets, width)
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
				l.BackwardIndexed(x, &ix, dy, 0, benchOut, dW, dB)
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
