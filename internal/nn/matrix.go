// Package nn is a small from-scratch neural network library — the stand-in
// for PyTorch in this reproduction. It provides exactly what the MSCN model
// needs: dense matrices, fully-connected layers with backpropagation, ReLU
// and sigmoid activations, masked average-pooling over sets, the Adam
// optimizer with global-norm gradient clipping, the paper's mean q-error
// training objective, and deterministic weight initialization. Training is
// float64 and CPU-only; hot loops are parallelized across row blocks.
//
// Two layer paths coexist. The tape path (Linear.Forward/ForwardInto,
// Backward/BackwardInto, MaskedAvgPool) allocates, fans out across cores
// and is what the padded reference and the gradient checks run. Training
// and serving both run the packed path: one forward kernel,
// Layer.Forward in infer.go, on weights stored transposed — every output
// summed over the input's non-zero columns, by register tiles of four rows
// in AVX-512 assembly (tile_amd64.s) or else a run of axpys per row, the
// axpy in amd64 assembly where the CPU has AVX (axpy.go) — plus
// SegmentAvgPool and the backward kernels (BackwardInput for a shard's
// rows, BackwardParams and BackwardIndexed for a range of output units).
// The packed path is serial, padding-free and allocation-free, its scratch
// bump-allocated from a Workspace; a
// Workspace serves one pass at a time, so concurrency comes from one
// Workspace per goroutine, never from sharing.
//
// The inference kernels are float64 only, like training. A Layer is a
// copy, taken once per weight version (Transpose); the f64 training state
// is the single source of truth, and every bitwise promise of the kernels
// holds for finite weights, which ReadParams enforces.
package nn

import (
	"fmt"
	"runtime"
	"sync"
)

// Matrix is a dense row-major float64 matrix.
type Matrix struct {
	Rows, Cols int
	Data       []float64
}

// NewMatrix allocates a zeroed Rows×Cols matrix.
func NewMatrix(rows, cols int) Matrix {
	return Matrix{Rows: rows, Cols: cols, Data: make([]float64, rows*cols)}
}

// At returns element (r, c).
func (m Matrix) At(r, c int) float64 { return m.Data[r*m.Cols+c] }

// Set assigns element (r, c).
func (m Matrix) Set(r, c int, v float64) { m.Data[r*m.Cols+c] = v }

// Row returns the r-th row as a slice aliasing the matrix storage.
//
//deepsketch:zeroalloc
func (m Matrix) Row(r int) []float64 { return m.Data[r*m.Cols : (r+1)*m.Cols] }

// Zero clears all elements in place.
func (m Matrix) Zero() {
	for i := range m.Data {
		m.Data[i] = 0
	}
}

// Reshape resizes m to rows×cols in place, reusing the backing slice when
// its capacity allows and reallocating otherwise. Contents are unspecified
// afterwards; callers must fully overwrite (or Zero) the matrix.
func (m *Matrix) Reshape(rows, cols int) {
	n := rows * cols
	if cap(m.Data) < n {
		m.Data = make([]float64, n)
	} else {
		m.Data = m.Data[:n]
	}
	m.Rows, m.Cols = rows, cols
}

// Clone returns a deep copy.
func (m Matrix) Clone() Matrix {
	c := NewMatrix(m.Rows, m.Cols)
	copy(c.Data, m.Data)
	return c
}

func (m Matrix) String() string {
	return fmt.Sprintf("Matrix(%dx%d)", m.Rows, m.Cols)
}

// parallelThreshold is the minimum amount of row-work before forward/backward
// loops fan out across goroutines.
const parallelThreshold = 64

// parallelRows splits [0, n) into contiguous blocks and runs f on each block,
// using up to GOMAXPROCS goroutines. Small n runs inline.
func parallelRows(n int, f func(lo, hi int)) {
	workers := runtime.GOMAXPROCS(0)
	if n < parallelThreshold || workers <= 1 {
		f(0, n)
		return
	}
	if workers > n {
		workers = n
	}
	var wg sync.WaitGroup
	chunk := (n + workers - 1) / workers
	for lo := 0; lo < n; lo += chunk {
		hi := lo + chunk
		if hi > n {
			hi = n
		}
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			f(lo, hi)
		}(lo, hi)
	}
	wg.Wait()
}
