//go:build !amd64 || purego

package nn

// useAVX is false where there is no assembly axpy.
const useAVX = false

// axpy computes y[i] += a·x[i]; x and y must have equal length.
//
//deepsketch:zeroalloc
func axpy(a float64, x, y []float64) { axpyGo(a, x, y) }
