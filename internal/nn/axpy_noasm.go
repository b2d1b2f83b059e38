//go:build !amd64 || purego

package nn

// useAVX is false where there is no assembly axpy.
const useAVX = false

// useTile is false where there is no assembly tile: every layer runs the
// axpy loop.
const useTile = false

// axpy computes y[i] += a·x[i]; x and y must have equal length.
//
//deepsketch:zeroalloc
func axpy(a float64, x, y []float64) { axpyGo(a, x, y) }

// tile4 and tile1 exist only in assembly; with useTile false nothing calls
// them.
//
//deepsketch:zeroalloc
func tile4(wt *float64, out int, cols []uint32, x, y *[4]*float64, b *float64, relu bool) {
	panic("nn: no tiled forward in this build")
}

//deepsketch:zeroalloc
func tile1(wt *float64, out int, runs []Run, y, b *float64, relu bool) {
	panic("nn: no tiled forward in this build")
}
