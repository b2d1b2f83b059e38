//go:build !purego

package nn

// useAVX selects the assembly axpy: the CPU has AVX and the OS saves the
// YMM registers.
var useAVX = hasAVX()

// hasAVX reports CPUID's AVX and OSXSAVE bits and XGETBV's XMM and YMM
// state bits.
func hasAVX() bool

// axpyAVX is axpy in AVX, four float64s per instruction: VBROADCASTSD,
// VMULPD, VADDPD, with a scalar tail. x and y must have equal length.
//
//go:noescape
//deepsketch:zeroalloc
func axpyAVX(a float64, x, y []float64)

// axpy computes y[i] += a·x[i]; x and y must have equal length.
//
//deepsketch:zeroalloc
func axpy(a float64, x, y []float64) {
	y = y[:len(x)]
	if useAVX {
		axpyAVX(a, x, y)
		return
	}
	axpyGo(a, x, y)
}
