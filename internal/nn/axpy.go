package nn

import "unsafe"

// The one vector primitive: y[i] += a·x[i]. Every forward layer is a run of
// axpys over the rows of a transposed weight matrix (Layer.Forward), and
// the fused backward accumulates dW and dx with it. Each element is one
// multiply and one add, each rounded — never a fused multiply-add — so the
// assembly (axpy_amd64.s, chosen at init when the CPU has AVX) and the
// pure-Go loop below return the same bits, NaN payloads included, and
// vectorising across the elements of y changes no element's result.

// axpyGo is the pure-Go axpy: the fallback when there is no assembly or no
// AVX, the -tags purego build, the float32 body and the reference the
// assembly is fuzzed against. x and y must have equal length.
//
//deepsketch:zeroalloc
func axpyGo[T Float](a T, x, y []T) {
	y = y[:len(x)]
	for i, v := range x {
		y[i] += a * v
	}
}

// axpyOf is axpy at element type T: the float64 primitive for float64
// (the slices are reinterpreted in place, not copied), axpyGo for float32.
//
//deepsketch:zeroalloc
func axpyOf[T Float](a T, x, y []T) {
	if unsafe.Sizeof(a) == 8 {
		axpy(*(*float64)(unsafe.Pointer(&a)), float64s(x), float64s(y))
		return
	}
	axpyGo(a, x, y)
}

// float64s views s, whose elements are 8 bytes wide, as a []float64.
//
//deepsketch:zeroalloc
func float64s[T Float](s []T) []float64 {
	return unsafe.Slice((*float64)(unsafe.Pointer(unsafe.SliceData(s))), len(s))
}
