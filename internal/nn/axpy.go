package nn

// The one vector primitive: y[i] += a·x[i]. Every forward layer is a run of
// axpys over the rows of a transposed weight matrix (Layer.Forward), and
// the fused backward accumulates dW and dx with it. Each element is one
// multiply and one add, each rounded — never a fused multiply-add — so the
// assembly (axpy_amd64.s, chosen at init when the CPU has AVX) and the
// pure-Go loop below return the same bits, NaN payloads included, and
// vectorising across the elements of y changes no element's result.

// axpyGo is the pure-Go axpy: the fallback when there is no assembly or no
// AVX, the -tags purego build and the reference the assembly is fuzzed
// against. x and y must have equal length.
//
//deepsketch:zeroalloc
func axpyGo(a float64, x, y []float64) {
	y = y[:len(x)]
	for i, v := range x {
		y[i] += a * v
	}
}
