// Package fixture seeds zeroalloc violations: an annotated kernel that
// allocates in every way the analyzer must catch, next to compliant
// kernels it must stay quiet on.
package fixture

import "unsafe"

type scratch struct {
	buf []float64
	idx map[string]int
}

type sink interface{ accept(v float64) }

//deepsketch:zeroalloc
func rowOK(b []float64, i int) []float64 { return b[i*8 : (i+1)*8] }

//deepsketch:zeroalloc
func dotOK(x, y []float64) float64 {
	if len(x) != len(y) {
		panic("fixture: length mismatch") // failure path may allocate
	}
	var acc float64
	for i, v := range x {
		acc += v * y[i]
	}
	return acc
}

//deepsketch:zeroalloc
func (s *scratch) reserveOK(n int) {
	if cap(s.buf) < n {
		//deepsketch:ignore zeroalloc amortized arena growth, mirrors nn.Workspace
		s.buf = make([]float64, n)
	}
	s.buf = s.buf[:n]
}

func helper(x []float64) float64 { return x[0] }

//deepsketch:zeroalloc
func kernelBad(s *scratch, x []float64, name string) interface{} {
	out := make([]float64, len(x)) // want "make allocates in a zeroalloc function"
	out = append(out, 1)           // want "append may grow its backing array"
	p := new(scratch)              // want "new allocates in a zeroalloc function"
	_ = p
	fn := func() {}        // want "function literal allocates \(closure\)"
	fn()                   // want "dynamic call .* cannot be verified"
	tmp := []float64{1, 2} // want "composite literal allocates"
	_ = tmp
	q := &scratch{} // want "&composite literal escapes to the heap"
	_ = q
	lbl := name + "!" // want "string concatenation allocates"
	_ = lbl
	bs := []byte(name) // want "string to slice conversion allocates"
	_ = bs
	s.idx[name] = 1 // want "map write may allocate"
	_ = helper(x)   // want "call to .*helper, which is neither annotated"
	return out      // want "return boxes .* in a zeroalloc function"
}

//deepsketch:zeroalloc
func kernelIface(s sink, v float64) {
	s.accept(v) // want "interface method call accept cannot be verified"
}

//deepsketch:zeroalloc
func kernelBox(x []float64) {
	var box interface{}
	box = x // want "assignment boxes"
	_ = box
}

// Generic kernels: the analyzer must follow inferred and explicit
// instantiations and methods on generic receivers to their annotations,
// and must not mistake a type parameter for an interface.

type float interface{ ~float32 | ~float64 }

type vec[T float] struct{ data []T }

//deepsketch:zeroalloc
func (v vec[T]) rowOK(i int) []T { return v.data[i*8 : (i+1)*8] }

//deepsketch:zeroalloc
func scaleOK[T float](x []T, n int) {
	inv := 1 / T(n) // a conversion to a type parameter boxes nothing
	for i := range x {
		x[i] *= inv
	}
}

func helperGeneric[T float](x []T) T { return x[0] }

//deepsketch:zeroalloc
func genericCallersOK(v vec[float32], x []float64) {
	scaleOK(x, 2)                   // inferred type argument
	scaleOK[float32](v.rowOK(0), 2) // explicit type argument
}

//deepsketch:zeroalloc
func genericBad[T float](x []T) []T {
	out := make([]T, len(x)) // want "make allocates in a zeroalloc function"
	var box interface{}
	box = x[0] // want "assignment boxes"
	_ = box
	_ = helperGeneric[T](x) // want "call to .*helperGeneric, which is neither annotated"
	return out
}

// Package unsafe's builtins are package-qualified calls; none allocates, so
// a kernel that reinterprets a slice through them — and calls an annotated
// bodiless (assembly) function — is clean.

//deepsketch:zeroalloc
func asmKernel(a float64, x, y []float64)

//deepsketch:zeroalloc
func unsafeOK[T float](a T, x, y []T) {
	if unsafe.Sizeof(a) == 8 && unsafe.Alignof(a) == 8 {
		xs := unsafe.Slice((*float64)(unsafe.Pointer(unsafe.SliceData(x))), len(x))
		ys := unsafe.Slice((*float64)(unsafe.Add(unsafe.Pointer(unsafe.SliceData(y)), 0)), len(y))
		asmKernel(*(*float64)(unsafe.Pointer(&a)), xs, ys)
	}
}
