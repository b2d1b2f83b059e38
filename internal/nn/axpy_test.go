package nn

import (
	"math"
	"math/rand"
	"testing"
)

// axpyVals are the elements FuzzAxpyMatchesGo draws from besides ordinary
// numbers: both zeros, both infinities, quiet and signalling NaNs with
// payloads and either sign, subnormals, and values whose product overflows.
var axpyVals = []uint64{
	0, 1 << 63, // ±0
	0x7ff0000000000000, 0xfff0000000000000, // ±Inf
	0x7ff8000000000000, 0x7ff8000000000123, 0xfff80000deadbeef, // quiet NaNs
	0x7ff0000000000001, 0x7ff4000000000abc, 0xfff0000000000777, // signalling NaNs
	1, 0x000fffffffffffff, 1<<63 | 0x0000000012345678, // subnormals
	0x7fefffffffffffff, 0xffefffffffffffff, // ±MaxFloat64
	0x3ff0000000000000, 0xbff0000000000000, // ±1
}

// FuzzAxpyMatchesGo: the dispatched axpy (the assembly, where the CPU has
// AVX) returns the pure-Go loop's bits, compared with Float64bits, at
// lengths 0–67 (every path through the 16-, 4- and 1-wide loops), at starts
// off any 32-byte boundary, over special values and ordinary ones — and
// writes nothing past y's end.
func FuzzAxpyMatchesGo(f *testing.F) {
	f.Add(uint8(0), uint8(0), uint8(0), math.Float64bits(1.5), int64(1))
	f.Add(uint8(67), uint8(1), uint8(3), uint64(0x7ff8000000000042), int64(2))
	f.Add(uint8(17), uint8(3), uint8(1), uint64(1<<63), int64(3))
	f.Add(uint8(4), uint8(2), uint8(2), uint64(0x7ff0000000000000), int64(4))
	f.Add(uint8(33), uint8(0), uint8(1), uint64(0x0000000000000003), int64(5))
	f.Add(uint8(63), uint8(2), uint8(0), math.Float64bits(-2.75e300), int64(6))
	f.Fuzz(func(t *testing.T, n, xoff, yoff uint8, abits uint64, seed int64) {
		if !useAVX {
			t.Skip("no assembly axpy in this build or on this CPU")
		}
		rng := rand.New(rand.NewSource(seed))
		val := func() float64 {
			if rng.Intn(3) == 0 {
				return math.Float64frombits(axpyVals[rng.Intn(len(axpyVals))])
			}
			return (rng.Float64()*2 - 1) * math.Pow(2, float64(rng.Intn(80)-40))
		}
		l, xo, yo := int(n%68), int(xoff%4), int(yoff%4)
		x := make([]float64, xo+l)[xo:]
		ybuf := make([]float64, yo+l+1)
		for i := range x {
			x[i] = val()
		}
		for i := range ybuf {
			ybuf[i] = val()
		}
		want := append([]float64(nil), ybuf...)
		a := math.Float64frombits(abits)
		axpy(a, x, ybuf[yo:yo+l])
		axpyGo(a, x, want[yo:yo+l])
		for i := range ybuf {
			if math.Float64bits(ybuf[i]) != math.Float64bits(want[i]) {
				t.Fatalf("len %d, x at +%d, y at +%d, a=%#x: y[%d] = %#x, pure Go %#x",
					l, xo, yo, abits, i-yo, math.Float64bits(ybuf[i]), math.Float64bits(want[i]))
			}
		}
	})
}
