//go:build !purego

package nn

// useTile selects the register-tiled forward (tile_amd64.s): the CPU has
// AVX-512F and the OS saves the opmask and ZMM registers.
var useTile = hasAVX512()

// hasAVX512 reports CPUID's OSXSAVE and AVX512F bits and XGETBV's XMM, YMM,
// opmask and ZMM state bits.
func hasAVX512() bool

// tile4 forwards four rows: y[r] = x[r]·Wᵀ + b over the columns cols lists,
// in 32-output tiles of 16 ZMM accumulators, fusing the ReLU when relu is
// set. wt is Wᵀ ([in][out]), out a positive multiple of 32, x and y the
// rows' first elements, b the bias; every listed column must be < in
// (Layer.Forward checks all of it).
//
//go:noescape
//deepsketch:zeroalloc
func tile4(wt *float64, out int, cols []uint32, x, y *[4]*float64, b *float64, relu bool)

// tile1 is tile4 for one row, in 64-output tiles of 8 ZMM accumulators.
//
//go:noescape
//deepsketch:zeroalloc
func tile1(wt *float64, out int, cols []uint32, x, y, b *float64, relu bool)
