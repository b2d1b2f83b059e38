package nn

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"
)

// The tiled forward promises the axpy loop's bits, not its values to a
// tolerance: every check here compares Float64bits, over the whole of y, so
// a row the row list leaves out must keep its sentinel on both kernels.

// span is the row list lo, lo+1, …, hi−1.
func span(lo, hi int) []int {
	rows := make([]int, 0, hi-lo)
	for r := lo; r < hi; r++ {
		rows = append(rows, r)
	}
	return rows
}

// tileCase is one input of the tile-against-axpy check: a rows×in matrix
// into out units, forwarded through the row list list, with or without a
// run index. zeroRow and zeroBlock are the chances that a row, or a block of
// four rows, is all zeros; fill the chance that any other element is
// non-zero.
type tileCase struct {
	rows, in, out int
	list          []int
	indexed       bool
	zeroRow       float64
	zeroBlock     float64
	fill          float64
	seed          int64
}

func (c tileCase) String() string {
	list := "all"
	if c.list != nil {
		list = fmt.Sprint(c.list)
	}
	return fmt.Sprintf("%d×%d→%d rows %s indexed=%v seed %d", c.rows, c.in, c.out, list, c.indexed, c.seed)
}

// tileVal draws an input element: mostly ordinary values of either sign and
// many magnitudes, else one of axpyVals (±0, ±Inf, NaN payloads,
// subnormals, ±MaxFloat64, ±1).
func tileVal(rng *rand.Rand) float64 {
	if rng.Intn(6) == 0 {
		return math.Float64frombits(axpyVals[rng.Intn(len(axpyVals))])
	}
	return (rng.Float64()*2 - 1) * math.Pow(2, float64(rng.Intn(40)-20))
}

// finiteVal draws a weight: ordinary values, with ±0 and subnormals among
// them, never Inf or NaN (the contract's finite weights).
func finiteVal(rng *rand.Rand) float64 {
	switch rng.Intn(20) {
	case 0:
		return math.Copysign(0, float64(rng.Intn(2)*2-1))
	case 1:
		return math.Float64frombits(uint64(rng.Int63n(1 << 52)))
	}
	return rng.NormFloat64() * 0.2
}

// checkTileMatchesAxpy forwards c's input through Forward and through the
// axpy loop (forward with tiled false) into equal dirty outputs, with and
// without the ReLU, and fails on the first differing bit anywhere in y. An
// indexed case's runs also cover some zero columns (wasted terms, which
// both kernels must add alike).
func checkTileMatchesAxpy(t *testing.T, c tileCase) {
	t.Helper()
	rng := rand.New(rand.NewSource(c.seed))
	l := Layer{In: c.in, Out: c.out, WT: make([]float64, c.in*c.out), B: make([]float64, c.out)}
	for i := range l.WT {
		l.WT[i] = finiteVal(rng)
	}
	for i := range l.B {
		l.B[i] = finiteVal(rng)
	}
	x, cover := NewMatrix(c.rows, c.in), NewMatrix(c.rows, c.in)
	for r := 0; r < c.rows; r++ {
		if r%4 == 0 && rng.Float64() < c.zeroBlock {
			r += 3
			continue
		}
		if rng.Float64() < c.zeroRow {
			continue
		}
		for k := range x.Row(r) {
			if rng.Float64() < c.fill {
				x.Row(r)[k] = tileVal(rng)
			}
			if x.Row(r)[k] != 0 || rng.Intn(8) == 0 {
				cover.Row(r)[k] = 1
			}
		}
	}
	var ix *RunIndex
	if c.indexed {
		ix = new(RunIndex)
		Index(ix, cover)
	}
	sentinel := NewMatrix(c.rows, c.out)
	for i := range sentinel.Data {
		sentinel.Data[i] = math.Float64frombits(rng.Uint64())
	}
	var ws Workspace
	for _, relu := range []bool{false, true} {
		got, want := NewMatrix(c.rows, c.out), NewMatrix(c.rows, c.out)
		copy(got.Data, sentinel.Data)
		copy(want.Data, sentinel.Data)
		l.Forward(x, ix, got, c.list, relu, &ws)
		l.forward(x, ix, want, c.list, relu, &ws, false)
		if i := sameBits(got.Data, want.Data); i >= 0 {
			t.Fatalf("%v relu=%v: y[%d][%d] = %#x, axpy loop %#x", c, relu, i/c.out, i%c.out,
				math.Float64bits(got.Data[i]), math.Float64bits(want.Data[i]))
		}
		listed := make([]bool, c.rows)
		for _, r := range c.list {
			listed[r] = true
		}
		for r, in := range listed {
			if !in && c.list != nil && sameBits(got.Row(r), sentinel.Row(r)) >= 0 {
				t.Fatalf("%v relu=%v: row %d is not listed but was written", c, relu, r)
			}
		}
	}
}

// tileOuts are the widths the table test runs: every multiple of 32 up to
// 320 (the tiles; an odd multiple ends tile1 in a 32-output tile) and
// widths the axpy loop keeps.
var tileOuts = []int{32, 64, 96, 128, 160, 192, 224, 256, 288, 320, 1, 8, 31, 33, 48, 100, 255}

// TestForwardTileMatchesAxpy: at every width, 1–9 rows (every remainder of
// a four-row block), row lists from odd starts and with gaps, dense and
// indexed, with all-zero rows and blocks and the special values, Forward
// equals the axpy loop in every bit and writes no row it is not given.
func TestForwardTileMatchesAxpy(t *testing.T) {
	if !useTile {
		t.Skip("no AVX-512 tile in this build or on this CPU")
	}
	seed := int64(0)
	for _, out := range tileOuts {
		for rows := 1; rows <= 9; rows++ {
			for _, indexed := range []bool{false, true} {
				seed++
				lists := [][]int{nil, span(rows/2|1, rows)}
				if rows > 2 {
					lists = append(lists, []int{0, rows - 1}, span(1, rows))
				}
				if rows == 1 {
					lists[1] = span(0, 1)
				}
				for _, list := range lists {
					checkTileMatchesAxpy(t, tileCase{rows: rows, in: 37 + rows, out: out, list: list,
						indexed: indexed, zeroRow: 0.2, zeroBlock: 0.2, fill: 0.5, seed: seed})
				}
			}
		}
	}
	// The serving shapes: a 768→256 output layer and a 1,014-wide table
	// module first layer, at fills from nearly empty to full.
	for i, fill := range []float64{0.01, 0.5, 1} {
		checkTileMatchesAxpy(t, tileCase{rows: 9, in: 768, out: 256, fill: fill, zeroRow: 0.1, seed: int64(900 + i)})
		checkTileMatchesAxpy(t, tileCase{rows: 6, in: 1014, out: 256, indexed: true, fill: fill, seed: int64(950 + i)})
	}
}

// FuzzForwardTileMatchesAxpy lets the fuzzer pick the shape, the row list
// and the zero pattern of TestForwardTileMatchesAxpy's check. An outSel
// below 200 picks a multiple of 32 (the tiles), others a width the axpy
// loop keeps.
func FuzzForwardTileMatchesAxpy(f *testing.F) {
	f.Add(uint8(4), uint16(40), uint8(7), uint8(0), uint8(9), uint8(0), int64(1))
	f.Add(uint8(9), uint16(300), uint8(0), uint8(3), uint8(9), uint8(1), int64(2))
	f.Add(uint8(5), uint16(1014), uint8(7), uint8(1), uint8(4), uint8(3), int64(3))
	f.Add(uint8(7), uint16(3), uint8(210), uint8(2), uint8(7), uint8(2), int64(4))
	f.Fuzz(func(t *testing.T, rowsN uint8, inN uint16, outSel, lo, hi, flags uint8, seed int64) {
		if !useTile {
			t.Skip("no AVX-512 tile in this build or on this CPU")
		}
		out := 32 * (1 + int(outSel%10))
		if outSel >= 200 {
			out = 1 + int(outSel%70)
		}
		rows := 1 + int(rowsN%9)
		l := int(lo) % rows
		h := l + 1 + int(hi)%(rows-l)
		list := span(l, h)
		if flags&2 != 0 && len(list) > 2 { // a gap, as the engine's row lists have
			list = append(list[:1], list[2:]...)
		}
		checkTileMatchesAxpy(t, tileCase{rows: rows, in: 1 + int(inN%1100), out: out, list: list,
			indexed: flags&1 != 0, zeroRow: 0.25, zeroBlock: 0.25, fill: float64(flags>>2%8+1) / 8, seed: seed})
	})
}

// TestForwardBoundsChecked: before the kernel reads raw pointers, Forward
// refuses a run that reaches past the row and weights of the wrong size,
// on the tiled path and on the axpy loop alike.
func TestForwardBoundsChecked(t *testing.T) {
	const in, out = 5, 32
	l := Layer{In: in, Out: out, WT: make([]float64, in*out), B: make([]float64, out)}
	x, y := NewMatrix(1, in), NewMatrix(1, out)
	past := &RunIndex{off: []int{0, 1}, runs: []Run{{2, in + 1}}}
	for _, tiled := range []bool{false, true} {
		if tiled && !useTile {
			continue
		}
		for _, c := range []struct {
			name, want string
			l          Layer
			ix         *RunIndex
		}{
			{"run past the row", "run past the row", l, past},
			{"short WT", "weight size mismatch", Layer{In: in, Out: out, WT: l.WT[:in*out-1], B: l.B}, nil},
			{"short B", "weight size mismatch", Layer{In: in, Out: out, WT: l.WT, B: l.B[:out-1]}, nil},
		} {
			func() {
				defer func() {
					msg, _ := recover().(string)
					if !strings.Contains(msg, c.want) {
						t.Fatalf("tiled=%v %s: panic %q, want one containing %q", tiled, c.name, msg, c.want)
					}
				}()
				var ws Workspace
				c.l.forward(x, c.ix, y, nil, true, &ws, tiled)
			}()
		}
	}
}

// TestForwardKernelSelected logs which kernel this build and CPU serve a
// 256-unit layer with, so a green run says whether the tiles ran, and
// checks the probes agree: a CPU whose OS saves ZMM state saves YMM state.
func TestForwardKernelSelected(t *testing.T) {
	switch {
	case useTile:
		t.Log("forward kernel: AVX-512 tile (4 rows × 32 outputs, 1 row × 64 outputs)")
	case useAVX:
		t.Log("forward kernel: AVX axpy per row")
	default:
		t.Log("forward kernel: pure-Go axpy per row")
	}
	if useTile && !useAVX {
		t.Fatal("the AVX-512 probe passed and the AVX probe did not")
	}
}
