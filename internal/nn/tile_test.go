package nn

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"
)

// The tiled forward and the width-1 dot promise the axpy loop's bits, not
// its values to a tolerance: every check here compares Float64bits, over
// the whole of y, so a row the row list leaves out must keep its sentinel
// on every kernel. The reference is forwardAxpy called row by row
// (axpyReference), which no kernel selection reaches.

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
// non-zero. With fourthOnly only the fourth row of each block of four has
// any value; with vals set, values are drawn from those bits alone.
type tileCase struct {
	rows, in, out int
	list          []int
	indexed       bool
	zeroRow       float64
	zeroBlock     float64
	fill          float64
	fourthOnly    bool
	vals          []uint64
	seed          int64
}

func (c tileCase) String() string {
	list := "all"
	if c.list != nil {
		list = fmt.Sprint(c.list)
	}
	return fmt.Sprintf("%d×%d→%d rows %s indexed=%v fourthOnly=%v vals=%#x seed %d", c.rows, c.in, c.out, list, c.indexed, c.fourthOnly, c.vals, c.seed)
}

// val draws an input element: tileVal, or one of c.vals when it is set.
func (c tileCase) val(rng *rand.Rand) float64 {
	if c.vals != nil {
		return math.Float64frombits(c.vals[rng.Intn(len(c.vals))])
	}
	return tileVal(rng)
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

// axpyReference computes the rows that rows lists (every row when nil)
// with forwardAxpy alone, over ix's runs or over denseRuns of x's rows.
func axpyReference(l Layer, x Matrix, ix *RunIndex, y Matrix, rows []int, relu bool, ws *Workspace) {
	n := y.Rows
	if rows != nil {
		n = len(rows)
	}
	for i := 0; i < n; i++ {
		r := rowAt(rows, i)
		if ix != nil {
			l.forwardAxpy(ix.Row(r), y.Row(r), relu)
		} else {
			l.forwardAxpy(ws.denseRuns(x.Row(r)), y.Row(r), relu)
		}
	}
}

// checkTileMatchesAxpy forwards c's input through Forward (ForwardRuns
// when indexed), through forward with tiled false and through
// axpyReference into equal dirty outputs, with and without the ReLU, and
// fails on the first bit where either kernel differs from the reference
// anywhere in y. An indexed case's rows are valued runs drawn directly
// (runsRow): runs of one repeated value, adjacent runs of different
// values, the special values.
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
	x := NewMatrix(c.rows, c.in)
	var ix *RunIndex
	if c.indexed {
		ix = new(RunIndex)
		ix.Reset(c.in)
		x = Matrix{}
	}
	zeroUntil := 0
	for r := 0; r < c.rows; r++ {
		if r%4 == 0 && rng.Float64() < c.zeroBlock {
			zeroUntil = r + 4
		}
		blank := r < zeroUntil || rng.Float64() < c.zeroRow || c.fourthOnly && r%4 != 3
		switch {
		case ix != nil && blank:
			ix.EndRow()
		case ix != nil:
			runsRow(rng, ix, c.fill, c.val)
		case !blank:
			for k := range x.Row(r) {
				if rng.Float64() < c.fill {
					x.Row(r)[k] = c.val(rng)
				}
			}
		}
	}
	sentinel := NewMatrix(c.rows, c.out)
	for i := range sentinel.Data {
		sentinel.Data[i] = math.Float64frombits(rng.Uint64())
	}
	var ws Workspace
	for _, relu := range []bool{false, true} {
		got, untiled, want := NewMatrix(c.rows, c.out), NewMatrix(c.rows, c.out), NewMatrix(c.rows, c.out)
		copy(got.Data, sentinel.Data)
		copy(untiled.Data, sentinel.Data)
		copy(want.Data, sentinel.Data)
		forwardEither(l, x, ix, got, c.list, relu, &ws)
		l.forward(x, ix, untiled, c.list, relu, &ws, false)
		axpyReference(l, x, ix, want, c.list, relu, &ws)
		for _, k := range []struct {
			name string
			y    Matrix
		}{{"Forward", got}, {"forward untiled", untiled}} {
			if i := sameBits(k.y.Data, want.Data); i >= 0 {
				t.Fatalf("%v relu=%v: %s y[%d][%d] = %#x, axpy loop %#x", c, relu, k.name, i/c.out, i%c.out,
					math.Float64bits(k.y.Data[i]), math.Float64bits(want.Data[i]))
			}
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

// runsRow appends to ix one row of valued runs over its width: runs of 1
// to 8 columns, each holding one value drawn by val (a long run of a
// non-unit value is common), separated by gaps of 0 to 3 columns — a gap of
// 0 puts two runs of different values side by side — with fill the chance
// that a run is kept rather than left a gap.
func runsRow(rng *rand.Rand, ix *RunIndex, fill float64, val func(*rand.Rand) float64) {
	for k := rng.Intn(4); k < ix.Cols(); {
		n := min(1+rng.Intn(8), ix.Cols()-k)
		if rng.Float64() < fill {
			ix.Add(k, k+n, val(rng))
		}
		k += n + rng.Intn(4)
	}
	ix.EndRow()
}

// tileOuts are the widths the table test runs: every multiple of 32 up to
// 320 (the tiles; an odd multiple ends tile1 in a 32-output tile), 1 (the
// dot of a dense row) and widths the axpy loop keeps.
var tileOuts = []int{32, 64, 96, 128, 160, 192, 224, 256, 288, 320, 1, 8, 31, 33, 48, 100, 255}

// zeroVals are ±0, and nanVals −0 among NaNs of either sign and kind: the
// values the union of a tile's columns must skip, or must not.
var (
	zeroVals = []uint64{0, 1 << 63}
	nanVals  = []uint64{1 << 63, 0x7ff8000000000123, 0xfff80000deadbeef, 0x7ff0000000000001}
)

// TestForwardTileMatchesAxpy: at every width, 1–9 rows (every remainder of
// a four-row block), row lists from odd starts and with gaps, dense and
// indexed, with all-zero rows and blocks and the special values, Forward
// equals the axpy loop in every bit and writes no row it is not given; so
// do blocks whose union comes from their fourth row alone or whose values
// are only ±0, or −0 and NaNs.
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
	for i, c := range []tileCase{
		{rows: 8, in: 70, out: 64, fourthOnly: true, fill: 0.3},
		{rows: 9, in: 768, out: 256, fourthOnly: true, fill: 0.05},
		{rows: 8, in: 70, out: 64, vals: zeroVals, fill: 0.5},
		{rows: 8, in: 70, out: 64, vals: nanVals, fill: 0.1},
		{rows: 8, in: 70, out: 64, fourthOnly: true, vals: nanVals, fill: 0.1},
		{rows: 7, in: 70, out: 1, fourthOnly: true, vals: nanVals, fill: 0.1},
	} {
		c.seed = int64(970 + i)
		checkTileMatchesAxpy(t, c)
	}
}

// FuzzForwardTileMatchesAxpy lets the fuzzer pick the shape, the row list
// and the zero pattern of TestForwardTileMatchesAxpy's check. An outSel
// below 200 picks a multiple of 32 (the tiles), others a width the axpy
// loop keeps or 1. Flag bit 5 leaves values in only the fourth row of
// each block, bit 6 draws them from −0 and NaNs.
func FuzzForwardTileMatchesAxpy(f *testing.F) {
	f.Add(uint8(4), uint16(40), uint8(7), uint8(0), uint8(9), uint8(0), int64(1))
	f.Add(uint8(9), uint16(300), uint8(0), uint8(3), uint8(9), uint8(1), int64(2))
	f.Add(uint8(5), uint16(1014), uint8(7), uint8(1), uint8(4), uint8(3), int64(3))
	f.Add(uint8(7), uint16(3), uint8(210), uint8(2), uint8(7), uint8(2), int64(4))
	f.Add(uint8(8), uint16(90), uint8(1), uint8(0), uint8(9), uint8(1<<5|3<<2), int64(5))
	f.Add(uint8(8), uint16(90), uint8(3), uint8(0), uint8(9), uint8(1<<6|7<<2), int64(6))
	f.Add(uint8(8), uint16(768), uint8(7), uint8(0), uint8(9), uint8(1<<6|1<<5), int64(7))
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
		c := tileCase{rows: rows, in: 1 + int(inN%1100), out: out, list: list,
			indexed: flags&1 != 0, zeroRow: 0.25, zeroBlock: 0.25, fill: float64(flags>>2%8+1) / 8,
			fourthOnly: flags&(1<<5) != 0, seed: seed}
		if flags&(1<<6) != 0 {
			c.vals = nanVals
		}
		checkTileMatchesAxpy(t, c)
	})
}

// TestForwardWidthOne: a width-1 layer's dense rows (the dot, on any CPU)
// equal forwardAxpy over denseRuns in every bit — inputs among ±0, NaN
// payloads of either sign and kind, subnormals and ±Inf, weights finite or,
// under columns that are zero in every row, ±Inf and NaN — and gemmBias on
// the same weights when they are finite and no input is a NaN (gemmBias
// multiplies and adds a NaN's operands in another order, so where two NaNs
// meet it may keep the other payload).
func TestForwardWidthOne(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	for trial := 0; trial < 300; trial++ {
		mode := trial % 3 // 0: NaN inputs; 1: against gemmBias too; 2: non-finite weights
		in, rows := 1+rng.Intn(90), 1+rng.Intn(9)
		lin := &Linear{In: in, Out: 1, W: NewParam("w", in), B: NewParam("b", 1)}
		for k := range lin.W.Data {
			lin.W.Data[k] = finiteVal(rng)
		}
		lin.B.Data[0] = finiteVal(rng)
		zeroCol := make([]bool, in)
		for k := range zeroCol {
			zeroCol[k] = rng.Intn(4) == 0
			if zeroCol[k] && mode == 2 {
				lin.W.Data[k] = math.Float64frombits([]uint64{0x7ff0000000000000, 0xfff0000000000000, 0x7ff8000000000123}[rng.Intn(3)])
			}
		}
		x := NewMatrix(rows, in)
		for r := 0; r < rows; r++ {
			for k := range x.Row(r) {
				v := math.Copysign(0, float64(rng.Intn(2)*2-1))
				if !zeroCol[k] && rng.Intn(3) > 0 {
					for v = tileVal(rng); mode == 1 && math.IsNaN(v); v = tileVal(rng) {
					}
				}
				x.Row(r)[k] = v
			}
		}
		l := NewLayer(lin)
		var ws Workspace
		for _, relu := range []bool{false, true} {
			for _, list := range [][]int{nil, span(rows/2, rows)} {
				got, want := dirty(rows, 1), dirty(rows, 1)
				l.Forward(x, got, list, relu, &ws)
				axpyReference(l, x, nil, want, list, relu, &ws)
				if i := sameBits(got.Data, want.Data); i >= 0 {
					t.Fatalf("trial %d %d×%d relu=%v rows %v: dot y[%d] = %#x, axpy loop %#x", trial, rows, in, relu, list, i,
						math.Float64bits(got.Data[i]), math.Float64bits(want.Data[i]))
				}
				if mode != 1 || list != nil {
					continue
				}
				gemmBias(x, lin.W.Data, lin.B.Data, want, relu)
				if i := sameBits(got.Data, want.Data); i >= 0 {
					t.Fatalf("trial %d %d×%d relu=%v: dot y[%d] = %#x, gemmBias %#x", trial, rows, in, relu, i,
						math.Float64bits(got.Data[i]), math.Float64bits(want.Data[i]))
				}
			}
		}
	}
}

// TestForwardBoundsChecked: before the kernel reads raw pointers, Forward
// refuses a run that reaches past the row and weights of the wrong size,
// on the tiled path and on the axpy loop alike.
func TestForwardBoundsChecked(t *testing.T) {
	const in, out = 5, 32
	l := Layer{In: in, Out: out, WT: make([]float64, in*out), B: make([]float64, out)}
	x, y := NewMatrix(1, in), NewMatrix(1, out)
	past := &RunIndex{cols: in, off: []int{0, 1}, runs: []Run{{2, in + 1, 1}}}
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
