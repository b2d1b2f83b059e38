package nn

import (
	"bytes"
	"math"
	"strings"
	"testing"
	"testing/quick"

	"deepsketch/internal/datagen"
)

func TestMatrixBasics(t *testing.T) {
	m := NewMatrix(2, 3)
	m.Set(1, 2, 5)
	if m.At(1, 2) != 5 {
		t.Error("Set/At mismatch")
	}
	r := m.Row(1)
	r[0] = 7
	if m.At(1, 0) != 7 {
		t.Error("Row should alias storage")
	}
	c := m.Clone()
	c.Set(0, 0, 9)
	if m.At(0, 0) == 9 {
		t.Error("Clone should not alias")
	}
	m.Zero()
	if m.At(1, 2) != 0 {
		t.Error("Zero failed")
	}
	if m.String() != "Matrix(2x3)" {
		t.Errorf("String = %s", m.String())
	}
}

func TestLinearForwardKnown(t *testing.T) {
	rng := datagen.NewRand(1)
	l := NewLinear("l", 2, 2, rng)
	copy(l.W.Data, []float64{1, 2, 3, 4}) // W = [[1,2],[3,4]]
	copy(l.B.Data, []float64{10, 20})
	x := NewMatrix(1, 2)
	copy(x.Data, []float64{5, 6})
	y := l.Forward(x)
	// y0 = 1*5+2*6+10 = 27; y1 = 3*5+4*6+20 = 59
	if y.At(0, 0) != 27 || y.At(0, 1) != 59 {
		t.Errorf("forward = %v", y.Data)
	}
}

func TestLinearShapePanics(t *testing.T) {
	rng := datagen.NewRand(1)
	l := NewLinear("l", 3, 2, rng)
	defer func() {
		if recover() == nil {
			t.Error("dimension mismatch should panic")
		}
	}()
	l.Forward(NewMatrix(1, 4))
}

func TestReLUAndSigmoid(t *testing.T) {
	x := NewMatrix(1, 4)
	copy(x.Data, []float64{-1, 0, 2, -3})
	y := ReLU(x)
	want := []float64{0, 0, 2, 0}
	for i := range want {
		if y.Data[i] != want[i] {
			t.Errorf("relu[%d] = %v", i, y.Data[i])
		}
	}
	s := Sigmoid(x)
	if math.Abs(s.Data[1]-0.5) > 1e-12 {
		t.Errorf("sigmoid(0) = %v", s.Data[1])
	}
	if s.Data[0] >= 0.5 || s.Data[2] <= 0.5 {
		t.Error("sigmoid monotonicity broken")
	}
}

func TestMaskedAvgPool(t *testing.T) {
	// B=2 sets, S=3 elements, H=2.
	x := NewMatrix(6, 2)
	copy(x.Data, []float64{
		1, 2,
		3, 4,
		100, 100, // masked out
		10, 10,
		0, 0, // masked out
		0, 0, // masked out
	})
	mask := []float64{1, 1, 0, 1, 0, 0}
	out := MaskedAvgPool(x, mask, 2, 3)
	if out.At(0, 0) != 2 || out.At(0, 1) != 3 {
		t.Errorf("set 0 avg = %v", out.Row(0))
	}
	if out.At(1, 0) != 10 || out.At(1, 1) != 10 {
		t.Errorf("set 1 avg = %v", out.Row(1))
	}
	// Backward: gradient flows only to masked-in rows, scaled by 1/n.
	dOut := NewMatrix(2, 2)
	copy(dOut.Data, []float64{4, 4, 6, 6})
	dx := MaskedAvgPoolBackward(dOut, mask, 2, 3)
	if dx.At(0, 0) != 2 || dx.At(1, 0) != 2 || dx.At(2, 0) != 0 {
		t.Errorf("pool backward set 0: %v", dx.Data[:6])
	}
	if dx.At(3, 0) != 6 || dx.At(4, 0) != 0 {
		t.Errorf("pool backward set 1: %v", dx.Data[6:])
	}
}

func TestMaskedAvgPoolEmptySet(t *testing.T) {
	x := NewMatrix(2, 2)
	copy(x.Data, []float64{5, 5, 7, 7})
	mask := []float64{0, 0}
	out := MaskedAvgPool(x, mask, 1, 2)
	if out.At(0, 0) != 0 || out.At(0, 1) != 0 {
		t.Error("empty set should pool to zero")
	}
	dx := MaskedAvgPoolBackward(out, mask, 1, 2)
	for _, v := range dx.Data {
		if v != 0 {
			t.Error("empty set backward should be zero")
		}
	}
}

func TestLabelNorm(t *testing.T) {
	cards := []int64{1, 10, 100, 1000}
	n := NewLabelNorm(cards)
	if n.MinLog != 0 {
		t.Errorf("MinLog = %v", n.MinLog)
	}
	for _, c := range cards {
		y := n.Normalize(c)
		if y < 0 || y > 1 {
			t.Errorf("normalized %d = %v out of range", c, y)
		}
		back := n.Denormalize(y)
		if math.Abs(back-float64(c))/float64(c) > 1e-9 {
			t.Errorf("roundtrip %d -> %v", c, back)
		}
	}
	if n.Denormalize(-1) != 1 {
		t.Error("denormalize should clamp to >= 1")
	}
	deg := NewLabelNorm([]int64{50, 50})
	if deg.Scale() <= 0 {
		t.Error("degenerate norm must keep positive scale")
	}
	empty := NewLabelNorm(nil)
	if empty.Scale() <= 0 {
		t.Error("empty norm must keep positive scale")
	}
	if NewLabelNorm([]int64{0, 5}).MinLog != 0 {
		t.Error("zero card should clamp to log(1)=0")
	}
}

func TestLabelNormQErrorOf(t *testing.T) {
	n := NewLabelNorm([]int64{1, 100000})
	y := n.Normalize(1000)
	tgt := n.Normalize(100)
	q := n.QErrorOf(y, tgt)
	if math.Abs(q-10) > 1e-9 {
		t.Errorf("QErrorOf = %v, want 10", q)
	}
}

func TestLossQError(t *testing.T) {
	n := LabelNorm{MinLog: 0, MaxLog: math.Log(1000)}
	preds := []float64{n.Normalize(100)}
	targets := []float64{n.Normalize(10)}
	loss, grad := Loss(LossQError, n, preds, targets, 0)
	if math.Abs(loss-10) > 1e-9 {
		t.Errorf("qerror loss = %v, want 10", loss)
	}
	if grad[0] <= 0 {
		t.Error("overestimate should have positive gradient")
	}
	// Perfect prediction: loss 1 (q-error floor), zero-ish gradient magnitude
	// scale*1.
	loss2, _ := Loss(LossQError, n, targets, targets, 0)
	if math.Abs(loss2-1) > 1e-9 {
		t.Errorf("perfect loss = %v, want 1", loss2)
	}
	// Grad cap applies.
	_, g3 := Loss(LossQError, n, []float64{1}, []float64{0}, 5)
	if math.Abs(g3[0]) > 5 {
		t.Errorf("gradient cap violated: %v", g3[0])
	}
}

func TestLossL1Log(t *testing.T) {
	n := LabelNorm{MinLog: 0, MaxLog: 1}
	loss, grad := Loss(LossL1Log, n, []float64{0.7, 0.2}, []float64{0.5, 0.5}, 0)
	if math.Abs(loss-0.25) > 1e-9 { // (0.2 + 0.3)/2
		t.Errorf("l1log loss = %v", loss)
	}
	if grad[0] <= 0 || grad[1] >= 0 {
		t.Errorf("grad signs wrong: %v", grad)
	}
}

func TestLossKindString(t *testing.T) {
	if LossQError.String() != "qerror" || LossL1Log.String() != "l1log" || LossKind(9).String() != "unknown" {
		t.Error("LossKind.String broken")
	}
}

// TestLinearGradCheck verifies analytic gradients against central finite
// differences through a 2-layer ReLU network with sigmoid output and both
// loss kinds — the core correctness property of the backprop implementation.
func TestLinearGradCheck(t *testing.T) {
	rng := datagen.NewRand(77)
	const in, hid, bsz = 5, 4, 3
	l1 := NewLinear("l1", in, hid, rng)
	l2 := NewLinear("l2", hid, 1, rng)
	x := NewMatrix(bsz, in)
	for i := range x.Data {
		x.Data[i] = rng.Float64()*2 - 1
	}
	targets := []float64{0.3, 0.6, 0.9}
	norm := LabelNorm{MinLog: 0, MaxLog: 3}

	for _, kind := range []LossKind{LossQError, LossL1Log} {
		forward := func() float64 {
			h := ReLU(l1.Forward(x))
			o := Sigmoid(l2.Forward(h))
			loss, _ := Loss(kind, norm, o.Data, targets, 0)
			return loss
		}
		// Analytic gradients.
		for _, p := range append(l1.Params(), l2.Params()...) {
			p.ZeroGrad()
		}
		h1 := l1.Forward(x)
		a1 := ReLU(h1)
		h2 := l2.Forward(a1)
		o := Sigmoid(h2)
		_, dOut := Loss(kind, norm, o.Data, targets, 0)
		dO := NewMatrix(bsz, 1)
		copy(dO.Data, dOut)
		dH2 := SigmoidBackward(o, dO)
		dA1 := l2.Backward(a1, dH2)
		dH1 := ReLUBackward(a1, dA1)
		l1.Backward(x, dH1)

		// Finite differences on a sample of coordinates from every param.
		const eps = 1e-6
		for _, p := range []*Param{l1.W, l1.B, l2.W, l2.B} {
			step := len(p.Data)/5 + 1
			for i := 0; i < len(p.Data); i += step {
				orig := p.Data[i]
				p.Data[i] = orig + eps
				up := forward()
				p.Data[i] = orig - eps
				down := forward()
				p.Data[i] = orig
				numeric := (up - down) / (2 * eps)
				analytic := p.Grad[i]
				denom := math.Max(1, math.Max(math.Abs(numeric), math.Abs(analytic)))
				if math.Abs(numeric-analytic)/denom > 1e-4 {
					t.Errorf("%s kind=%s [%d]: analytic %v vs numeric %v",
						p.Name, kind, i, analytic, numeric)
				}
			}
		}
	}
}

// TestPoolGradCheck verifies MaskedAvgPool gradients numerically.
func TestPoolGradCheck(t *testing.T) {
	rng := datagen.NewRand(5)
	const b, s, h = 2, 3, 2
	x := NewMatrix(b*s, h)
	for i := range x.Data {
		x.Data[i] = rng.Float64()
	}
	mask := []float64{1, 0, 1, 1, 1, 1}
	// Loss = sum of squares of pooled output.
	forward := func() float64 {
		out := MaskedAvgPool(x, mask, b, s)
		var l float64
		for _, v := range out.Data {
			l += v * v
		}
		return l
	}
	out := MaskedAvgPool(x, mask, b, s)
	dOut := NewMatrix(b, h)
	for i, v := range out.Data {
		dOut.Data[i] = 2 * v
	}
	dx := MaskedAvgPoolBackward(dOut, mask, b, s)
	const eps = 1e-6
	for i := range x.Data {
		orig := x.Data[i]
		x.Data[i] = orig + eps
		up := forward()
		x.Data[i] = orig - eps
		down := forward()
		x.Data[i] = orig
		numeric := (up - down) / (2 * eps)
		if math.Abs(numeric-dx.Data[i]) > 1e-6 {
			t.Errorf("pool grad [%d]: analytic %v vs numeric %v", i, dx.Data[i], numeric)
		}
	}
}

func TestAdamConvergesOnQuadratic(t *testing.T) {
	// Minimize (w-3)^2: Adam should reach w≈3.
	p := NewParam("w", 1)
	p.Data[0] = -5
	opt := NewAdam(0.1, 0)
	for i := 0; i < 2000; i++ {
		p.Grad[0] = 2 * (p.Data[0] - 3)
		opt.Step([]*Param{p})
	}
	if math.Abs(p.Data[0]-3) > 0.01 {
		t.Errorf("Adam did not converge: w = %v", p.Data[0])
	}
}

func TestAdamClipNorm(t *testing.T) {
	p := NewParam("w", 2)
	p.Grad[0], p.Grad[1] = 300, 400 // norm 500
	opt := NewAdam(0.001, 5)
	before := []float64{p.Data[0], p.Data[1]}
	opt.Step([]*Param{p})
	// After clipping to norm 5, the bias-corrected Adam step magnitude is
	// bounded by lr per coordinate; just verify it moved and grads cleared.
	if p.Data[0] == before[0] || p.Grad[0] != 0 {
		t.Error("step did not apply or grads not cleared")
	}
	if GlobalGradNorm([]*Param{p}) != 0 {
		t.Error("grad norm should be zero after step")
	}
}

func TestTrainTinyRegression(t *testing.T) {
	// A 2-layer net should fit a tiny nonlinear mapping; this exercises the
	// full training loop machinery end to end at the nn level.
	rng := datagen.NewRand(9)
	l1 := NewLinear("l1", 2, 16, rng)
	l2 := NewLinear("l2", 16, 1, rng)
	params := append(l1.Params(), l2.Params()...)
	opt := NewAdam(0.01, 5)
	norm := LabelNorm{MinLog: 0, MaxLog: 1}

	const n = 64
	x := NewMatrix(n, 2)
	targets := make([]float64, n)
	for i := 0; i < n; i++ {
		a, b := rng.Float64(), rng.Float64()
		x.Set(i, 0, a)
		x.Set(i, 1, b)
		targets[i] = 0.2 + 0.5*a*b // in (0,1)
	}
	var last float64
	for epoch := 0; epoch < 300; epoch++ {
		h1 := l1.Forward(x)
		a1 := ReLU(h1)
		h2 := l2.Forward(a1)
		o := Sigmoid(h2)
		loss, dOut := Loss(LossL1Log, norm, o.Data, targets, 0)
		last = loss
		dO := NewMatrix(n, 1)
		copy(dO.Data, dOut)
		dH2 := SigmoidBackward(o, dO)
		dA1 := l2.Backward(a1, dH2)
		dH1 := ReLUBackward(a1, dA1)
		l1.Backward(x, dH1)
		opt.Step(params)
	}
	if last > 0.02 {
		t.Errorf("training did not converge, final loss %v", last)
	}
}

func TestParamSerializationRoundTrip(t *testing.T) {
	rng := datagen.NewRand(33)
	l := NewLinear("l", 4, 3, rng)
	var buf bytes.Buffer
	if err := WriteParams(&buf, l.Params()); err != nil {
		t.Fatal(err)
	}
	l2 := NewLinear("l2", 4, 3, datagen.NewRand(99))
	if err := ReadParams(&buf, l2.Params()); err != nil {
		t.Fatal(err)
	}
	for i := range l.W.Data {
		if l.W.Data[i] != l2.W.Data[i] {
			t.Fatal("weights differ after round trip")
		}
	}
	for i := range l.B.Data {
		if l.B.Data[i] != l2.B.Data[i] {
			t.Fatal("biases differ after round trip")
		}
	}
}

func TestParamSerializationMismatch(t *testing.T) {
	rng := datagen.NewRand(1)
	l := NewLinear("l", 4, 3, rng)
	var buf bytes.Buffer
	if err := WriteParams(&buf, l.Params()); err != nil {
		t.Fatal(err)
	}
	wrongShape := NewLinear("x", 5, 3, rng)
	if err := ReadParams(bytes.NewReader(buf.Bytes()), wrongShape.Params()); err == nil {
		t.Error("shape mismatch should error")
	}
	wrongCount := NewLinear("y", 4, 3, rng)
	if err := ReadParams(bytes.NewReader(buf.Bytes()), append(wrongCount.Params(), NewParam("z", 1))); err == nil {
		t.Error("param count mismatch should error")
	}
	if err := ReadParams(bytes.NewReader(nil), l.Params()); err == nil {
		t.Error("truncated stream should error")
	}
}

// TestReadParamsRejectsNonFinite: a stream holding a NaN or an infinity
// anywhere is refused, and the error names the parameter and the index.
func TestReadParamsRejectsNonFinite(t *testing.T) {
	for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		l := NewLinear("l", 4, 3, datagen.NewRand(5))
		l.B.Data[2] = bad
		var buf bytes.Buffer
		if err := WriteParams(&buf, l.Params()); err != nil {
			t.Fatal(err)
		}
		err := ReadParams(&buf, NewLinear("l", 4, 3, datagen.NewRand(6)).Params())
		if err == nil || !strings.Contains(err.Error(), "l.b[2]") {
			t.Errorf("%v at l.b[2]: ReadParams error = %v, want one naming l.b[2]", bad, err)
		}
	}
}

func TestSerializationPropertyRoundTrip(t *testing.T) {
	f := func(vals []float64) bool {
		for i, v := range vals {
			if math.IsNaN(v) {
				vals[i] = 0
			}
		}
		p := NewParam("p", len(vals))
		copy(p.Data, vals)
		var buf bytes.Buffer
		if err := WriteParams(&buf, []*Param{p}); err != nil {
			return false
		}
		q := NewParam("q", len(vals))
		if err := ReadParams(&buf, []*Param{q}); err != nil {
			return false
		}
		for i := range vals {
			if q.Data[i] != vals[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
