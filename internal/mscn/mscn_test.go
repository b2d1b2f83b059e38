package mscn

import (
	"bytes"
	"math"
	"testing"

	"deepsketch/internal/datagen"
	"deepsketch/internal/db"
	"deepsketch/internal/featurize"
	"deepsketch/internal/nn"
	"deepsketch/internal/sample"
	"deepsketch/internal/trainmon"
	"deepsketch/internal/workload"
)

// testSetup builds a tiny IMDb, samples, encoder, and a labeled uniform
// workload for fast training tests.
func testSetup(t *testing.T, nQueries int) (*db.DB, *featurize.Encoder, []Example, nn.LabelNorm) {
	t.Helper()
	d := datagen.IMDb(datagen.IMDbConfig{Seed: 51, Titles: 900, Keywords: 50, Companies: 25, Persons: 150})
	s, err := sample.New(d, nil, 48, 5)
	if err != nil {
		t.Fatal(err)
	}
	enc, err := featurize.NewEncoder(d, nil, 48)
	if err != nil {
		t.Fatal(err)
	}
	g, err := workload.NewGenerator(d, workload.GenConfig{Seed: 8, Count: nQueries, MaxJoins: 2, MaxPreds: 2})
	if err != nil {
		t.Fatal(err)
	}
	labeled, err := workload.Label(d, g.Generate(), 2, nil)
	if err != nil {
		t.Fatal(err)
	}
	cards := make([]int64, len(labeled))
	encs := make([]featurize.Encoded, len(labeled))
	for i, lq := range labeled {
		bms, err := s.Bitmaps(lq.Query)
		if err != nil {
			t.Fatal(err)
		}
		if encs[i], err = enc.EncodeQuery(lq.Query, bms); err != nil {
			t.Fatal(err)
		}
		cards[i] = lq.Card
	}
	enc.FitLabels(cards)
	return d, enc, encodedExamples(encs, cards), enc.Norm
}

func TestConfigDefaults(t *testing.T) {
	c := Config{}.withDefaults()
	if c.HiddenUnits != 64 || c.Epochs != 25 || c.BatchSize != 64 {
		t.Errorf("defaults wrong: %+v", c)
	}
	c2 := Config{HiddenUnits: 16, Epochs: 3}.withDefaults()
	if c2.HiddenUnits != 16 || c2.Epochs != 3 {
		t.Error("explicit values overridden")
	}
}

func TestModelShapes(t *testing.T) {
	m := New(Config{HiddenUnits: 8, Seed: 1}, 10, 3, 7)
	if got := len(m.Params()); got != 16 { // 8 layers × (W, b)
		t.Errorf("param tensors = %d, want 16", got)
	}
	// 10*8+8 + 8*8+8 + 3*8+8 + 8*8+8 + 7*8+8 + 8*8+8 + 24*8+8 + 8*1+1
	want := (10*8 + 8) + (8*8 + 8) + (3*8 + 8) + (8*8 + 8) + (7*8 + 8) + (8*8 + 8) + (24*8 + 8) + (8 + 1)
	if m.NumParams() != want {
		t.Errorf("NumParams = %d, want %d", m.NumParams(), want)
	}
	// The allocation-free count Load checks a header against must agree,
	// also when the hidden width is left to its default.
	for _, cfg := range []Config{m.Cfg, {}} {
		if got, want := NumParamsFor(cfg, 10, 3, 7), New(cfg, 10, 3, 7).NumParams(); got != float64(want) {
			t.Errorf("NumParamsFor(%+v) = %v, New allocates %d", cfg, got, want)
		}
	}
}

func TestBuildBatchPaddingAndMasks(t *testing.T) {
	e1 := featurize.Encoded{
		TableVecs: [][]float64{{1, 0}, {0, 1}},
		JoinVecs:  [][]float64{{1}},
		PredVecs:  [][]float64{{1, 0, 0}},
	}
	e2 := featurize.Encoded{
		TableVecs: [][]float64{{1, 0}},
		JoinVecs:  [][]float64{{0}},
		PredVecs:  [][]float64{{0, 1, 0}, {0, 0, 1}, {1, 1, 1}},
	}
	b, err := BuildBatch([]featurize.Encoded{e1, e2}, []float64{0.5, 0.7}, 2, 1, 3)
	if err != nil {
		t.Fatal(err)
	}
	if b.B != 2 || b.MaxT != 2 || b.MaxJ != 1 || b.MaxP != 3 {
		t.Fatalf("batch dims: %+v", b)
	}
	// e2 has 1 table: mask for its second slot must be 0.
	if b.TMask[2] != 1 || b.TMask[3] != 0 {
		t.Errorf("table mask = %v", b.TMask)
	}
	if b.PMask[0] != 1 || b.PMask[1] != 0 || b.PMask[2] != 0 {
		t.Errorf("pred mask = %v", b.PMask)
	}
	if b.Y[1] != 0.7 {
		t.Error("labels not copied")
	}
	// Padded rows must stay zero.
	if b.TX.At(3, 0) != 0 || b.TX.At(3, 1) != 0 {
		t.Error("padding row not zero")
	}
}

func TestBuildBatchErrors(t *testing.T) {
	if _, err := BuildBatch(nil, nil, 1, 1, 1); err == nil {
		t.Error("empty batch should error")
	}
	e := featurize.Encoded{TableVecs: [][]float64{{1}}, JoinVecs: [][]float64{{0}}, PredVecs: [][]float64{{0}}}
	if _, err := BuildBatch([]featurize.Encoded{e}, []float64{1, 2}, 1, 1, 1); err == nil {
		t.Error("label count mismatch should error")
	}
	if _, err := BuildBatch([]featurize.Encoded{e}, nil, 5, 1, 1); err == nil {
		t.Error("width mismatch should error")
	}
}

func TestForwardOutputsInUnitInterval(t *testing.T) {
	_, enc, examples, _ := testSetup(t, 30)
	m := New(Config{HiddenUnits: 16, Seed: 3}, enc.TableDim(), enc.JoinDim(), enc.PredDim())
	encs := encsOf(examples)
	preds := predictBatch(t, m.Engine(), encs)
	for i, p := range preds {
		if p <= 0 || p >= 1 || math.IsNaN(p) {
			t.Fatalf("pred %d = %v not in (0,1)", i, p)
		}
	}
}

func TestForwardPermutationInvariance(t *testing.T) {
	// MSCN treats queries as sets: permuting set elements must not change
	// the prediction (the core Deep Sets property).
	_, enc, examples, _ := testSetup(t, 40)
	m := New(Config{HiddenUnits: 16, Seed: 3}, enc.TableDim(), enc.JoinDim(), enc.PredDim())
	var tested int
	for _, enc := range encsOf(examples) {
		if len(enc.PredVecs) < 2 && len(enc.TableVecs) < 2 {
			continue
		}
		tested++
		p1, err := m.Engine().Predict(enc)
		if err != nil {
			t.Fatal(err)
		}
		rev := featurize.Encoded{
			TableVecs: reverse(enc.TableVecs),
			JoinVecs:  reverse(enc.JoinVecs),
			PredVecs:  reverse(enc.PredVecs),
		}
		p2, err := m.Engine().Predict(rev)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(p1-p2) > 1e-12 {
			t.Fatalf("permutation changed prediction: %v vs %v", p1, p2)
		}
	}
	if tested == 0 {
		t.Skip("no multi-element queries in tiny workload")
	}
}

func reverse(v [][]float64) [][]float64 {
	out := make([][]float64, len(v))
	for i := range v {
		out[i] = v[len(v)-1-i]
	}
	return out
}

func TestBatchSizeIndependence(t *testing.T) {
	// Predictions must not depend on batch packing (padding + masks).
	_, enc, examples, _ := testSetup(t, 25)
	m := New(Config{HiddenUnits: 16, Seed: 9}, enc.TableDim(), enc.JoinDim(), enc.PredDim())
	encs := encsOf(examples)
	batched := predictBatch(t, m.Engine(), encs)
	for i, e := range encs {
		single, err := m.Engine().Predict(e)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(single-batched[i]) > 1e-9 {
			t.Fatalf("query %d: single %v vs batched %v", i, single, batched[i])
		}
	}
}

func TestTrainingReducesValidationQError(t *testing.T) {
	_, enc, examples, norm := testSetup(t, 300)
	cfg := Config{HiddenUnits: 24, Epochs: 12, BatchSize: 32, Seed: 7, ValFrac: 0.15}
	m := New(cfg, enc.TableDim(), enc.JoinDim(), enc.PredDim())
	mon := trainmon.New()
	stats, err := m.TrainWithOptions(examples, norm, mon, TrainOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(stats) != 12 {
		t.Fatalf("epochs run = %d", len(stats))
	}
	first, last := stats[0], stats[len(stats)-1]
	if !(last.ValMeanQ < first.ValMeanQ) {
		t.Errorf("validation q-error did not improve: %v -> %v", first.ValMeanQ, last.ValMeanQ)
	}
	if last.ValMedQ > 20 {
		t.Errorf("median validation q-error suspiciously high: %v", last.ValMedQ)
	}
	// Monitor saw every epoch.
	var epochEvents int
	for _, e := range mon.Events() {
		if e.Kind == trainmon.KindEpoch {
			epochEvents++
		}
	}
	if epochEvents != 12 {
		t.Errorf("monitor epoch events = %d", epochEvents)
	}
}

func TestTrainDeterminism(t *testing.T) {
	_, enc, examples, norm := testSetup(t, 80)
	cfg := Config{HiddenUnits: 8, Epochs: 3, BatchSize: 16, Seed: 5}
	m1 := New(cfg, enc.TableDim(), enc.JoinDim(), enc.PredDim())
	m2 := New(cfg, enc.TableDim(), enc.JoinDim(), enc.PredDim())
	if _, err := m1.TrainWithOptions(examples, norm, nil, TrainOptions{}); err != nil {
		t.Fatal(err)
	}
	if _, err := m2.TrainWithOptions(examples, norm, nil, TrainOptions{}); err != nil {
		t.Fatal(err)
	}
	p1 := m1.Params()
	p2 := m2.Params()
	for i := range p1 {
		for j := range p1[i].Data {
			if p1[i].Data[j] != p2[i].Data[j] {
				t.Fatalf("weights diverged at param %d[%d]", i, j)
			}
		}
	}
}

func TestTrainEmptyErrors(t *testing.T) {
	m := New(Config{HiddenUnits: 4}, 3, 1, 2)
	if _, err := m.TrainWithOptions(nil, nn.LabelNorm{MinLog: 0, MaxLog: 1}, nil, TrainOptions{}); err == nil {
		t.Error("empty training set should error")
	}
}

func TestWeightsRoundTrip(t *testing.T) {
	_, enc, examples, norm := testSetup(t, 60)
	cfg := Config{HiddenUnits: 12, Epochs: 2, BatchSize: 16, Seed: 2}
	m := New(cfg, enc.TableDim(), enc.JoinDim(), enc.PredDim())
	if _, err := m.TrainWithOptions(examples, norm, nil, TrainOptions{}); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := m.WriteWeights(&buf); err != nil {
		t.Fatal(err)
	}
	m2 := New(cfg, enc.TableDim(), enc.JoinDim(), enc.PredDim())
	if err := m2.ReadWeights(&buf); err != nil {
		t.Fatal(err)
	}
	for i, ex := range examples[:10] {
		a, err := m.Engine().Predict(encOf(ex))
		if err != nil {
			t.Fatal(err)
		}
		b, err := m2.Engine().Predict(encOf(ex))
		if err != nil {
			t.Fatal(err)
		}
		if a != b {
			t.Fatalf("example %d: predictions differ after round trip: %v vs %v", i, a, b)
		}
	}
	// Mismatched architecture must fail.
	var buf2 bytes.Buffer
	if err := m.WriteWeights(&buf2); err != nil {
		t.Fatal(err)
	}
	wrong := New(Config{HiddenUnits: 13}, enc.TableDim(), enc.JoinDim(), enc.PredDim())
	if err := wrong.ReadWeights(&buf2); err == nil {
		t.Error("architecture mismatch should error")
	}
}

// TestMSCNGradCheck: end-to-end numeric gradient check through the full
// MSCN forward/backward (set modules, pooling, concat, output net, sigmoid,
// q-error loss).
func TestMSCNGradCheck(t *testing.T) {
	_, enc, examples, norm := testSetup(t, 6)
	m := New(Config{HiddenUnits: 6, Seed: 13}, enc.TableDim(), enc.JoinDim(), enc.PredDim())
	encs := make([]featurize.Encoded, 4)
	targets := make([]float64, 4)
	for i := 0; i < 4; i++ {
		encs[i] = encOf(examples[i])
		targets[i] = norm.Normalize(examples[i].Card)
	}
	batch, err := BuildBatch(encs, targets, m.TDim, m.JDim, m.PDim)
	if err != nil {
		t.Fatal(err)
	}
	lossOf := func() float64 {
		preds := m.Forward(batch)
		l, _ := nn.Loss(nn.LossQError, norm, preds, batch.Y, 0)
		return l
	}
	for _, p := range m.Params() {
		p.ZeroGrad()
	}
	var tp tape
	preds := m.forward(batch, &tp)
	_, grad := nn.Loss(nn.LossQError, norm, preds, batch.Y, 0)
	m.backward(&tp, grad)

	const eps = 1e-6
	for _, p := range m.Params() {
		step := len(p.Data)/4 + 1
		for i := 0; i < len(p.Data); i += step {
			orig := p.Data[i]
			p.Data[i] = orig + eps
			up := lossOf()
			p.Data[i] = orig - eps
			down := lossOf()
			p.Data[i] = orig
			numeric := (up - down) / (2 * eps)
			analytic := p.Grad[i]
			denom := math.Max(1, math.Max(math.Abs(numeric), math.Abs(analytic)))
			if math.Abs(numeric-analytic)/denom > 5e-4 {
				t.Errorf("%s[%d]: analytic %v vs numeric %v", p.Name, i, analytic, numeric)
			}
		}
	}
}
