package mscn

import (
	"encoding/json"
	"testing"

	"deepsketch/internal/nn"
)

func TestConfigJSONRoundTrip(t *testing.T) {
	cfg := Config{
		HiddenUnits: 96, Epochs: 42, BatchSize: 256, LearningRate: 5e-4,
		Loss: nn.LossL1Log, ClipNorm: 7, GradCap: 500, ValFrac: 0.2, Seed: 99,
	}
	blob, err := json.Marshal(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var back Config
	if err := json.Unmarshal(blob, &back); err != nil {
		t.Fatal(err)
	}
	if back != cfg {
		t.Errorf("round trip changed config:\n%+v\n%+v", cfg, back)
	}
}

func TestTrainWithL1LogLoss(t *testing.T) {
	_, enc, examples, norm := testSetup(t, 200)
	cfg := Config{HiddenUnits: 16, Epochs: 8, BatchSize: 32, Seed: 3, Loss: nn.LossL1Log}
	m := New(cfg, enc.TableDim(), enc.JoinDim(), enc.PredDim())
	stats, err := m.Train(examples, norm, nil)
	if err != nil {
		t.Fatal(err)
	}
	first, last := stats[0], stats[len(stats)-1]
	if !(last.ValMeanQ < first.ValMeanQ) {
		t.Errorf("L1-log training did not improve: %v -> %v", first.ValMeanQ, last.ValMeanQ)
	}
}

func TestDifferentSeedsDifferentWeights(t *testing.T) {
	a := New(Config{HiddenUnits: 8, Seed: 1}, 5, 2, 3)
	b := New(Config{HiddenUnits: 8, Seed: 2}, 5, 2, 3)
	same := true
	pa, pb := a.Params(), b.Params()
	for i := range pa {
		for j := range pa[i].Data {
			if pa[i].Data[j] != pb[i].Data[j] {
				same = false
			}
		}
	}
	if same {
		t.Error("different seeds produced identical initial weights")
	}
}
