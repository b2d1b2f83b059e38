package core

import (
	"bufio"
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"math"
	"reflect"
	"slices"
	"testing"
	"time"

	"deepsketch/internal/featurize"
	"deepsketch/internal/workload"
)

// saveV1 serializes a sketch in the version-1 format (no optimizer
// trailer), replicating the original writer byte for byte — the
// compatibility corpus for TestLoadV1Sketch. Its header is spelled out
// rather than taken from the current one: files of that era carry the
// Figure 1a stage timings ("stage_ms"), each epoch's wall time
// ("Duration") and the config's worker count ("workers"), which the
// current header no longer has.
func saveV1(t *testing.T, s *Sketch) []byte {
	t.Helper()
	var buf bytes.Buffer
	bw := bufio.NewWriter(&buf)
	if _, err := bw.WriteString(sketchMagic); err != nil {
		t.Fatal(err)
	}
	if err := binary.Write(bw, binary.LittleEndian, uint32(1)); err != nil {
		t.Fatal(err)
	}
	type epochV1 struct {
		Epoch     int
		TrainLoss float64
		ValMeanQ  float64
		ValMedQ   float64
		Duration  time.Duration
	}
	epochs := make([]epochV1, len(s.Epochs))
	for i, e := range s.Epochs {
		epochs[i] = epochV1{e.Epoch, e.TrainLoss, e.ValMeanQ, e.ValMedQ, time.Duration(i+1) * 18_250_117}
	}
	type configV1 struct {
		Config
		Workers int `json:"workers"`
	}
	hdr := struct {
		Name        string             `json:"name"`
		DBName      string             `json:"db_name"`
		Cfg         configV1           `json:"config"`
		Encoder     *featurize.Encoder `json:"encoder"`
		Epochs      []epochV1          `json:"epochs"`
		StageMillis map[string]int     `json:"stage_ms"`
		SampleSize  int                `json:"sample_set_size"`
	}{
		Name: s.Name(), DBName: s.DBName, Cfg: configV1{s.Cfg, 4}, Encoder: s.Encoder, Epochs: epochs,
		StageMillis: map[string]int{"define": 0, "generate": 3, "execute": 41, "featurize": 7, "train": 912},
		SampleSize:  s.Samples.Size,
	}
	blob, err := json.Marshal(hdr)
	if err != nil {
		t.Fatal(err)
	}
	if err := binary.Write(bw, binary.LittleEndian, uint32(len(blob))); err != nil {
		t.Fatal(err)
	}
	if _, err := bw.Write(blob); err != nil {
		t.Fatal(err)
	}
	if err := s.Model.WriteWeights(bw); err != nil {
		t.Fatal(err)
	}
	if err := writeSamples(bw, s.Samples, s.Cfg.Tables); err != nil {
		t.Fatal(err)
	}
	if err := bw.Flush(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// deltaWorkload labels a fresh uniform workload disjoint from the build
// seed — the stand-in for post-drift traffic. Requires getSketch to have
// populated the shared database.
func deltaWorkload(t *testing.T, s *Sketch, seed int64, n int) []workload.LabeledQuery {
	t.Helper()
	g, err := workload.NewGenerator(sharedDB, workload.GenConfig{
		Seed: seed, Count: n, Tables: s.Cfg.Tables, MaxJoins: 2, MaxPreds: 2, Dedup: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	labeled, err := workload.Label(sharedDB, g.Generate(), 2, nil)
	if err != nil {
		t.Fatal(err)
	}
	return labeled
}

// TestLoadV1Sketch: version-1 files (written before the optimizer trailer
// existed) must still load, estimate identically, and simply carry no
// optimizer state.
func TestLoadV1Sketch(t *testing.T) {
	d, s := getSketch(t)
	blob := saveV1(t, s)
	loaded, err := Load(bytes.NewReader(blob))
	if err != nil {
		t.Fatalf("v1 sketch no longer loads: %v", err)
	}
	for _, field := range []string{`"stage_ms":`, `"Duration":`, `"workers":4`} {
		if !bytes.Contains(blob, []byte(field)) {
			t.Fatalf("the v1 fixture no longer carries %s, which files of its era have", field)
		}
	}
	if loaded.Model.OptState() != nil {
		t.Error("v1 sketch should have no optimizer state")
	}
	if !reflect.DeepEqual(loaded.Cfg, s.Cfg) {
		t.Errorf("v1 sketch loaded config %+v, want %+v; the header's workers field is ignored", loaded.Cfg, s.Cfg)
	}
	if !slices.Equal(loaded.Epochs, s.Epochs) {
		t.Errorf("v1 training record = %+v, want %+v", loaded.Epochs, s.Epochs)
	}
	g, _ := workload.NewGenerator(d, workload.GenConfig{Seed: 77, Count: 10, MaxJoins: 2, MaxPreds: 2})
	for _, q := range g.Generate() {
		want, err := s.Cardinality(q)
		if err != nil {
			t.Fatal(err)
		}
		got, err := loaded.Cardinality(q)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(want-got)/want > 1e-12 {
			t.Fatalf("v1 reload changed estimate: %v vs %v", got, want)
		}
	}
	// And a v1-loaded sketch still refreshes: warm weights, cold optimizer.
	labeled := deltaWorkload(t, s, 401, 120)
	ns, err := Refresh(context.Background(), loaded, labeled, RefreshOptions{Epochs: 1}, nil)
	if err != nil {
		t.Fatalf("refreshing a v1 sketch: %v", err)
	}
	if ns.Model.OptState() == nil {
		t.Error("refresh should capture optimizer state even from a v1 sketch")
	}
}

// TestSaveLoadOptStateRoundTrip: the v2 trailer round-trips the Adam state
// exactly, so a save → load → refresh resumes the very same optimizer.
func TestSaveLoadOptStateRoundTrip(t *testing.T) {
	_, s := getSketch(t)
	st := s.Model.OptState()
	if st == nil {
		t.Fatal("built sketch has no optimizer state")
	}
	var buf bytes.Buffer
	if err := s.Save(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	lst := loaded.Model.OptState()
	if lst == nil {
		t.Fatal("optimizer state lost in round trip")
	}
	if lst.Step != st.Step {
		t.Fatalf("step %d != %d", lst.Step, st.Step)
	}
	for i := range st.M {
		for j := range st.M[i] {
			if st.M[i][j] != lst.M[i][j] || st.V[i][j] != lst.V[i][j] {
				t.Fatalf("moments differ at %d[%d]", i, j)
			}
		}
	}
}

// TestRefreshLeavesOriginalServing: Refresh fine-tunes a clone — the
// original sketch's weights, state and estimates stay bit-identical, and
// the refreshed sketch accumulates training history and optimizer steps.
func TestRefreshLeavesOriginalServing(t *testing.T) {
	d, s := getSketch(t)
	g, _ := workload.NewGenerator(d, workload.GenConfig{Seed: 88, Count: 5, MaxJoins: 2, MaxPreds: 2})
	probes := g.Generate()
	before := make([]float64, len(probes))
	for i, q := range probes {
		v, err := s.Cardinality(q)
		if err != nil {
			t.Fatal(err)
		}
		before[i] = v
	}
	baseStep := s.Model.OptState().Step
	baseEpochs := len(s.Epochs)

	labeled := deltaWorkload(t, s, 402, 150)
	ns, err := Refresh(context.Background(), s, labeled, RefreshOptions{Epochs: 2}, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i, q := range probes {
		v, err := s.Cardinality(q)
		if err != nil {
			t.Fatal(err)
		}
		if v != before[i] {
			t.Fatalf("refresh changed the live sketch's estimate for probe %d", i)
		}
	}
	if s.Model.OptState().Step != baseStep {
		t.Error("refresh mutated the live sketch's optimizer state")
	}
	if got := len(ns.Epochs); got != baseEpochs+2 {
		t.Errorf("refreshed history has %d epochs, want %d", got, baseEpochs+2)
	}
	if ns.Model.OptState().Step <= baseStep {
		t.Errorf("refreshed optimizer step %d did not advance past %d — Adam state not resumed",
			ns.Model.OptState().Step, baseStep)
	}
	// The refreshed sketch still estimates sanely.
	for _, q := range probes {
		v, err := ns.Cardinality(q)
		if err != nil {
			t.Fatal(err)
		}
		if v < 1 || math.IsNaN(v) || math.IsInf(v, 0) {
			t.Fatalf("refreshed estimate %v invalid", v)
		}
	}
}

// TestRefreshWarmBeatsColdRebuild is the paper-motivated acceptance check:
// on a drift-delta workload, the warm start (resumed Adam state + trained
// weights) reaches the cold rebuild's validation q-error in strictly fewer
// epochs than the cold rebuild took.
func TestRefreshWarmBeatsColdRebuild(t *testing.T) {
	_, s := getSketch(t)
	labeled := deltaWorkload(t, s, 403, 300)

	// Cold rebuild: a fresh sketch trained from scratch on the delta
	// workload with the build-time epoch budget.
	coldCfg := s.Cfg
	coldCfg.Name = "cold-rebuild"
	cold, err := BuildWithWorkload(sharedDB, coldCfg, labeled, nil)
	if err != nil {
		t.Fatal(err)
	}
	coldEpochs := len(cold.Epochs)
	targetQ := cold.Epochs[coldEpochs-1].ValMeanQ * 1.05 // small tolerance band

	ns, err := Refresh(context.Background(), s, labeled, RefreshOptions{
		Epochs: coldEpochs, StopAtValQ: targetQ,
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	warmEpochs := len(ns.Epochs) - len(s.Epochs)
	t.Logf("cold rebuild: %d epochs to val mean-q %.2f; warm refresh: %d epochs to %.2f (target %.2f)",
		coldEpochs, cold.Epochs[coldEpochs-1].ValMeanQ, warmEpochs,
		ns.Epochs[len(ns.Epochs)-1].ValMeanQ, targetQ)
	if warmEpochs >= coldEpochs {
		t.Errorf("warm refresh took %d epochs, want strictly fewer than the cold rebuild's %d",
			warmEpochs, coldEpochs)
	}
	if got := ns.Epochs[len(ns.Epochs)-1].ValMeanQ; got > targetQ {
		t.Errorf("warm refresh stopped at val mean-q %.2f, above target %.2f", got, targetQ)
	}
}

func TestRefreshValidation(t *testing.T) {
	_, s := getSketch(t)
	if _, err := Refresh(context.Background(), s, nil, RefreshOptions{}, nil); err == nil {
		t.Error("empty delta workload should fail")
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	labeled := deltaWorkload(t, s, 404, 20)
	if _, err := Refresh(ctx, s, labeled, RefreshOptions{Epochs: 1}, nil); err == nil {
		t.Error("cancelled context should abort the refresh")
	}
}
