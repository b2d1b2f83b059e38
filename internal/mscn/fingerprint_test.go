package mscn

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"testing"
)

// trainFingerprint is a SHA-256 over everything a training run decides, in a
// fixed order: the little-endian bits of every Params() element, the Adam
// step count, every first and second moment, and each epoch's TrainLoss,
// ValMeanQ and ValMedQ. Two runs with the same fingerprint produced the same
// model, the same warm-start state and the same monitor stream, bit for bit.
func trainFingerprint(m *Model, stats []EpochStats) string {
	h := sha256.New()
	var buf [8]byte
	u64 := func(v uint64) {
		binary.LittleEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	}
	f64s := func(xs []float64) {
		for _, x := range xs {
			u64(math.Float64bits(x))
		}
	}
	for _, p := range m.Params() {
		f64s(p.Data)
	}
	st := m.OptState()
	u64(uint64(st.Step))
	for _, mo := range st.M {
		f64s(mo)
	}
	for _, v := range st.V {
		f64s(v)
	}
	for _, e := range stats {
		f64s([]float64{e.TrainLoss, e.ValMeanQ, e.ValMedQ})
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestTrainFingerprint pins the training loop bit for bit: the constants
// below were recorded at commit 7ee6242 (two validation schedules, validation
// through the inference engine) and must survive any refactor of the loop
// that claims to change nothing — worker counts 1–3, and a StopAtValQ that
// is off, fires mid-run, and fires one epoch later.
func TestTrainFingerprint(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skipf("constants recorded on amd64; %s may fuse multiply-adds, so the bits differ by platform, not by commit", runtime.GOARCH)
	}
	const tdim, jdim, pdim = 17, 4, 6
	cfg := Config{HiddenUnits: 12, Epochs: 6, BatchSize: 16, Seed: 17, ValFrac: 0.2}
	// Validation mean q-error falls 6.97 → 6.42 → 5.89 → 5.38 over epochs
	// 1–4 at every worker count, so 6.0 first holds at epoch 3 and 5.5 at
	// epoch 4.
	stops := []struct {
		q      float64
		epochs int
	}{{0, 6}, {6.0, 3}, {5.5, 4}}
	want := map[string]string{
		"P1/stop0":   "98c40f54e2fd297b385669aa0c76db7133618abf0662394e0b24ce7d0c97add9",
		"P1/stop6":   "00573c826a8157191a0c1ce02a404463d531b1df6a0cf57bcf0614ef40038d46",
		"P1/stop5.5": "3becd8e221e228f59888a66f32c0e5fcedbc89e49a6121b88c0171108439c455",
		"P2/stop0":   "6aa76fc4d06d51ab50a940efed4b3bf8d5644ff16f33121dcc5bf6893412dacf",
		"P2/stop6":   "0e55f4c2a0ba6061d9caa614bc6a26c341c353be01dbe3c1287bbfddf83a3d50",
		"P2/stop5.5": "4aff4c25036c9c3a3ddcd44907cd339f989e444edc7e42c1521316484908ae85",
		"P3/stop0":   "8608da9206f27c7add1fa3b668e3895c91ea82e67f788b21c0f1b73674e640f4",
		"P3/stop6":   "5a8de4f8f7afd820eaabfde9bc10767097005a3ea72cef535b3eff7ad2c33c08",
		"P3/stop5.5": "21d5125137fcc9821286411d9a053513b6245c3ac295c42ac98ab046177e69ad",
	}
	for p := 1; p <= 3; p++ {
		for _, stop := range stops {
			name := fmt.Sprintf("P%d/stop%v", p, stop.q)
			t.Run(name, func(t *testing.T) {
				examples, norm := trainExamples(rand.New(rand.NewSource(82)), 80, tdim, jdim, pdim)
				m := New(cfg, tdim, jdim, pdim)
				stats, err := m.TrainWithOptions(examples, norm, nil, TrainOptions{Parallelism: p, StopAtValQ: stop.q})
				if err != nil {
					t.Fatal(err)
				}
				if len(stats) != stop.epochs {
					t.Fatalf("ran %d epochs, want %d (val mean-q per epoch: %v)", len(stats), stop.epochs, stats)
				}
				if got := trainFingerprint(m, stats); got != want[name] {
					t.Errorf("fingerprint %s, recorded %s", got, want[name])
				}
			})
		}
	}
}
