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

	"deepsketch/internal/trainmon"
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
// that claims to change nothing — at every worker count, including more
// workers than a minibatch has queries, and with a StopAtValQ that is off,
// fires mid-run, and fires one epoch later.
func TestTrainFingerprint(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skipf("constants recorded on amd64; %s may fuse multiply-adds, so the bits differ by platform, not by commit", runtime.GOARCH)
	}
	const tdim, jdim, pdim = 17, 4, 6
	cfg := Config{HiddenUnits: 12, Epochs: 6, BatchSize: 16, Seed: 17, ValFrac: 0.2}
	// Validation mean q-error falls 6.97 → 6.42 → 5.89 → 5.38 over epochs
	// 1–4, so 6.0 first holds at epoch 3 and 5.5 at epoch 4.
	stops := []struct {
		q      float64
		epochs int
		want   string
	}{
		{0, 6, "98c40f54e2fd297b385669aa0c76db7133618abf0662394e0b24ce7d0c97add9"},
		{6.0, 3, "00573c826a8157191a0c1ce02a404463d531b1df6a0cf57bcf0614ef40038d46"},
		{5.5, 4, "3becd8e221e228f59888a66f32c0e5fcedbc89e49a6121b88c0171108439c455"},
	}
	for _, p := range []int{1, 2, 3, 8} {
		for _, stop := range stops {
			t.Run(fmt.Sprintf("P%d/stop%v", p, stop.q), func(t *testing.T) {
				examples, norm := trainExamples(rand.New(rand.NewSource(82)), 80, tdim, jdim, pdim)
				m := New(cfg, tdim, jdim, pdim)
				stats, err := m.TrainWithOptions(examples, norm, nil, TrainOptions{Parallelism: p, StopAtValQ: stop.q})
				if err != nil {
					t.Fatal(err)
				}
				if len(stats) != stop.epochs {
					t.Fatalf("ran %d epochs, want %d (val mean-q per epoch: %v)", len(stats), stop.epochs, stats)
				}
				if got := trainFingerprint(m, stats); got != stop.want {
					t.Errorf("fingerprint %s, recorded %s", got, stop.want)
				}
			})
		}
	}
}

// TestTrainFingerprintStepWidths: a step's width is a schedule, not an
// input. A run whose width changes at every step — as a daemon's does when
// serving requests come and go — ends on TestTrainFingerprint's recorded
// digest, and its epoch events count each step at the width it ran.
func TestTrainFingerprintStepWidths(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skipf("constants recorded on amd64; %s may fuse multiply-adds", runtime.GOARCH)
	}
	const tdim, jdim, pdim = 17, 4, 6
	const want = "98c40f54e2fd297b385669aa0c76db7133618abf0662394e0b24ce7d0c97add9"
	cfg := Config{HiddenUnits: 12, Epochs: 6, BatchSize: 16, Seed: 17, ValFrac: 0.2}
	for _, p := range []int{3, 8} {
		t.Run(fmt.Sprintf("P%d", p), func(t *testing.T) {
			widths := []int{1, 3, 2, 1, p}
			var calls int
			old := stepWidths
			stepWidths = func() func(int) int {
				return func(full int) int {
					if full != p {
						t.Errorf("trainer asked for the width of %d workers, want %d", full, p)
					}
					calls++
					return widths[calls%len(widths)]
				}
			}
			t.Cleanup(func() { stepWidths = old })

			examples, norm := trainExamples(rand.New(rand.NewSource(82)), 80, tdim, jdim, pdim)
			m := New(cfg, tdim, jdim, pdim)
			mon := trainmon.New()
			stats, err := m.TrainWithOptions(examples, norm, mon, TrainOptions{Parallelism: p})
			if err != nil {
				t.Fatal(err)
			}
			if got := trainFingerprint(m, stats); got != want {
				t.Errorf("fingerprint %s, recorded %s", got, want)
			}
			// 64 training examples in minibatches of 16: 4 steps an epoch,
			// plus one validation pass that asks for a width too.
			var full, narrowed int
			for _, e := range mon.Events() {
				if e.Kind != trainmon.KindEpoch {
					continue
				}
				if n := e.Steps.Full + e.Steps.Narrowed; n != 4 {
					t.Errorf("epoch %d counts %d steps (%+v), want 4", e.Epoch, n, e.Steps)
				}
				full += e.Steps.Full
				narrowed += e.Steps.Narrowed
			}
			if calls != 6*5 {
				t.Errorf("%d width readings over 6 epochs, want 30 (4 steps and a validation each)", calls)
			}
			// Readings 5, 10, … are the validations, so each epoch's steps
			// read widths[1:5].
			wantFull := 0
			for _, w := range widths[1:] {
				if w == p {
					wantFull += 6
				}
			}
			if full != wantFull || narrowed != 24-wantFull {
				t.Errorf("steps: %d full, %d narrowed; want %d and %d", full, narrowed, wantFull, 24-wantFull)
			}
		})
	}
}
