package nn

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"sync"
	"testing"
)

// optTestParams builds a small deterministic parameter set with gradients.
func optTestParams(seed int64) []*Param {
	rng := rand.New(rand.NewSource(seed))
	ps := []*Param{NewParam("a", 7), NewParam("b", 3)}
	for _, p := range ps {
		for i := range p.Data {
			p.Data[i] = rng.NormFloat64()
		}
	}
	return ps
}

func fillGrads(params []*Param, rng *rand.Rand) {
	for _, p := range params {
		for i := range p.Grad {
			p.Grad[i] = rng.NormFloat64()
		}
	}
}

// TestAdamResumeMatchesUninterrupted: stepping K times, exporting, restoring
// into a fresh optimizer over a copied parameter set, and stepping K more
// times must reproduce the uninterrupted 2K-step run bitwise — the property
// the warm-start refresh path relies on.
func TestAdamResumeMatchesUninterrupted(t *testing.T) {
	const k = 5
	full := optTestParams(1)
	split := optTestParams(1)

	fullOpt := NewAdam(1e-2, 0)
	splitOpt := NewAdam(1e-2, 0)
	rngA := rand.New(rand.NewSource(9))
	rngB := rand.New(rand.NewSource(9))
	for i := 0; i < k; i++ {
		fillGrads(full, rngA)
		fullOpt.Step(full)
		fillGrads(split, rngB)
		splitOpt.Step(split)
	}

	// Serialize the split run's state and restore it into a fresh optimizer.
	st := splitOpt.ExportState(split)
	var buf bytes.Buffer
	if err := WriteOptState(&buf, st); err != nil {
		t.Fatal(err)
	}
	loaded, err := ReadOptState(&buf, split)
	if err != nil {
		t.Fatal(err)
	}
	if loaded.Step != k {
		t.Fatalf("restored step = %d, want %d", loaded.Step, k)
	}
	resumed := NewAdam(1e-2, 0)
	if err := resumed.RestoreState(split, loaded); err != nil {
		t.Fatal(err)
	}

	for i := 0; i < k; i++ {
		fillGrads(full, rngA)
		fullOpt.Step(full)
		fillGrads(split, rngB)
		resumed.Step(split)
	}
	for pi := range full {
		for i := range full[pi].Data {
			if full[pi].Data[i] != split[pi].Data[i] {
				t.Fatalf("param %d[%d]: resumed %v != uninterrupted %v",
					pi, i, split[pi].Data[i], full[pi].Data[i])
			}
		}
	}
}

// TestRestoreStateCopies: mutating the caller's OptState after RestoreState
// must not affect the optimizer, and vice versa.
func TestRestoreStateCopies(t *testing.T) {
	params := optTestParams(2)
	opt := NewAdam(1e-2, 0)
	fillGrads(params, rand.New(rand.NewSource(3)))
	opt.Step(params)
	st := opt.ExportState(params)
	orig := st.Clone()

	fresh := NewAdam(1e-2, 0)
	if err := fresh.RestoreState(params, st); err != nil {
		t.Fatal(err)
	}
	fillGrads(params, rand.New(rand.NewSource(4)))
	fresh.Step(params)
	for i := range st.M {
		for j := range st.M[i] {
			if st.M[i][j] != orig.M[i][j] || st.V[i][j] != orig.V[i][j] {
				t.Fatal("optimizer step mutated the caller's OptState")
			}
		}
	}
}

func TestRestoreStateShapeMismatch(t *testing.T) {
	params := optTestParams(5)
	opt := NewAdam(1e-2, 0)
	st := opt.ExportState(params)

	if err := NewAdam(1e-2, 0).RestoreState(params[:1], st); err == nil {
		t.Error("param-count mismatch not rejected")
	}
	st.M[0] = st.M[0][:2]
	if err := NewAdam(1e-2, 0).RestoreState(params, st); err == nil {
		t.Error("element-count mismatch not rejected")
	}
}

// TestReadOptStateRejectsMismatchedShapes: block lengths are validated
// against the architecture before any allocation, so a forged stream
// claiming a huge block fails fast instead of demanding gigabytes (sketch
// files are accepted over the network by the daemon's upload endpoint).
func TestReadOptStateRejectsMismatchedShapes(t *testing.T) {
	params := optTestParams(6)
	st := NewAdam(1e-2, 0).ExportState(params)
	var buf bytes.Buffer
	if err := WriteOptState(&buf, st); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadOptState(bytes.NewReader(buf.Bytes()), params[:1]); err == nil {
		t.Error("param-count mismatch not rejected")
	}
	// Forge a stream: step, 1 param, block length 2^28 — must be rejected
	// before allocating, i.e. with a length-mismatch error, not OOM or EOF.
	forged := make([]byte, 0, 16)
	forged = append(forged, make([]byte, 8)...) // step = 0
	forged = append(forged, 1, 0, 0, 0)         // nParams = 1
	forged = append(forged, 0, 0, 0, 16)        // block len = 1<<28
	if _, err := ReadOptState(bytes.NewReader(forged), params[:1]); err == nil {
		t.Error("oversized forged block not rejected")
	}
}

func TestOptStateCloneNil(t *testing.T) {
	var st *OptState
	if st.Clone() != nil {
		t.Error("nil clone should be nil")
	}
}

// TestAdamShardedMatchesSerial: BeginStep followed by StepShard over n
// concurrent shards leaves the weights, the moments and the zeroed gradients
// of Step, bit for bit — with clipping off, active and idle, from a first
// step (the moments allocated lazily) and from a restored state. The
// parameter sizes split unevenly at every shard count, and one is empty.
func TestAdamShardedMatchesSerial(t *testing.T) {
	sizes := []int{7, 1, 13, 0, 4, 29}
	params := func() []*Param {
		rng := rand.New(rand.NewSource(5))
		ps := make([]*Param, len(sizes))
		for i, n := range sizes {
			ps[i] = NewParam(fmt.Sprint("p", i), n)
			for j := range ps[i].Data {
				ps[i].Data[j] = rng.NormFloat64()
			}
		}
		return ps
	}
	same := func(what string, a, b []float64) {
		t.Helper()
		for i := range a {
			if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
				t.Fatalf("%s[%d]: sharded %v, serial %v", what, i, b[i], a[i])
			}
		}
	}
	// The gradients have a norm near 7: a clip of 1e-3 scales them, 1e6 does not.
	for _, clip := range []float64{0, 1e-3, 1e6} {
		for _, n := range []int{1, 2, 3, 7} {
			serial, sharded := params(), params()
			so, po := NewAdam(1e-2, clip), NewAdam(1e-2, clip)
			rngS, rngP := rand.New(rand.NewSource(11)), rand.New(rand.NewSource(11))
			step := func(round int) {
				t.Helper()
				fillGrads(serial, rngS)
				fillGrads(sharded, rngP)
				so.Step(serial)
				po.BeginStep(sharded)
				var wg sync.WaitGroup
				for s := 0; s < n; s++ {
					wg.Add(1)
					go func() {
						defer wg.Done()
						po.StepShard(sharded, s, n)
					}()
				}
				wg.Wait()
				what := fmt.Sprintf("clip %v, %d shards, step %d", clip, n, round)
				ss, ps := so.ExportState(serial), po.ExportState(sharded)
				if ss.Step != ps.Step {
					t.Fatalf("%s: step count %d, serial %d", what, ps.Step, ss.Step)
				}
				for i := range serial {
					same(what+" weight "+serial[i].Name, serial[i].Data, sharded[i].Data)
					same(what+" grad "+serial[i].Name, make([]float64, sizes[i]), sharded[i].Grad)
					same(what+" m "+serial[i].Name, ss.M[i], ps.M[i])
					same(what+" v "+serial[i].Name, ss.V[i], ps.V[i])
				}
			}
			for round := 1; round <= 3; round++ {
				step(round)
			}
			st := so.ExportState(serial)
			so, po = NewAdam(1e-2, clip), NewAdam(1e-2, clip)
			if err := so.RestoreState(serial, st); err != nil {
				t.Fatal(err)
			}
			if err := po.RestoreState(sharded, st); err != nil {
				t.Fatal(err)
			}
			for round := 4; round <= 5; round++ {
				step(round)
			}
		}
	}
}
