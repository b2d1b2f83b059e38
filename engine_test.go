package deepsketch_test

import (
	"math"
	"testing"

	"deepsketch"
	"deepsketch/internal/metrics"
	"deepsketch/internal/workload"
)

// TestEngineF32QErrorGate is the reduced-precision equivalence gate on the
// JOB-light workload: for every query, the q-error of the f32 engine (its
// weights rounded to single precision) must deviate from the f64 reference
// q-error by less than 1%.
func TestEngineF32QErrorGate(t *testing.T) {
	d, s := fixture(t)
	qs, err := workload.JOBLight(d, 11)
	if err != nil {
		t.Fatal(err)
	}
	s32 := s.Clone()
	s32.SetEnginePrecision(deepsketch.EngineF32)
	differ := 0
	for i, q := range qs {
		truth, err := deepsketch.TrueCardinality(d, q)
		if err != nil {
			t.Fatal(err)
		}
		e64, err := s.Cardinality(q)
		if err != nil {
			t.Fatal(err)
		}
		e32, err := s32.Cardinality(q)
		if err != nil {
			t.Fatal(err)
		}
		if e32 != e64 {
			differ++
		}
		q64 := metrics.QError(e64, float64(truth))
		q32 := metrics.QError(e32, float64(truth))
		if dev := math.Abs(q32-q64) / q64; dev >= 0.01 {
			t.Errorf("query %d (%s): f32 q-error %.6g deviates %.3g%% from f64 q-error %.6g",
				i, q.SQL(d), q32, dev*100, q64)
		}
	}
	if differ == 0 {
		t.Fatal("the f32 clone estimates every query as the original does: Clone+SetEnginePrecision reached the original, or rounding changed nothing")
	}
}
