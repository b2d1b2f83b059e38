package mscn

import "fmt"

// Precision selects the numeric format of the inference engine's forward
// pass. Training is always float64 — Adam moments and gradient reduction
// stay f64 so a fixed (seed, parallelism) pair reproduces bitwise-identical
// weights regardless of the serving precision.
type Precision uint32

const (
	// F64 is the full-precision reference path (default).
	F64 Precision = iota
	// F32 runs the packed forward in float32 from a converted weight
	// snapshot: half the weight memory traffic, gated on <1% per-query
	// q-error deviation by the equivalence tests.
	F32
)

// String returns the engine-tag spelling used by flags and API responses.
func (p Precision) String() string {
	switch p {
	case F32:
		return "f32"
	default:
		return "f64"
	}
}

// ParsePrecision parses the -engine flag spelling.
func ParsePrecision(s string) (Precision, error) {
	switch s {
	case "f64", "":
		return F64, nil
	case "f32":
		return F32, nil
	default:
		return F64, fmt.Errorf("mscn: unknown engine precision %q (want f64 or f32)", s)
	}
}
