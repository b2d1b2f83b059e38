package nn

import (
	"fmt"
	"math"
)

// Adam implements the Adam optimizer (Kingma & Ba) with optional global-norm
// gradient clipping — the paper trains MSCN with Adam at the PyTorch default
// learning rate.
type Adam struct {
	LR       float64
	Beta1    float64
	Beta2    float64
	Eps      float64
	ClipNorm float64 // <= 0 disables clipping

	t int
	m map[*Param][]float64
	v map[*Param][]float64

	// The step BeginStep began: the clip scale (1 when clipping is off or
	// idle), the bias corrections and the parameters' element count.
	scale, bc1, bc2 float64
	size            int
}

// NewAdam constructs an Adam optimizer with standard defaults
// (β1=0.9, β2=0.999, ε=1e-8).
func NewAdam(lr, clipNorm float64) *Adam {
	return &Adam{
		LR: lr, Beta1: 0.9, Beta2: 0.999, Eps: 1e-8, ClipNorm: clipNorm,
		m: make(map[*Param][]float64), v: make(map[*Param][]float64),
	}
}

// GlobalGradNorm returns the L2 norm of all gradients combined.
func GlobalGradNorm(params []*Param) float64 {
	var ss float64
	for _, p := range params {
		for _, g := range p.Grad {
			ss += float64(g * g)
		}
	}
	return math.Sqrt(ss)
}

// OptState is the serializable optimizer state of an Adam run: the step
// count and the first/second moment estimates, stored parallel to the
// parameter list the optimizer was stepped with (the Params() serialization
// contract fixes that order). Exporting it after training and restoring it
// before a warm-start fine-tune resumes optimization where it left off —
// the moments carry the per-parameter learning-rate adaptation, so a small
// drift-delta workload converges in a fraction of full-build epochs.
type OptState struct {
	Step int
	M    [][]float64
	V    [][]float64
}

// Clone deep-copies the state; a nil receiver clones to nil.
func (st *OptState) Clone() *OptState {
	if st == nil {
		return nil
	}
	c := &OptState{Step: st.Step, M: make([][]float64, len(st.M)), V: make([][]float64, len(st.V))}
	for i, m := range st.M {
		c.M[i] = append([]float64(nil), m...)
	}
	for i, v := range st.V {
		c.V[i] = append([]float64(nil), v...)
	}
	return c
}

// ExportState copies the optimizer's moments for params (in order) into a
// fresh OptState. Parameters the optimizer has not stepped yet export zero
// moments, matching what Step would have lazily allocated.
func (a *Adam) ExportState(params []*Param) *OptState {
	st := &OptState{Step: a.t, M: make([][]float64, len(params)), V: make([][]float64, len(params))}
	for i, p := range params {
		st.M[i] = make([]float64, len(p.Data))
		st.V[i] = make([]float64, len(p.Data))
		if m, ok := a.m[p]; ok {
			copy(st.M[i], m)
		}
		if v, ok := a.v[p]; ok {
			copy(st.V[i], v)
		}
	}
	return st
}

// RestoreState loads a previously exported state for params (in the same
// order), copying the moments so the caller's OptState stays untouched by
// subsequent steps. The state must match the parameter list element-for-
// element.
func (a *Adam) RestoreState(params []*Param, st *OptState) error {
	if len(st.M) != len(params) || len(st.V) != len(params) {
		return fmt.Errorf("nn: optimizer state has %d/%d moment vectors, architecture expects %d",
			len(st.M), len(st.V), len(params))
	}
	for i, p := range params {
		if len(st.M[i]) != len(p.Data) || len(st.V[i]) != len(p.Data) {
			return fmt.Errorf("nn: optimizer state for %s has %d/%d elements, architecture expects %d",
				p.Name, len(st.M[i]), len(st.V[i]), len(p.Data))
		}
	}
	a.t = st.Step
	a.m = make(map[*Param][]float64, len(params))
	a.v = make(map[*Param][]float64, len(params))
	for i, p := range params {
		a.m[p] = append([]float64(nil), st.M[i]...)
		a.v[p] = append([]float64(nil), st.V[i]...)
	}
	return nil
}

// Step applies one update to all parameters from their accumulated
// gradients, then zeroes the gradients: BeginStep, then the whole of
// StepShard as one shard.
func (a *Adam) Step(params []*Param) {
	a.BeginStep(params)
	a.StepShard(params, 0, 1)
}

// BeginStep is the serial half of a step on params: the clip scale from
// the global gradient norm (one sum in params order), the step count and
// bias corrections, and each moment vector not yet allocated. The
// element-wise half, StepShard, must then cover every shard before the next
// BeginStep.
func (a *Adam) BeginStep(params []*Param) {
	a.scale = 1
	if a.ClipNorm > 0 {
		if norm := GlobalGradNorm(params); norm > a.ClipNorm {
			a.scale = a.ClipNorm / (norm + 1e-12)
		}
	}
	a.t++
	a.bc1 = 1 - math.Pow(a.Beta1, float64(a.t))
	a.bc2 = 1 - math.Pow(a.Beta2, float64(a.t))
	a.size = 0
	for _, p := range params {
		if _, ok := a.m[p]; !ok {
			a.m[p] = make([]float64, len(p.Data))
		}
		if _, ok := a.v[p]; !ok {
			a.v[p] = make([]float64, len(p.Data))
		}
		a.size += len(p.Data)
	}
}

// StepShard applies the step BeginStep began to shard s of n: the elements
// s·N/n up to (s+1)·N/n of params' N elements taken end to end. Each element
// is clip-scaled, moves its two moments and its weight, and has its
// gradient zeroed, on its own, so the shards of one step may run
// concurrently and leave the bits one shard would. It allocates nothing.
func (a *Adam) StepShard(params []*Param, s, n int) {
	lo, hi := s*a.size/n, (s+1)*a.size/n
	b1, b2, bc1, bc2, scale := a.Beta1, a.Beta2, a.bc1, a.bc2, a.scale
	off := 0
	for _, p := range params {
		i0, i1 := max(lo-off, 0), min(hi-off, len(p.Data))
		off += len(p.Data)
		if i0 >= i1 {
			continue
		}
		m, v := a.m[p][i0:i1], a.v[p][i0:i1]
		data, grad := p.Data[i0:i1], p.Grad[i0:i1]
		for i, g := range grad {
			g *= scale
			m[i] = float64(b1*m[i]) + float64((1-b1)*g)
			v[i] = float64(b2*v[i]) + float64((1-b2)*g*g)
			mh := m[i] / bc1
			vh := v[i] / bc2
			data[i] -= a.LR * mh / (math.Sqrt(vh) + a.Eps)
		}
		clear(grad)
	}
}
