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
			ss += g * g
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
// gradients, then zeroes the gradients.
func (a *Adam) Step(params []*Param) {
	if a.ClipNorm > 0 {
		norm := GlobalGradNorm(params)
		if norm > a.ClipNorm {
			scale := a.ClipNorm / (norm + 1e-12)
			for _, p := range params {
				for i := range p.Grad {
					p.Grad[i] *= scale
				}
			}
		}
	}
	a.t++
	bc1 := 1 - math.Pow(a.Beta1, float64(a.t))
	bc2 := 1 - math.Pow(a.Beta2, float64(a.t))
	for _, p := range params {
		m, ok := a.m[p]
		if !ok {
			m = make([]float64, len(p.Data))
			a.m[p] = m
		}
		v, ok := a.v[p]
		if !ok {
			v = make([]float64, len(p.Data))
			a.v[p] = v
		}
		for i, g := range p.Grad {
			m[i] = a.Beta1*m[i] + (1-a.Beta1)*g
			v[i] = a.Beta2*v[i] + (1-a.Beta2)*g*g
			mh := m[i] / bc1
			vh := v[i] / bc2
			p.Data[i] -= a.LR * mh / (math.Sqrt(vh) + a.Eps)
		}
		p.ZeroGrad()
	}
}
