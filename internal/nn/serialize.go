package nn

import (
	"encoding/binary"
	"fmt"
	"io"
	"math"
)

// WriteParams serializes parameters as little-endian float64 blocks, each
// prefixed by its element count, in slice order. The format carries no
// names: readers must present the same parameter list in the same order,
// which model constructors guarantee for a fixed architecture.
func WriteParams(w io.Writer, params []*Param) error {
	var buf [8]byte
	binary.LittleEndian.PutUint32(buf[:4], uint32(len(params)))
	if _, err := w.Write(buf[:4]); err != nil {
		return fmt.Errorf("nn: write param count: %w", err)
	}
	for _, p := range params {
		binary.LittleEndian.PutUint32(buf[:4], uint32(len(p.Data)))
		if _, err := w.Write(buf[:4]); err != nil {
			return fmt.Errorf("nn: write %s length: %w", p.Name, err)
		}
		for _, v := range p.Data {
			binary.LittleEndian.PutUint64(buf[:], math.Float64bits(v))
			if _, err := w.Write(buf[:]); err != nil {
				return fmt.Errorf("nn: write %s data: %w", p.Name, err)
			}
		}
	}
	return nil
}

// WriteOptState serializes an Adam optimizer state: the step count followed
// by per-parameter first/second moment blocks in parameter order. The format
// carries no names, like WriteParams: readers must know the architecture.
func WriteOptState(w io.Writer, st *OptState) error {
	var buf [8]byte
	binary.LittleEndian.PutUint64(buf[:], uint64(st.Step))
	if _, err := w.Write(buf[:]); err != nil {
		return fmt.Errorf("nn: write opt step: %w", err)
	}
	binary.LittleEndian.PutUint32(buf[:4], uint32(len(st.M)))
	if _, err := w.Write(buf[:4]); err != nil {
		return fmt.Errorf("nn: write opt param count: %w", err)
	}
	for i := range st.M {
		if len(st.V[i]) != len(st.M[i]) {
			return fmt.Errorf("nn: opt state param %d has %d m but %d v elements", i, len(st.M[i]), len(st.V[i]))
		}
		binary.LittleEndian.PutUint32(buf[:4], uint32(len(st.M[i])))
		if _, err := w.Write(buf[:4]); err != nil {
			return fmt.Errorf("nn: write opt block length: %w", err)
		}
		for _, block := range [2][]float64{st.M[i], st.V[i]} {
			for _, v := range block {
				binary.LittleEndian.PutUint64(buf[:], math.Float64bits(v))
				if _, err := w.Write(buf[:]); err != nil {
					return fmt.Errorf("nn: write opt moments: %w", err)
				}
			}
		}
	}
	return nil
}

// ReadOptState deserializes a state written by WriteOptState, enforcing —
// like ReadParams — that counts and block lengths match the target
// architecture exactly before anything is allocated, so a corrupt or
// hostile stream (sketch uploads are network-facing) cannot demand
// arbitrarily large buffers.
func ReadOptState(r io.Reader, params []*Param) (*OptState, error) {
	var buf [8]byte
	if _, err := io.ReadFull(r, buf[:]); err != nil {
		return nil, fmt.Errorf("nn: read opt step: %w", err)
	}
	st := &OptState{Step: int(binary.LittleEndian.Uint64(buf[:]))}
	if _, err := io.ReadFull(r, buf[:4]); err != nil {
		return nil, fmt.Errorf("nn: read opt param count: %w", err)
	}
	if n := binary.LittleEndian.Uint32(buf[:4]); int(n) != len(params) {
		return nil, fmt.Errorf("nn: serialized opt state has %d params, architecture expects %d", n, len(params))
	}
	st.M = make([][]float64, len(params))
	st.V = make([][]float64, len(params))
	for i, p := range params {
		if _, err := io.ReadFull(r, buf[:4]); err != nil {
			return nil, fmt.Errorf("nn: read opt block length: %w", err)
		}
		if l := binary.LittleEndian.Uint32(buf[:4]); int(l) != len(p.Data) {
			return nil, fmt.Errorf("nn: opt state for %s has %d elements, architecture expects %d", p.Name, l, len(p.Data))
		}
		st.M[i] = make([]float64, len(p.Data))
		st.V[i] = make([]float64, len(p.Data))
		for _, block := range [2][]float64{st.M[i], st.V[i]} {
			for j := range block {
				if _, err := io.ReadFull(r, buf[:]); err != nil {
					return nil, fmt.Errorf("nn: read opt moments: %w", err)
				}
				block[j] = math.Float64frombits(binary.LittleEndian.Uint64(buf[:]))
			}
		}
	}
	return st, nil
}

// ReadParams deserializes into an existing parameter list, enforcing that
// counts and lengths match the target architecture exactly and that every
// value is finite: the forward kernels equal the dense GEMM in every bit
// only for finite weights (Layer.Forward), so no model that can be loaded
// holds a NaN or an infinity.
func ReadParams(r io.Reader, params []*Param) error {
	var buf [8]byte
	if _, err := io.ReadFull(r, buf[:4]); err != nil {
		return fmt.Errorf("nn: read param count: %w", err)
	}
	if n := binary.LittleEndian.Uint32(buf[:4]); int(n) != len(params) {
		return fmt.Errorf("nn: serialized model has %d params, architecture expects %d", n, len(params))
	}
	for _, p := range params {
		if _, err := io.ReadFull(r, buf[:4]); err != nil {
			return fmt.Errorf("nn: read %s length: %w", p.Name, err)
		}
		if n := binary.LittleEndian.Uint32(buf[:4]); int(n) != len(p.Data) {
			return fmt.Errorf("nn: param %s has %d elements, architecture expects %d", p.Name, n, len(p.Data))
		}
		for i := range p.Data {
			if _, err := io.ReadFull(r, buf[:]); err != nil {
				return fmt.Errorf("nn: read %s data: %w", p.Name, err)
			}
			v := math.Float64frombits(binary.LittleEndian.Uint64(buf[:]))
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return fmt.Errorf("nn: param %s[%d] is %v, want a finite value", p.Name, i, v)
			}
			p.Data[i] = v
		}
	}
	return nil
}
