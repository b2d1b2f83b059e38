package mscn

import (
	"fmt"

	"deepsketch/internal/featurize"
	"deepsketch/internal/nn"
)

// The padded, masked, tape-based MSCN: the dense reference the packed
// engine and the packed trainer are tested against (packed-equivalence,
// TestPackedTrainingMatchesPaddedReference). It runs nn's padded kernels
// (ForwardInto, BackwardInto, MaskedAvgPool*) and is compiled into no
// binary.

// Batch is a padded, masked mini-batch of featurized queries — the
// reference representation for the packed-equivalence tests; production
// training and serving both run on PackedBatch.
type Batch struct {
	B                int
	MaxT, MaxJ, MaxP int
	TX, JX, PX       nn.Matrix
	TMask            []float64
	JMask            []float64
	PMask            []float64
	// Y holds normalized labels; nil for inference batches.
	Y []float64
}

// BuildBatch packs featurized queries into padded set tensors. ys may be
// nil. All Encoded values must come from the same encoder (equal widths).
func BuildBatch(encs []featurize.Encoded, ys []float64, tdim, jdim, pdim int) (*Batch, error) {
	b := &Batch{}
	if err := b.build(encs, ys, tdim, jdim, pdim); err != nil {
		return nil, err
	}
	return b, nil
}

// build (re)fills b from encs, reusing buffers from a previous build when
// their capacity suffices — the training loop's allocation saver.
func (b *Batch) build(encs []featurize.Encoded, ys []float64, tdim, jdim, pdim int) error {
	if len(encs) == 0 {
		return fmt.Errorf("mscn: empty batch")
	}
	if ys != nil && len(ys) != len(encs) {
		return fmt.Errorf("mscn: %d labels for %d queries", len(ys), len(encs))
	}
	b.B, b.MaxT, b.MaxJ, b.MaxP = len(encs), 1, 1, 1
	for _, e := range encs {
		if len(e.TableVecs) > b.MaxT {
			b.MaxT = len(e.TableVecs)
		}
		if len(e.JoinVecs) > b.MaxJ {
			b.MaxJ = len(e.JoinVecs)
		}
		if len(e.PredVecs) > b.MaxP {
			b.MaxP = len(e.PredVecs)
		}
	}
	b.TX.Reshape(b.B*b.MaxT, tdim)
	b.TX.Zero()
	b.JX.Reshape(b.B*b.MaxJ, jdim)
	b.JX.Zero()
	b.PX.Reshape(b.B*b.MaxP, pdim)
	b.PX.Zero()
	b.TMask = ensureZeroed(b.TMask, b.B*b.MaxT)
	b.JMask = ensureZeroed(b.JMask, b.B*b.MaxJ)
	b.PMask = ensureZeroed(b.PMask, b.B*b.MaxP)
	fill := func(x nn.Matrix, mask []float64, vecs [][]float64, bi, s, dim int) error {
		for i, v := range vecs {
			if len(v) != dim {
				return fmt.Errorf("mscn: element width %d, model expects %d", len(v), dim)
			}
			copy(x.Row(bi*s+i), v)
			mask[bi*s+i] = 1
		}
		return nil
	}
	for i, e := range encs {
		if err := fill(b.TX, b.TMask, e.TableVecs, i, b.MaxT, tdim); err != nil {
			return err
		}
		if err := fill(b.JX, b.JMask, e.JoinVecs, i, b.MaxJ, jdim); err != nil {
			return err
		}
		if err := fill(b.PX, b.PMask, e.PredVecs, i, b.MaxP, pdim); err != nil {
			return err
		}
	}
	if ys != nil {
		b.Y = append(b.Y[:0], ys...)
	} else {
		b.Y = nil
	}
	return nil
}

// ensureZeroed returns a zeroed length-n slice, reusing s's backing array
// when possible.
func ensureZeroed(s []float64, n int) []float64 {
	if cap(s) < n {
		return make([]float64, n)
	}
	s = s[:n]
	for i := range s {
		s[i] = 0
	}
	return s
}

// tape stores forward intermediates for backprop, plus the backward scratch.
// A tape is reusable across mini-batches: forward/backward Reshape every
// matrix to the batch at hand, so steady-state training allocates nothing
// per step beyond what shape growth demands.
type tape struct {
	b *Batch
	// per set module: hidden activations a1, a2 (post-ReLU) and pooled
	tA1, tA2, tPool nn.Matrix
	jA1, jA2, jPool nn.Matrix
	pA1, pA2, pPool nn.Matrix
	concat          nn.Matrix
	oA1             nn.Matrix
	out             nn.Matrix // sigmoid output, B×1
	preds           []float64
	// backward scratch, reused across set modules
	dOut, dOA1, dConcat nn.Matrix
	dPool, dA2, dA1     nn.Matrix
}

// setForwardInto runs one set module — two shared-parameter linear+ReLU
// layers per element followed by masked average pooling — into reusable
// tape matrices.
func setForwardInto(l1, l2 *nn.Linear, x nn.Matrix, mask []float64, b, s, h int, a1, a2, pool *nn.Matrix) {
	a1.Reshape(x.Rows, h)
	l1.ForwardInto(x, *a1, true)
	a2.Reshape(x.Rows, h)
	l2.ForwardInto(*a1, *a2, true)
	pool.Reshape(b, h)
	nn.MaskedAvgPoolInto(*a2, mask, b, s, *pool)
}

// setBackward backpropagates through one set module, accumulating parameter
// gradients in-place on the tape's shared scratch. The input gradient of the
// first layer is never computed — features need no gradients.
func setBackward(l1, l2 *nn.Linear, x, a1, a2 nn.Matrix, mask []float64, dPool nn.Matrix, b, s int, tp *tape) {
	tp.dA2.Reshape(b*s, dPool.Cols)
	nn.MaskedAvgPoolBackwardInto(dPool, mask, b, s, tp.dA2)
	nn.ReLUBackwardInPlace(a2, tp.dA2)
	tp.dA1.Reshape(b*s, a1.Cols)
	l2.BackwardInto(a1, tp.dA2, &tp.dA1)
	nn.ReLUBackwardInPlace(a1, tp.dA1)
	l1.BackwardInto(x, tp.dA1, nil)
}

// Forward computes normalized predictions in (0,1) for a padded batch —
// the reference padded implementation, used by the packed-equivalence tests
// and anyone needing predictions without the engine. The serving path is
// Engine.Forward (packed, tape-free, allocation-free); this path runs the
// training kernels on a throwaway tape, so the returned slice is freshly
// owned by the caller.
func (m *Model) Forward(b *Batch) []float64 {
	var tp tape
	return m.forward(b, &tp)
}

// forward runs the training forward pass, recording intermediates on tp
// (whose buffers it reuses across calls). The returned predictions alias
// tp and are valid until the next forward on the same tape.
func (m *Model) forward(b *Batch, tp *tape) []float64 {
	h := m.Cfg.HiddenUnits
	tp.b = b
	setForwardInto(m.table1, m.table2, b.TX, b.TMask, b.B, b.MaxT, h, &tp.tA1, &tp.tA2, &tp.tPool)
	setForwardInto(m.join1, m.join2, b.JX, b.JMask, b.B, b.MaxJ, h, &tp.jA1, &tp.jA2, &tp.jPool)
	setForwardInto(m.pred1, m.pred2, b.PX, b.PMask, b.B, b.MaxP, h, &tp.pA1, &tp.pA2, &tp.pPool)
	tp.concat.Reshape(b.B, 3*h)
	for bi := 0; bi < b.B; bi++ {
		dst := tp.concat.Row(bi)
		copy(dst[:h], tp.tPool.Row(bi))
		copy(dst[h:2*h], tp.jPool.Row(bi))
		copy(dst[2*h:], tp.pPool.Row(bi))
	}
	tp.oA1.Reshape(b.B, h)
	m.out1.ForwardInto(tp.concat, tp.oA1, true)
	tp.out.Reshape(b.B, 1)
	m.out2.ForwardInto(tp.oA1, tp.out, false)
	nn.SigmoidInPlace(tp.out)
	if cap(tp.preds) < b.B {
		tp.preds = make([]float64, b.B)
	}
	tp.preds = tp.preds[:b.B]
	copy(tp.preds, tp.out.Data)
	return tp.preds
}

func (m *Model) backward(tp *tape, dPreds []float64) {
	b := tp.b
	h := m.Cfg.HiddenUnits
	tp.dOut.Reshape(b.B, 1)
	copy(tp.dOut.Data, dPreds)
	nn.SigmoidBackwardInPlace(tp.out, tp.dOut)
	tp.dOA1.Reshape(b.B, h)
	m.out2.BackwardInto(tp.oA1, tp.dOut, &tp.dOA1)
	nn.ReLUBackwardInPlace(tp.oA1, tp.dOA1)
	tp.dConcat.Reshape(b.B, 3*h)
	m.out1.BackwardInto(tp.concat, tp.dOA1, &tp.dConcat)
	for mod := 0; mod < 3; mod++ {
		tp.dPool.Reshape(b.B, h)
		off := mod * h
		for bi := 0; bi < b.B; bi++ {
			copy(tp.dPool.Row(bi), tp.dConcat.Row(bi)[off:off+h])
		}
		switch mod {
		case 0:
			setBackward(m.table1, m.table2, b.TX, tp.tA1, tp.tA2, b.TMask, tp.dPool, b.B, b.MaxT, tp)
		case 1:
			setBackward(m.join1, m.join2, b.JX, tp.jA1, tp.jA2, b.JMask, tp.dPool, b.B, b.MaxJ, tp)
		case 2:
			setBackward(m.pred1, m.pred2, b.PX, tp.pA1, tp.pA2, b.PMask, tp.dPool, b.B, b.MaxP, tp)
		}
	}
}
