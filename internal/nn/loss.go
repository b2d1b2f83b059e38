package nn

import "math"

// LossKind selects the training objective.
type LossKind int

const (
	// LossQError is the paper's objective: the mean q-error between the
	// unnormalized estimated and true cardinalities ("we train our model
	// with the objective of minimizing the mean q-error").
	LossQError LossKind = iota
	// LossL1Log is mean absolute error in log-cardinality space, i.e. the
	// mean of log(q-error) — a smoother alternative used for ablations.
	LossL1Log
)

func (k LossKind) String() string {
	switch k {
	case LossQError:
		return "qerror"
	case LossL1Log:
		return "l1log"
	default:
		return "unknown"
	}
}

// LabelNorm maps cardinalities to the network's (0,1) output range and back.
// Following the paper, labels are logarithmized and normalized with the
// extrema present in the training data: y = (ln(card) − MinLog) /
// (MaxLog − MinLog).
type LabelNorm struct {
	MinLog float64
	MaxLog float64
}

// NewLabelNorm derives normalization bounds from training cardinalities.
// Cardinalities are clamped to ≥ 1 before the log. A degenerate range (all
// labels equal) widens by 1 so the inverse stays defined.
func NewLabelNorm(cards []int64) LabelNorm {
	ln := LabelNorm{MinLog: math.Inf(1), MaxLog: math.Inf(-1)}
	for _, c := range cards {
		l := logCard(c)
		if l < ln.MinLog {
			ln.MinLog = l
		}
		if l > ln.MaxLog {
			ln.MaxLog = l
		}
	}
	if len(cards) == 0 {
		ln.MinLog, ln.MaxLog = 0, 1
	}
	if ln.MaxLog <= ln.MinLog {
		ln.MaxLog = ln.MinLog + 1
	}
	return ln
}

func logCard(c int64) float64 {
	if c < 1 {
		c = 1
	}
	return math.Log(float64(c))
}

// Scale is MaxLog − MinLog.
func (n LabelNorm) Scale() float64 { return n.MaxLog - n.MinLog }

// Normalize maps a cardinality to (0,1).
func (n LabelNorm) Normalize(card int64) float64 {
	return (logCard(card) - n.MinLog) / n.Scale()
}

// Denormalize maps a network output back to a cardinality (≥ 1).
func (n LabelNorm) Denormalize(y float64) float64 {
	card := math.Exp(n.MinLog + y*n.Scale())
	if card < 1 {
		return 1
	}
	return card
}

// QErrorOf computes the q-error implied by normalized prediction and target:
// exp(scale·|y−t|). Exact because q = max(p/t, t/p) = e^{|ln p − ln t|}.
func (n LabelNorm) QErrorOf(y, t float64) float64 {
	return math.Exp(n.Scale() * math.Abs(y-t))
}

// Loss computes the mean loss over normalized predictions/targets and the
// gradient d(loss)/d(pred). The q-error gradient grows with the q-error
// itself and is capped per-sample at gradCap (the optimizer additionally
// clips the global norm); gradCap <= 0 means no cap.
func Loss(kind LossKind, norm LabelNorm, preds, targets []float64, gradCap float64) (loss float64, grad []float64) {
	grad = make([]float64, len(preds))
	if len(preds) == 0 {
		if len(targets) != 0 {
			panic("nn: Loss length mismatch")
		}
		return 0, grad
	}
	invN := 1.0 / float64(len(preds))
	return LossSumInto(kind, norm, preds, targets, grad, gradCap, invN) * invN, grad
}

// LossSumInto computes per-sample loss gradients into grad (scaled by invN,
// the reciprocal of the full batch size) and returns the *sum* of per-sample
// losses, unscaled: the core of Loss, into the caller's buffer. The trainer
// runs it once per minibatch over the whole batch, so the sum takes one
// order at every parallelism. Per-sample gradients depend only on their own
// prediction, so it may also run on contiguous slices with the full-batch
// invN. No allocations.
func LossSumInto(kind LossKind, norm LabelNorm, preds, targets, grad []float64, gradCap, invN float64) float64 {
	if len(preds) != len(targets) || len(grad) != len(preds) {
		panic("nn: Loss length mismatch")
	}
	scale := norm.Scale()
	var loss float64
	for i, y := range preds {
		t := targets[i]
		diff := y - t
		sign := 1.0
		if diff < 0 {
			sign = -1
		}
		switch kind {
		case LossQError:
			q := math.Exp(scale * math.Abs(diff))
			loss += q
			g := sign * scale * q
			if gradCap > 0 {
				if g > gradCap {
					g = gradCap
				} else if g < -gradCap {
					g = -gradCap
				}
			}
			grad[i] = g * invN
		case LossL1Log:
			loss += scale * math.Abs(diff)
			grad[i] = sign * scale * invN
		}
	}
	return loss
}
