package core

import (
	"context"
	"fmt"

	"deepsketch/internal/mscn"
	"deepsketch/internal/trainmon"
	"deepsketch/internal/workload"
)

// Clone returns a deep copy of the sketch suitable for offline fine-tuning
// while the original keeps serving: the model (weights + optimizer state)
// is copied, the encoder and samples are shared — both are immutable after
// creation — and the training record is duplicated. The clone builds its
// own inference engine on first use.
func (s *Sketch) Clone() *Sketch {
	return &Sketch{
		Cfg:     s.Cfg,
		Encoder: s.Encoder,
		Model:   s.Model.Clone(),
		Samples: s.Samples,
		Epochs:  append([]mscn.EpochStats(nil), s.Epochs...),
		DBName:  s.DBName,
	}
}

// RefreshOptions tunes a warm-start refresh (see Refresh).
type RefreshOptions struct {
	// Epochs caps the fine-tune epoch budget; 0 uses the sketch's
	// configured (full-build) epoch count.
	Epochs int
	// StopAtValQ stops the fine-tune early once the validation mean
	// q-error reaches this value or better (0 disables) — "train until as
	// good as before" instead of a fixed budget.
	StopAtValQ float64
	// Workers bounds the data-parallel training shards; 0 uses the
	// sketch's configured worker count (which itself defaults to
	// GOMAXPROCS).
	Workers int
}

// Refresh warm-start retrains a sketch on a drift-delta workload and
// returns the refreshed sketch, leaving the receiver untouched — the caller
// (typically a lifecycle.Registry) swaps the result in under traffic.
//
// The delta workload is featurized with the sketch's existing encoder and
// embedded samples: vocabulary, feature widths and label normalization stay
// fixed, so the fine-tuned model remains drop-in compatible with the
// serving path. Training resumes from the sketch's captured Adam state
// (moments + step count); a sketch loaded from a v1 file has none, and
// fine-tunes from warm weights with a cold optimizer instead. Either way a
// delta workload reaches the old validation quality in a fraction of a
// full build's epochs.
//
// ctx is checked between the featurize and train stages; the fine-tune
// itself runs to completion once started.
func Refresh(ctx context.Context, s *Sketch, labeled []workload.LabeledQuery, opts RefreshOptions, mon *trainmon.Monitor) (*Sketch, error) {
	if len(labeled) == 0 {
		return nil, fmt.Errorf("core: refresh needs a non-empty delta workload")
	}
	schema := s.SchemaDB()
	for i, lq := range labeled {
		if err := schema.ValidateQuery(lq.Query); err != nil {
			return nil, fmt.Errorf("core: delta workload query %d: %w", i, err)
		}
	}

	mon.StartStage(trainmon.StageFeaturize, fmt.Sprintf("featurizing %d delta queries", len(labeled)))
	examples := make([]mscn.Example, len(labeled))
	for i, lq := range labeled {
		bms, err := s.Samples.Bitmaps(lq.Query)
		if err != nil {
			return nil, err
		}
		enc, err := s.Encoder.EncodeQuery(lq.Query, bms)
		if err != nil {
			return nil, err
		}
		examples[i] = mscn.Example{Enc: enc, Card: lq.Card}
	}
	mon.EndStage(trainmon.StageFeaturize)

	if err := ctx.Err(); err != nil {
		return nil, err
	}

	workers := opts.Workers
	if workers == 0 {
		workers = s.Cfg.Workers
	}
	ns := s.Clone()
	mon.StartStage(trainmon.StageTrain, "fine-tuning MSCN (warm start)")
	stats, err := ns.Model.TrainWithOptions(examples, ns.Encoder.Norm, mon, mscn.TrainOptions{
		Parallelism: workers,
		Resume:      ns.Model.OptState(),
		Epochs:      opts.Epochs,
		StopAtValQ:  opts.StopAtValQ,
	})
	if err != nil {
		return nil, err
	}
	mon.EndStage(trainmon.StageTrain)
	ns.Epochs = append(ns.Epochs, stats...)
	return ns, nil
}
