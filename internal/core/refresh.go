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
}

// Refresh warm-start retrains a sketch on a drift-delta workload and
// returns the refreshed sketch, leaving the receiver untouched — the caller
// (typically a lifecycle.Registry) swaps the result in under traffic.
//
// The delta workload is featurized with the sketch's existing encoder and
// embedded samples, through the path its estimates take (Examples):
// vocabulary, feature widths and label normalization stay fixed, so the
// fine-tuned model remains drop-in compatible with the serving path.
// Training resumes from the sketch's captured Adam state (moments + step
// count); a sketch loaded from a v1 file has none, and fine-tunes from warm
// weights with a cold optimizer instead. Either way a delta workload
// reaches the old validation quality in a fraction of a full build's
// epochs. The fine-tune shards across GOMAXPROCS workers, and each of its
// steps across one fewer while the process serves requests (a daemon's
// refresh beside its traffic, see mscn.TrainOptions.Parallelism); the
// refreshed sketch is the same at every width.
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

	// The encoder is the sketch's, already fitted: the featurize stage only
	// pairs each delta query with its label. Bitmaps and feature rows are
	// computed per minibatch in the train stage.
	mon.StartStage(trainmon.StageFeaturize, fmt.Sprintf("referencing %d delta queries", len(labeled)))
	examples := Examples(s.Encoder, s.Samples, labeled)
	mon.EndStage(trainmon.StageFeaturize)

	if err := ctx.Err(); err != nil {
		return nil, err
	}

	ns := s.Clone()
	mon.StartStage(trainmon.StageTrain, "featurizing and fine-tuning MSCN (warm start)")
	stats, err := ns.Model.TrainWithOptions(examples, ns.Encoder.Norm, mon, mscn.TrainOptions{
		Resume:     ns.Model.OptState(),
		Epochs:     opts.Epochs,
		StopAtValQ: opts.StopAtValQ,
	})
	if err != nil {
		return nil, err
	}
	mon.EndStage(trainmon.StageTrain)
	ns.Epochs = append(ns.Epochs, stats...)
	return ns, nil
}
