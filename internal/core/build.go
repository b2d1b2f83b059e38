package core

import (
	"fmt"

	"deepsketch/internal/db"
	"deepsketch/internal/featurize"
	"deepsketch/internal/mscn"
	"deepsketch/internal/sample"
	"deepsketch/internal/trainmon"
	"deepsketch/internal/workload"
)

// TrainingData is the output of the data half of the creation pipeline
// (steps 1–4a of Figure 1a): materialized samples, the fitted encoder, and
// labeled training examples that the trainer featurizes through them as it
// packs each minibatch (Examples). Sweep experiments (training-set size,
// epoch counts, ablations) prepare data once and train many models on it.
type TrainingData struct {
	Cfg      Config
	Encoder  *featurize.Encoder
	Samples  *sample.Set
	Examples []mscn.Example
	Labeled  []workload.LabeledQuery
	DBName   string
}

// PrepareTrainingData runs steps 1–4a: validate, generate uniform training
// queries, execute them against the database (true cardinalities, in
// parallel), materialize fresh samples, then fit the encoder and the label
// normalization. The queries' bitmaps and feature rows are computed in
// training, per minibatch.
func PrepareTrainingData(d *db.DB, cfg Config, mon *trainmon.Monitor) (*TrainingData, error) {
	// Step 1: define — validate the table set and parameters.
	mon.StartStage(trainmon.StageDefine, "validating configuration")
	cfg = cfg.withDefaults(d)
	if err := validateConfig(d, cfg); err != nil {
		return nil, err
	}
	mon.EndStage(trainmon.StageDefine)

	// Step 2: generate uniformly distributed training queries.
	mon.StartStage(trainmon.StageGenerate, fmt.Sprintf("generating %d training queries", cfg.TrainQueries))
	gen, err := workload.NewGenerator(d, workload.GenConfig{
		Seed: cfg.Seed, Count: cfg.TrainQueries, Tables: cfg.Tables,
		MaxJoins: cfg.MaxJoins, MaxPreds: cfg.MaxPreds, Dedup: true,
	})
	if err != nil {
		return nil, err
	}
	queries := gen.Generate()
	if len(queries) < 10 {
		return nil, fmt.Errorf("core: generated only %d distinct queries", len(queries))
	}
	mon.Progress(trainmon.StageGenerate, len(queries), len(queries))
	mon.EndStage(trainmon.StageGenerate)

	// Step 3: execute — obtain true cardinalities in parallel (the demo's
	// "multiple HyPer instances"), one worker per GOMAXPROCS.
	mon.StartStage(trainmon.StageExecute, "executing training queries and materializing samples")
	total := len(queries)
	labeled, err := workload.Label(d, queries, 0, func(done int) {
		if done%256 == 0 || done == total {
			mon.Progress(trainmon.StageExecute, done, total)
		}
	})
	if err != nil {
		return nil, err
	}
	return prepareFromLabeled(d, cfg, labeled, mon)
}

// PrepareTrainingDataFromWorkload runs the pipeline with a pre-labeled
// workload (e.g. loaded from an artifact-format file), skipping query
// generation and execution — the demo's separation between the expensive
// label collection and (repeatable) training.
func PrepareTrainingDataFromWorkload(d *db.DB, cfg Config, labeled []workload.LabeledQuery, mon *trainmon.Monitor) (*TrainingData, error) {
	mon.StartStage(trainmon.StageDefine, "validating configuration")
	cfg = cfg.withDefaults(d)
	cfg.TrainQueries = len(labeled)
	if err := validateConfig(d, cfg); err != nil {
		return nil, err
	}
	for i, lq := range labeled {
		if err := d.ValidateQuery(lq.Query); err != nil {
			return nil, fmt.Errorf("core: workload query %d: %w", i, err)
		}
	}
	mon.EndStage(trainmon.StageDefine)
	mon.StartStage(trainmon.StageExecute, "materializing samples")
	return prepareFromLabeled(d, cfg, labeled, mon)
}

func validateConfig(d *db.DB, cfg Config) error {
	for _, t := range cfg.Tables {
		if d.Table(t) == nil {
			return fmt.Errorf("core: unknown table %s", t)
		}
	}
	if cfg.SampleSize < 1 {
		return fmt.Errorf("core: sample size must be >= 1, got %d", cfg.SampleSize)
	}
	if cfg.TrainQueries < 10 {
		return fmt.Errorf("core: need at least 10 training queries, got %d", cfg.TrainQueries)
	}
	return nil
}

// prepareFromLabeled finishes step 3 (materialized samples) and runs step
// 4a (encoder and label normalization) for an already-labeled workload. The
// execute stage must already be started on mon.
func prepareFromLabeled(d *db.DB, cfg Config, labeled []workload.LabeledQuery, mon *trainmon.Monitor) (*TrainingData, error) {
	samples, err := sample.New(d, cfg.Tables, cfg.SampleSize, cfg.Seed)
	if err != nil {
		return nil, err
	}
	mon.EndStage(trainmon.StageExecute)

	// Step 4a: fit the featurization. Each query's bitmaps and feature rows
	// are computed when training packs its minibatch, the way an estimate
	// computes them.
	mon.StartStage(trainmon.StageFeaturize, "fitting encoder and label normalization")
	enc, err := featurize.NewEncoder(d, cfg.Tables, cfg.SampleSize)
	if err != nil {
		return nil, err
	}
	cards := make([]int64, len(labeled))
	for i, lq := range labeled {
		cards[i] = lq.Card
	}
	enc.FitLabels(cards)
	mon.EndStage(trainmon.StageFeaturize)

	return &TrainingData{
		Cfg: cfg, Encoder: enc, Samples: samples,
		Examples: Examples(enc, samples, labeled), Labeled: labeled, DBName: d.Name,
	}, nil
}

// BuildFromData runs step 4b (training) on prepared data and assembles the
// sketch. Training featurizes each minibatch as it packs it, so this stage
// also computes every example's bitmaps and feature rows, once per epoch.
func BuildFromData(td *TrainingData, mon *trainmon.Monitor) (*Sketch, error) {
	mon.StartStage(trainmon.StageTrain, "featurizing and training MSCN")
	cfg := td.Cfg
	modelCfg := cfg.Model
	if modelCfg.Seed == 0 {
		modelCfg.Seed = cfg.Seed
	}
	enc := td.Encoder
	model := mscn.New(modelCfg, enc.TableDim(), enc.JoinDim(), enc.PredDim())
	// Data-parallel training shards across GOMAXPROCS; the sketch is the
	// same at every width.
	stats, err := model.TrainWithOptions(td.Examples, enc.Norm, mon, mscn.TrainOptions{})
	if err != nil {
		return nil, err
	}
	mon.EndStage(trainmon.StageTrain)

	return &Sketch{
		Cfg:     cfg,
		Encoder: enc,
		Model:   model,
		Samples: td.Samples,
		Epochs:  stats,
		DBName:  td.DBName,
	}, nil
}

// Build creates a Deep Sketch from a database, executing the four-step
// pipeline of Figure 1a. mon (optional) receives stage, progress, and
// per-epoch events, which is what the demo UI renders while users "monitor
// the training progress". Stage times live only there; the sketch holds no
// clock reading (see the file format in serialize.go).
func Build(d *db.DB, cfg Config, mon *trainmon.Monitor) (*Sketch, error) {
	td, err := PrepareTrainingData(d, cfg, mon)
	if err != nil {
		return nil, err
	}
	return BuildFromData(td, mon)
}

// BuildWithWorkload creates a sketch from a pre-labeled workload instead of
// generating and executing queries.
func BuildWithWorkload(d *db.DB, cfg Config, labeled []workload.LabeledQuery, mon *trainmon.Monitor) (*Sketch, error) {
	td, err := PrepareTrainingDataFromWorkload(d, cfg, labeled, mon)
	if err != nil {
		return nil, err
	}
	return BuildFromData(td, mon)
}
