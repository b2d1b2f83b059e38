// Package trainmon records sketch-creation progress: the four pipeline
// stages of Figure 1a and per-epoch training metrics. It replaces the demo's
// TensorBoard integration with an embeddable event log that the CLI renders
// as text and the demo server exposes over JSON, so users can "monitor the
// training progress, including the execution of training queries and the
// training of the deep learning model".
package trainmon

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"strings"
	"sync"
	"time"
)

// Stage identifies one step of the sketch creation pipeline (Figure 1a).
type Stage string

const (
	StageDefine    Stage = "define"    // 1: table set + parameters
	StageGenerate  Stage = "generate"  // 2: generate training queries
	StageExecute   Stage = "execute"   // 3: execute against the DB, draw samples
	StageFeaturize Stage = "featurize" // 4a: fit the encoder and label normalization
	StageTrain     Stage = "train"     // 4b: featurize each minibatch, train the MSCN model
)

// Kind discriminates event payloads.
type Kind string

const (
	KindStageStart Kind = "stage_start"
	KindStageEnd   Kind = "stage_end"
	KindProgress   Kind = "progress"
	KindTrainStart Kind = "train_start"
	KindEpoch      Kind = "epoch"
)

// Event is one monitoring record.
type Event struct {
	Time  time.Time `json:"time"`
	Kind  Kind      `json:"kind"`
	Stage Stage     `json:"stage"`
	// Done/Total carry progress within a stage (queries executed, ...).
	Done  int `json:"done,omitempty"`
	Total int `json:"total,omitempty"`
	// Epoch metrics (KindEpoch).
	Epoch     int     `json:"epoch,omitempty"`
	TrainLoss float64 `json:"train_loss,omitempty"`
	ValMeanQ  float64 `json:"val_mean_q,omitempty"`
	ValMedQ   float64 `json:"val_median_q,omitempty"`
	// Steps counts the epoch's training steps by the width they ran at
	// (KindEpoch).
	Steps Steps `json:"steps,omitzero"`
	// Workers is the data-parallel training worker count, the width of a
	// full step (KindTrainStart).
	Workers int `json:"workers,omitempty"`
	// Elapsed is the stage duration, set on KindStageEnd.
	Elapsed time.Duration `json:"elapsed,omitempty"`
	Msg     string        `json:"msg,omitempty"`
}

// Steps counts one epoch's training steps by the width they ran at: Full at
// the run's worker count (its train_start event's Workers), Narrowed at one
// fewer, never below one, which a step takes when the process served
// requests while it began (a daemon training beside its traffic).
type Steps struct {
	Full     int `json:"full"`
	Narrowed int `json:"narrowed"`
}

// Monitor is a concurrency-safe event recorder with optional sinks. A nil
// *Monitor records nothing, so every pipeline step accepts one.
type Monitor struct {
	mu     sync.Mutex
	events []Event
	sinks  []func(Event)
	starts map[Stage]time.Time
	now    func() time.Time
}

// New returns an empty monitor.
func New() *Monitor {
	return &Monitor{starts: make(map[Stage]time.Time), now: time.Now}
}

// AddSink registers a callback invoked (synchronously, under no lock) for
// every event.
func (m *Monitor) AddSink(s func(Event)) {
	m.mu.Lock()
	m.sinks = append(m.sinks, s)
	m.mu.Unlock()
}

func (m *Monitor) emit(e Event) {
	if m == nil {
		return
	}
	m.mu.Lock()
	e.Time = m.now()
	m.events = append(m.events, e)
	sinks := make([]func(Event), len(m.sinks))
	copy(sinks, m.sinks)
	m.mu.Unlock()
	for _, s := range sinks {
		s(e)
	}
}

// StartStage records the beginning of a pipeline stage.
func (m *Monitor) StartStage(s Stage, msg string) {
	if m == nil {
		return
	}
	m.mu.Lock()
	m.starts[s] = m.now()
	m.mu.Unlock()
	m.emit(Event{Kind: KindStageStart, Stage: s, Msg: msg})
}

// EndStage records the end of a pipeline stage with its duration.
func (m *Monitor) EndStage(s Stage) {
	if m == nil {
		return
	}
	m.mu.Lock()
	start, ok := m.starts[s]
	m.mu.Unlock()
	var el time.Duration
	if ok {
		el = m.now().Sub(start)
	}
	m.emit(Event{Kind: KindStageEnd, Stage: s, Elapsed: el})
}

// Progress records done/total progress inside a stage.
func (m *Monitor) Progress(s Stage, done, total int) {
	m.emit(Event{Kind: KindProgress, Stage: s, Done: done, Total: total})
}

// TrainStart records the training execution shape: the number of
// data-parallel workers a full step takes and the train/validation split
// sizes.
func (m *Monitor) TrainStart(workers, train, val int) {
	m.emit(Event{Kind: KindTrainStart, Stage: StageTrain, Workers: workers,
		Total: train + val,
		Msg:   fmt.Sprintf("training on %d examples (%d held out) with %d workers", train, val, workers)})
}

// Epoch records per-epoch training metrics and the widths its steps ran at.
func (m *Monitor) Epoch(epoch int, trainLoss, valMeanQ, valMedQ float64, steps Steps) {
	m.emit(Event{Kind: KindEpoch, Stage: StageTrain, Epoch: epoch,
		TrainLoss: trainLoss, ValMeanQ: valMeanQ, ValMedQ: valMedQ, Steps: steps})
}

// Relay records e, an event another monitor emitted, as if m had emitted
// it: m's sinks see it, and its stage and elapsed time are kept. A nil m
// records nothing. As a sink it passes one run's events on to a monitor
// that outlives the run.
func (m *Monitor) Relay(e Event) { m.emit(e) }

// Events returns a copy of all recorded events.
func (m *Monitor) Events() []Event {
	if m == nil {
		return nil
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make([]Event, len(m.events))
	copy(out, m.events)
	return out
}

// Snapshot summarizes current progress for polling clients (the demo UI).
type Snapshot struct {
	Stage      Stage         `json:"stage"`
	Done       int           `json:"done"`
	Total      int           `json:"total"`
	Epoch      int           `json:"epoch"`
	ValMeanQ   float64       `json:"val_mean_q"`
	ValMedQ    float64       `json:"val_median_q"`
	Workers    int           `json:"workers,omitempty"` // a full step's width
	StageTimes map[Stage]int `json:"stage_ms"`
	Finished   bool          `json:"finished"`
}

// Snapshot computes the latest state from the event log.
func (m *Monitor) Snapshot() Snapshot {
	snap := Snapshot{StageTimes: map[Stage]int{}}
	for _, e := range m.Events() {
		switch e.Kind {
		case KindStageStart:
			snap.Stage = e.Stage
			snap.Done, snap.Total = 0, 0
		case KindProgress:
			snap.Stage = e.Stage
			snap.Done, snap.Total = e.Done, e.Total
		case KindTrainStart:
			snap.Stage = StageTrain
			snap.Workers = e.Workers
		case KindEpoch:
			snap.Stage = StageTrain
			snap.Epoch = e.Epoch
			snap.ValMeanQ, snap.ValMedQ = e.ValMeanQ, e.ValMedQ
		case KindStageEnd:
			snap.StageTimes[e.Stage] = int(e.Elapsed / time.Millisecond)
			if e.Stage == StageTrain {
				snap.Finished = true
			}
		}
	}
	return snap
}

// NewJSONLSink returns a sink writing one JSON object per event line.
// Errors are reported through errf (which may be nil to ignore them).
func NewJSONLSink(w io.Writer, errf func(error)) func(Event) {
	enc := json.NewEncoder(w)
	return func(e Event) {
		if err := enc.Encode(e); err != nil && errf != nil {
			errf(err)
		}
	}
}

// Sparkline renders values as a unicode mini-chart, used by the CLI to show
// the validation q-error trajectory like TensorBoard's scalar charts.
func Sparkline(vals []float64) string {
	if len(vals) == 0 {
		return ""
	}
	ticks := []rune("▁▂▃▄▅▆▇█")
	lo, hi := math.Inf(1), math.Inf(-1)
	for _, v := range vals {
		if !math.IsNaN(v) && !math.IsInf(v, 0) {
			lo = math.Min(lo, v)
			hi = math.Max(hi, v)
		}
	}
	if math.IsInf(lo, 1) {
		return strings.Repeat("?", len(vals))
	}
	var b strings.Builder
	for _, v := range vals {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			b.WriteRune('?')
			continue
		}
		idx := 0
		if hi > lo {
			idx = int((v - lo) / (hi - lo) * float64(len(ticks)-1))
		}
		b.WriteRune(ticks[idx])
	}
	return b.String()
}

// FormatStageTimes renders stage durations in pipeline order.
func FormatStageTimes(times map[Stage]int) string {
	order := []Stage{StageDefine, StageGenerate, StageExecute, StageFeaturize, StageTrain}
	var parts []string
	for _, s := range order {
		if ms, ok := times[s]; ok {
			parts = append(parts, fmt.Sprintf("%s=%dms", s, ms))
		}
	}
	return strings.Join(parts, " ")
}
