package trainmon

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
	"time"
)

func TestMonitorStagesAndSnapshot(t *testing.T) {
	m := New()
	// Deterministic clock.
	now := time.Unix(1000, 0)
	m.now = func() time.Time { now = now.Add(50 * time.Millisecond); return now }

	m.StartStage(StageGenerate, "generating")
	m.Progress(StageGenerate, 5, 10)
	m.EndStage(StageGenerate)
	m.StartStage(StageTrain, "")
	m.Epoch(1, 5.5, 40, 8, Steps{})
	m.Epoch(2, 3.0, 20, 4, Steps{})
	m.EndStage(StageTrain)

	evs := m.Events()
	if len(evs) != 7 {
		t.Fatalf("events = %d, want 7", len(evs))
	}
	snap := m.Snapshot()
	if !snap.Finished {
		t.Error("train stage ended; snapshot should be finished")
	}
	if snap.Epoch != 2 || snap.ValMeanQ != 20 || snap.ValMedQ != 4 {
		t.Errorf("snapshot epoch state wrong: %+v", snap)
	}
	if snap.StageTimes[StageGenerate] <= 0 {
		t.Errorf("generate stage time missing: %+v", snap.StageTimes)
	}
}

func TestMonitorNilSafe(t *testing.T) {
	var m *Monitor
	m.StartStage(StageTrain, "")
	m.EndStage(StageTrain)
	m.Epoch(1, 0, 0, 0, Steps{})
	m.Progress(StageTrain, 1, 2)
	if m.Events() != nil {
		t.Error("nil monitor should return nil events")
	}
}

func TestSinkReceivesEvents(t *testing.T) {
	m := New()
	var got []Event
	m.AddSink(func(e Event) { got = append(got, e) })
	m.Epoch(1, 1, 2, 3, Steps{})
	m.Progress(StageExecute, 3, 9)
	if len(got) != 2 {
		t.Fatalf("sink saw %d events", len(got))
	}
	if got[0].Kind != KindEpoch || got[1].Done != 3 {
		t.Errorf("sink payloads wrong: %+v", got)
	}
}

func TestJSONLSink(t *testing.T) {
	m := New()
	var buf bytes.Buffer
	m.AddSink(NewJSONLSink(&buf, nil))
	m.Epoch(3, 1.5, 12, 4, Steps{})
	line := strings.TrimSpace(buf.String())
	var e Event
	if err := json.Unmarshal([]byte(line), &e); err != nil {
		t.Fatalf("invalid JSONL: %v (%q)", err, line)
	}
	if e.Epoch != 3 || e.ValMeanQ != 12 {
		t.Errorf("round-tripped event wrong: %+v", e)
	}
}

func TestSparkline(t *testing.T) {
	s := Sparkline([]float64{1, 2, 3, 4, 8})
	if len([]rune(s)) != 5 {
		t.Errorf("sparkline length = %d", len([]rune(s)))
	}
	if Sparkline(nil) != "" {
		t.Error("empty sparkline should be empty")
	}
	flat := Sparkline([]float64{5, 5, 5})
	if len([]rune(flat)) != 3 {
		t.Error("flat sparkline length wrong")
	}
}

func TestFormatStageTimes(t *testing.T) {
	out := FormatStageTimes(map[Stage]int{StageTrain: 120, StageGenerate: 10})
	if !strings.Contains(out, "generate=10ms") || !strings.Contains(out, "train=120ms") {
		t.Errorf("FormatStageTimes = %q", out)
	}
	// Pipeline order: generate before train.
	if strings.Index(out, "generate") > strings.Index(out, "train") {
		t.Error("stages out of order")
	}
}

// TestRelayPassesEventsOn: a run's own monitor relays every event to a
// shared one, whose sinks see it with its stage times and step widths.
func TestRelayPassesEventsOn(t *testing.T) {
	shared, run := New(), New()
	var seen []Event
	shared.AddSink(func(e Event) { seen = append(seen, e) })
	run.AddSink(shared.Relay)
	run.AddSink((*Monitor)(nil).Relay)
	run.StartStage(StageTrain, "")
	run.Epoch(1, 1, 2, 3, Steps{Full: 2, Narrowed: 5})
	run.EndStage(StageTrain)
	if len(seen) != 3 || len(shared.Events()) != 3 {
		t.Fatalf("relayed %d events to the sink, %d recorded; want 3", len(seen), len(shared.Events()))
	}
	if got := seen[1].Steps; got != (Steps{Full: 2, Narrowed: 5}) {
		t.Errorf("relayed epoch steps %+v", got)
	}
	if !shared.Snapshot().Finished {
		t.Error("relayed train stage end should finish the shared snapshot")
	}
	blob, err := json.Marshal(seen[1])
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(blob), `"steps":{"full":2,"narrowed":5}`) {
		t.Errorf("epoch event JSON %s lacks its steps", blob)
	}
}
