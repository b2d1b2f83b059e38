package drift

import (
	"context"
	"sync"
	"testing"
	"time"

	"deepsketch/internal/db"
)

// Tests for the logged-actuals seam: a monitor with no in-process ground
// truth parks sampled estimates pending, resolves them when actuals
// arrive out of band, and restores both halves from journal replay.

// memJournal records Journal calls for assertions.
type memJournal struct {
	mu       sync.Mutex
	pending  []string // signatures parked
	resolved []string // signatures resolved in-process
}

func (j *memJournal) Pending(name string, version int, q db.Query, estimate float64) {
	j.mu.Lock()
	defer j.mu.Unlock()
	j.pending = append(j.pending, q.Signature())
}

func (j *memJournal) Resolved(name string, version int, q db.Query, estimate, actual float64) {
	j.mu.Lock()
	defer j.mu.Unlock()
	j.resolved = append(j.resolved, q.Signature())
}

func TestMonitorNilTruthParksPending(t *testing.T) {
	j := &memJournal{}
	m := NewMonitor(Config{SampleEvery: 1, MinSamples: 4, Journal: j}, nil)
	for i := 0; i < 5; i++ {
		m.Observe("s", 1, probeQuery(i), 100)
	}
	m.Drain(context.Background())

	st := m.Status("s")
	if st.Pending != 5 {
		t.Fatalf("pending = %d, want 5", st.Pending)
	}
	if len(st.Versions) != 0 {
		t.Fatalf("windows populated without any actuals: %+v", st.Versions)
	}
	if len(j.pending) != 5 || len(j.resolved) != 0 {
		t.Fatalf("journal pending/resolved = %d/%d, want 5/0", len(j.pending), len(j.resolved))
	}
}

func TestResolveActualRecordsAndTriggers(t *testing.T) {
	var fired []Reason
	m := NewMonitor(Config{
		SampleEvery: 1, Window: 16, MinSamples: 4,
		MaxMedianQ: 2.0, Cooldown: time.Hour,
	}, nil)
	m.OnTrigger(func(name string, r Reason) bool { fired = append(fired, r); return true })

	for i := 0; i < 6; i++ {
		m.Observe("s", 1, probeQuery(i), 1000)
	}
	m.Drain(context.Background())

	// Resolve each parked estimate with an actual 10x below it.
	for i := 0; i < 6; i++ {
		ver, est, qerr, ok := m.ResolveActual("s", probeQuery(i).Signature(), 100)
		if !ok {
			t.Fatalf("actual %d unmatched", i)
		}
		if ver != 1 || est != 1000 || qerr != 10 {
			t.Fatalf("resolve %d = (v%d, est %g, q %g)", i, ver, est, qerr)
		}
	}
	if len(fired) != 1 {
		t.Fatalf("fired %d triggers, want exactly 1", len(fired))
	}
	if fired[0].Kind != "median" {
		t.Fatalf("trigger kind %q, want median", fired[0].Kind)
	}
	st := m.Status("s")
	if st.Pending != 0 {
		t.Fatalf("pending = %d after resolving all, want 0", st.Pending)
	}
	if st.Versions[0].Samples != 6 {
		t.Fatalf("version samples = %d, want 6", st.Versions[0].Samples)
	}
}

func TestResolveActualUnmatchedCounted(t *testing.T) {
	m := NewMonitor(Config{SampleEvery: 1}, nil)
	if _, _, _, ok := m.ResolveActual("s", "no-such-sig", 42); ok {
		t.Fatal("unmatched actual reported matched")
	}
	if st := m.Status("s"); st.Unmatched != 1 {
		t.Fatalf("unmatched = %d, want 1", st.Unmatched)
	}
}

func TestPendingEvictionAtCapacity(t *testing.T) {
	m := NewMonitor(Config{SampleEvery: 1, QueueSize: 4}, nil)
	for i := 0; i < 10; i++ {
		m.Observe("s", 1, probeQuery(i), 100)
		m.Drain(context.Background()) // queue capacity is also 4; drain as we go
	}
	st := m.Status("s")
	if st.Pending != 4 {
		t.Fatalf("pending = %d at QueueSize 4, want 4", st.Pending)
	}
	if st.Evicted != 6 {
		t.Fatalf("evicted = %d, want 6", st.Evicted)
	}
	// The oldest were evicted; only the newest four still match.
	if _, _, _, ok := m.ResolveActual("s", probeQuery(0).Signature(), 100); ok {
		t.Fatal("evicted observation still matched")
	}
	if _, _, _, ok := m.ResolveActual("s", probeQuery(9).Signature(), 100); !ok {
		t.Fatal("recent observation lost")
	}
}

func TestPendingLatestEstimateWins(t *testing.T) {
	m := NewMonitor(Config{SampleEvery: 1}, nil)
	q := probeQuery(1)
	m.Observe("s", 1, q, 100)
	m.Observe("s", 2, q, 500) // same signature re-served by a newer version
	m.Drain(context.Background())
	if st := m.Status("s"); st.Pending != 1 {
		t.Fatalf("pending = %d for one signature, want 1", st.Pending)
	}
	ver, est, _, ok := m.ResolveActual("s", q.Signature(), 500)
	if !ok || ver != 2 || est != 500 {
		t.Fatalf("resolve = (v%d, est %g, %v), want latest observation (v2, 500)", ver, est, ok)
	}
}

func TestRestorePathsDoNotTriggerOrJournal(t *testing.T) {
	j := &memJournal{}
	var fired []Reason
	m := NewMonitor(Config{
		SampleEvery: 1, Window: 16, MinSamples: 2,
		MaxMedianQ: 1.5, Cooldown: time.Hour, Journal: j,
	}, nil)
	m.OnTrigger(func(name string, r Reason) bool { fired = append(fired, r); return true })

	// Replay: restore pendings, resolve some, record pre-matched pairs —
	// q-errors far over threshold, yet replay must never fire triggers.
	for i := 0; i < 4; i++ {
		m.RestorePending("s", 1, probeQuery(i), 1000)
	}
	if !m.RestoreActual("s", probeQuery(0).Signature(), 10) {
		t.Fatal("restored actual did not match restored pending")
	}
	if m.RestoreActual("s", "no-such-sig", 10) {
		t.Fatal("unmatched restore reported matched")
	}
	m.RecordResolved("s", 1, 1000, 10)
	m.RecordResolved("s", 1, 1000, 10)

	if len(fired) != 0 {
		t.Fatalf("replay fired %d triggers", len(fired))
	}
	if len(j.pending) != 0 || len(j.resolved) != 0 {
		t.Fatalf("replay journaled %d/%d records", len(j.pending), len(j.resolved))
	}
	st := m.Status("s")
	if st.Pending != 3 {
		t.Fatalf("pending = %d after restore+one resolve, want 3", st.Pending)
	}
	if len(st.Versions) != 1 || st.Versions[0].Samples != 3 {
		t.Fatalf("restored window samples = %+v, want 3", st.Versions)
	}

	// The restored window is live: the next evaluated resolution trips the
	// median threshold immediately — window state survived the "restart".
	m.Observe("s", 1, probeQuery(9), 1000)
	m.Drain(context.Background())
	if _, _, _, ok := m.ResolveActual("s", probeQuery(9).Signature(), 10); !ok {
		t.Fatal("live actual unmatched")
	}
	if len(fired) != 1 {
		t.Fatalf("first live resolution fired %d triggers, want 1 (restored window supplies MinSamples)", len(fired))
	}
}

func TestTruthSourceStillResolvesInProcess(t *testing.T) {
	j := &memJournal{}
	m := NewMonitor(Config{SampleEvery: 1, MinSamples: 100, Journal: j}, constTruth(100))
	for i := 0; i < 3; i++ {
		m.Observe("s", 1, probeQuery(i), 200)
	}
	m.Drain(context.Background())
	st := m.Status("s")
	if st.Pending != 0 {
		t.Fatalf("pending = %d with an in-process source, want 0", st.Pending)
	}
	if st.Versions[0].Samples != 3 {
		t.Fatalf("samples = %d, want 3", st.Versions[0].Samples)
	}
	if len(j.resolved) != 3 || len(j.pending) != 0 {
		t.Fatalf("journal resolved/pending = %d/%d, want 3/0", len(j.resolved), len(j.pending))
	}
}
