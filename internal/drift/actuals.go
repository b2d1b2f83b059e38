package drift

import (
	"math"

	"deepsketch/internal/db"
	"deepsketch/internal/metrics"
)

// Journal receives every monitoring transition worth persisting: an
// observation parked pending (estimate served, actual unknown) and an
// observation resolved (q-error recorded). The daemon points this at the
// observation WAL so the monitor's windows and pending queue can be
// rebuilt by replay after a restart. Calls arrive without monitor locks
// held and must not call back into the monitor.
type Journal interface {
	Pending(name string, version int, q db.Query, estimate float64)
	Resolved(name string, version int, q db.Query, estimate, actual float64)
}

// pendingKey identifies one parked observation: a sketch name and a
// canonical query signature.
type pendingKey struct {
	name string
	sig  string
}

// pendingObs is one parked observation awaiting an out-of-band actual.
type pendingObs struct {
	key pendingKey
	obs observation
}

// park stores an observation awaiting ground truth, keyed by (name,
// signature) with the latest estimate winning, evicting the oldest
// entries beyond Config.QueueSize. journal=false on replay restore.
func (m *Monitor) park(obs observation, journal bool) {
	key := pendingKey{obs.name, obs.q.Signature()}
	m.mu.Lock()
	if el, ok := m.pending[key]; ok {
		el.Value.(*pendingObs).obs = obs
		m.pendingOrder.MoveToBack(el)
	} else {
		m.pending[key] = m.pendingOrder.PushBack(&pendingObs{key: key, obs: obs})
		for m.pendingOrder.Len() > m.cfg.QueueSize {
			front := m.pendingOrder.Front()
			m.pendingOrder.Remove(front)
			delete(m.pending, front.Value.(*pendingObs).key)
			m.pendingEvicted.Add(1)
		}
	}
	j := m.journal
	m.mu.Unlock()
	if journal && j != nil {
		j.Pending(obs.name, obs.version, obs.q, obs.estimate)
	}
}

// takePending pops the parked observation for (name, signature).
func (m *Monitor) takePending(name, signature string) (observation, bool) {
	key := pendingKey{name, signature}
	m.mu.Lock()
	defer m.mu.Unlock()
	el, ok := m.pending[key]
	if !ok {
		return observation{}, false
	}
	m.pendingOrder.Remove(el)
	delete(m.pending, key)
	return el.Value.(*pendingObs).obs, true
}

// ResolveActual reports an out-of-band observed actual for (name,
// signature) — the logged-actuals ingest path. If a parked observation
// matches, its q-error is recorded in the answering version's window
// (evaluating drift triggers exactly as in-process ground truth would) and
// the observation's version, estimate and q-error are returned. An
// unmatched actual is counted and ignored here — it carries no estimate
// to grade, though it is still training signal for the WAL.
func (m *Monitor) ResolveActual(name, signature string, actual float64) (version int, estimate, qerr float64, matched bool) {
	obs, ok := m.takePending(name, signature)
	if !ok {
		m.unmatched.Add(1)
		return 0, 0, 0, false
	}
	m.record(obs.name, obs.version, obs.estimate, actual, true)
	qerr = metrics.QError(obs.estimate, actual)
	if math.IsNaN(qerr) || math.IsInf(qerr, 0) {
		// The window dropped this sample (see record); report 0 rather than
		// a non-finite value callers would serialize into broken JSON.
		qerr = 0
	}
	return obs.version, obs.estimate, qerr, true
}

// RestorePending re-parks an observation during WAL replay — no trigger
// evaluation, no journaling (the record is already durable).
func (m *Monitor) RestorePending(name string, version int, q db.Query, estimate float64) {
	m.park(observation{name: name, version: version, q: q, estimate: estimate}, false)
}

// RestoreActual matches a replayed actual against the pending queue and
// records its q-error without evaluating triggers — replay must rebuild
// windows, not fire refresh cycles at boot. Reports whether it matched.
func (m *Monitor) RestoreActual(name, signature string, actual float64) bool {
	obs, ok := m.takePending(name, signature)
	if !ok {
		return false
	}
	m.record(obs.name, obs.version, obs.estimate, actual, false)
	return true
}

// RecordResolved records an already-matched (estimate, actual) pair into
// a version's window without trigger evaluation — the replay path for
// durable records that captured both halves.
func (m *Monitor) RecordResolved(name string, version int, estimate, actual float64) {
	m.record(name, version, estimate, actual, false)
}

// record lands one resolved observation's q-error in the (name, version)
// window; evaluate=true additionally runs the trigger thresholds.
//
// Zeros are safe — metrics.QError clamps both sides to ≥ 1, so an actual
// of exactly 0 (an empty result a client really observed) or an estimate
// of 0 grades as a finite q-error. Non-finite q-errors (a degenerate model
// emitting NaN/Inf, an overflowed actual) are counted and dropped instead:
// one NaN in the window makes every quantile of the sorted summary
// undefined, silently disarming — or falsely arming — the drift triggers.
func (m *Monitor) record(name string, version int, estimate, actual float64, evaluate bool) {
	qerr := metrics.QError(estimate, actual)
	if math.IsNaN(qerr) || math.IsInf(qerr, 0) {
		m.badSamples.Add(1)
		return
	}
	ns := m.state(name)
	m.mu.Lock()
	vw := ns.windowLocked(version, m.cfg.Window)
	vw.win.Add(qerr)
	vw.samples++
	var reason Reason
	var fire bool
	if evaluate {
		reason, fire = m.evaluateLocked(ns, version, vw)
	}
	m.mu.Unlock()
	if fire {
		m.fire(name, reason)
	}
}
