package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"log"
	"net/http"
	"time"

	"deepsketch"
)

// The logged-actuals feedback loop. With -wal set, every sampled estimate
// the drift monitor parks (and every one it resolves in-process) is
// journaled to the dataset's observation WAL; clients that execute queries
// for real report the observed row counts to POST
// /api/sketches/{id}/actuals, which resolves the pending observation,
// lands its q-error in the drift windows, and appends the actual to the
// WAL. At startup replayWAL rebuilds the monitors' windows and pending
// queues from the surviving segments — a kill -9 mid-episode costs at most
// the unsynced tail, not the episode. With -drift-truth=false this is the
// ONLY ground-truth path: the exact executor is off the serving path
// entirely, and refresh delta workloads come from the WAL's recent actuals
// instead of synthetic generation.

// walJournal adapts one dataset's observation WAL to the drift monitor's
// journal seam.
type walJournal struct {
	d   *deepsketch.DB
	log *deepsketch.ObservationLog
}

func (j *walJournal) Pending(name string, version int, q deepsketch.Query, estimate float64) {
	j.append(deepsketch.WALRecord{
		Kind: deepsketch.WALObservation, Name: name, Version: version,
		Signature: q.Signature(), SQL: q.SQL(j.d), Estimate: estimate,
	})
}

func (j *walJournal) Resolved(name string, version int, q deepsketch.Query, estimate, actual float64) {
	j.append(deepsketch.WALRecord{
		Kind: deepsketch.WALActual, Name: name, Version: version,
		Signature: q.Signature(), SQL: q.SQL(j.d), Estimate: estimate, Actual: actual,
	})
}

func (j *walJournal) append(r deepsketch.WALRecord) {
	if err := j.log.Append(r); err != nil {
		log.Printf("deepsketchd: wal append: %v", err)
	}
}

// actualsReq is the POST /api/sketches/{id}/actuals payload: the query a
// client executed for real and the row count it observed.
type actualsReq struct {
	SQL    string  `json:"sql"`
	Actual float64 `json:"actual"`
	// Client identifies the reporting client for per-client admission
	// control ("" shares one unattributed budget).
	Client string `json:"client,omitempty"`
}

const (
	// maxActualsBody bounds the POST .../actuals request body — the ingest
	// path is client-facing and must not buffer arbitrarily large payloads.
	maxActualsBody = 1 << 20
	// maxClientIDBytes bounds the self-reported client ID: it keys the
	// admission table and is stored verbatim in every WAL record.
	maxClientIDBytes = 256
)

// handleSketchActuals ingests one observed actual: admission control
// first (per-client sampling, then the rate cap), then the monitor
// matches it against the pending observation for the query's signature,
// and the pair — or the unmatched actual, which is still training data —
// is appended to the observation WAL.
func (s *server) handleSketchActuals(w http.ResponseWriter, r *http.Request) {
	e, err := s.entryByID(r)
	if err != nil {
		writeErr(w, http.StatusNotFound, err)
		return
	}
	r.Body = http.MaxBytesReader(w, r.Body, maxActualsBody)
	var req actualsReq
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		var tooLarge *http.MaxBytesError
		if errors.As(err, &tooLarge) {
			writeErr(w, http.StatusRequestEntityTooLarge, err)
			return
		}
		writeErr(w, http.StatusBadRequest, err)
		return
	}
	if req.Actual < 0 {
		writeErr(w, http.StatusBadRequest, fmt.Errorf("actual cardinality %g is negative", req.Actual))
		return
	}
	if len(req.Client) > maxClientIDBytes {
		writeErr(w, http.StatusBadRequest, fmt.Errorf("client ID is %d bytes, limit %d", len(req.Client), maxClientIDBytes))
		return
	}
	d := s.datasets[e.Dataset]
	q, err := deepsketch.ParseSQL(d, req.SQL)
	if err != nil {
		writeErr(w, http.StatusBadRequest, err)
		return
	}
	switch s.admit.Admit(req.Client, time.Now()) {
	case deepsketch.AdmitCapped:
		// The client exhausted its per-minute budget; the record is NOT
		// logged (an adaptive client must not steer the training
		// distribution by volume).
		w.Header().Set("Retry-After", "60")
		writeJSON(w, http.StatusTooManyRequests, map[string]any{
			"admitted": false, "decision": "capped",
			"error": "per-client actuals admission cap exceeded",
		})
		return
	case deepsketch.AdmitSampled:
		// Thinned by per-client sampling — not an error, just not recorded.
		writeJSON(w, http.StatusOK, map[string]any{"admitted": false, "decision": "sampled"})
		return
	}
	sig := q.Signature()
	ver, est, qerr, matched := s.monitors[e.Dataset].ResolveActual(e.Name, sig, req.Actual)
	if l := s.wals[e.Dataset]; l != nil {
		rec := deepsketch.WALRecord{
			Kind: deepsketch.WALActual, Name: e.Name, Version: ver,
			Signature: sig, SQL: q.SQL(d),
			Estimate: est, Actual: req.Actual, Client: req.Client,
		}
		if err := l.Append(rec); err != nil {
			log.Printf("deepsketchd: wal append: %v", err)
		}
	}
	resp := map[string]any{"admitted": true, "matched": matched}
	if matched {
		resp["version"] = ver
		resp["q_error"] = qerr
	}
	writeJSON(w, http.StatusOK, resp)
}

// replayWAL rebuilds each dataset's drift-monitor state from its
// observation WAL: parked observations are re-parked, actuals re-resolve
// against them (or land directly when the record captured both halves).
// Replay never evaluates drift triggers — thresholds re-arm on live
// traffic — and never fails startup: corrupt tails are skipped by the WAL
// layer, unparseable SQL (e.g. from a schema change) is counted and
// dropped.
func (s *server) replayWAL() {
	for dataset, l := range s.wals {
		mon := s.monitors[dataset]
		d := s.datasets[dataset]
		var pending, resolved, skipped int
		err := l.Replay(func(r deepsketch.WALRecord) {
			switch r.Kind {
			case deepsketch.WALObservation:
				q, err := deepsketch.ParseSQL(d, r.SQL)
				if err != nil {
					skipped++
					return
				}
				mon.RestorePending(r.Name, r.Version, q, r.Estimate)
				pending++
			case deepsketch.WALActual:
				if mon.RestoreActual(r.Name, r.Signature, r.Actual) {
					resolved++
					return
				}
				// Version > 0 marks a record that captured both halves of
				// the pair (Version 0 is the unmatched-actual marker); an
				// Estimate of exactly 0 is a valid served estimate.
				if r.Version > 0 {
					mon.RecordResolved(r.Name, r.Version, r.Estimate, r.Actual)
					resolved++
					return
				}
				skipped++ // unmatched actual with no estimate to grade
			}
		})
		if err != nil {
			log.Printf("deepsketchd: wal replay for %s: %v", dataset, err)
			continue
		}
		if st := l.Stats(); st.Replayed > 0 || st.Truncated > 0 {
			log.Printf("deepsketchd: wal replay for %s: %d records (%d re-parked, %d resolved, %d skipped, %d torn segments)",
				dataset, st.Replayed, pending, resolved, skipped, st.Truncated)
		}
	}
}

// walWorkload converts the WAL's recent actuals for a sketch into a
// labeled fine-tune workload (newest-first distinct signatures, capped at
// -wal-delta). Records that no longer parse against the schema are
// dropped.
func (s *server) walWorkload(dataset, sketchName string) []deepsketch.LabeledQuery {
	l := s.wals[dataset]
	if l == nil {
		return nil
	}
	d := s.datasets[dataset]
	recs := l.RecentActuals(sketchName, s.walDelta)
	out := make([]deepsketch.LabeledQuery, 0, len(recs))
	for _, r := range recs {
		q, err := deepsketch.ParseSQL(d, r.SQL)
		if err != nil {
			continue
		}
		out = append(out, deepsketch.LabeledQuery{Query: q, Card: int64(r.Actual)})
	}
	return out
}

// applyRetention runs the retention policy after a promote: the WAL is
// checkpointed (everything logged so far is folded into the promoted
// version) and pruned to -retain-wal-bytes, and the store's version files
// are pruned to -retain-versions non-live versions, as after every new
// version file (persistVersion). One policy spans both — the feedback
// that produced a version and the version artifact itself age out
// together.
func (s *server) applyRetention(dataset string, e *sketchEntry) {
	if l := s.wals[dataset]; l != nil {
		if err := l.Checkpoint(); err != nil {
			log.Printf("deepsketchd: wal checkpoint for %s: %v", dataset, err)
		} else if s.retainWALBytes > 0 {
			if n, err := l.Prune(s.retainWALBytes); err != nil {
				log.Printf("deepsketchd: wal prune for %s: %v", dataset, err)
			} else if n > 0 {
				log.Printf("deepsketchd: wal for %s pruned %d checkpointed segments (budget %d bytes)", dataset, n, s.retainWALBytes)
			}
		}
	}
	s.pruneVersionFiles(e)
}
