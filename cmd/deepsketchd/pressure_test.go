package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"runtime"
	"sync/atomic"
	"testing"

	"deepsketch/internal/drift"
)

// refreshSteps refreshes sketch id with body, waits for version 2 and
// returns the cycle's fine-tune widths and the downloaded version 2.
func refreshSteps(t *testing.T, h http.Handler, id int, body refreshReq) (*drift.Training, []byte) {
	t.Helper()
	if rec := post(t, h, fmt.Sprintf("/api/sketches/%d/refresh", id), body); rec.Code != http.StatusAccepted {
		t.Fatalf("refresh status %d: %s", rec.Code, rec.Body)
	}
	awaitStatus(t, h, id, "ready")
	if _, version, _ := entryState(t, h, id); version != 2 {
		t.Fatalf("refresh landed version %d, want 2", version)
	}
	cycle, _ := driftView(t, h, id)
	if cycle.Training == nil || len(cycle.Training.Epochs) != body.Epochs {
		t.Fatalf("drift cycle reports training %+v, want %d epochs", cycle.Training, body.Epochs)
	}
	rec := get(t, h, fmt.Sprintf("/api/sketches/%d/download", id))
	if rec.Code != http.StatusOK {
		t.Fatalf("download status %d: %s", rec.Code, rec.Body)
	}
	return cycle.Training, rec.Body.Bytes()
}

// TestRefreshNarrowsBesideServing: an operator refresh sent while a
// goroutine loops /api/estimate runs its training steps one worker narrower
// than GOMAXPROCS, and the same refresh of the same sketch on an idle
// daemon runs every step at full width. GET .../drift counts both, no
// estimate fails, and the two refreshed versions are the same bytes.
func TestRefreshNarrowsBesideServing(t *testing.T) {
	old := runtime.GOMAXPROCS(3)
	t.Cleanup(func() { runtime.GOMAXPROCS(old) })
	body := refreshReq{Queries: 400, Epochs: 3, Seed: 5}

	busy, idle := testServer(t), testServer(t)
	hBusy, hIdle := busy.routes(), idle.routes()
	idBusy := buildReadySketch(t, hBusy, "width")
	idIdle := buildReadySketch(t, hIdle, "width")

	var sent, failed atomic.Int64
	stop, stopped := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(stopped)
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			blob, _ := json.Marshal(estimateReq{SketchID: idBusy,
				SQL: fmt.Sprintf("SELECT COUNT(*) FROM title t WHERE t.production_year>%d", 1900+i%110)})
			rec := httptest.NewRecorder()
			hBusy.ServeHTTP(rec, httptest.NewRequest("POST", "/api/estimate", bytes.NewReader(blob)))
			if rec.Code != http.StatusOK {
				failed.Add(1)
			}
			sent.Add(1)
		}
	}()
	for sent.Load() == 0 {
		runtime.Gosched()
	}
	busyTraining, busyFile := refreshSteps(t, hBusy, idBusy, body)
	close(stop)
	<-stopped
	idleTraining, idleFile := refreshSteps(t, hIdle, idIdle, body)

	if n := failed.Load(); n != 0 {
		t.Errorf("%d of %d estimates beside the refresh failed", n, sent.Load())
	}
	if busyTraining.Workers != 3 || idleTraining.Workers != 3 {
		t.Errorf("full width %d beside serving and %d idle, want GOMAXPROCS 3", busyTraining.Workers, idleTraining.Workers)
	}
	var full, narrowed int
	for _, e := range busyTraining.Epochs {
		full += e.Full
		narrowed += e.Narrowed
	}
	t.Logf("beside %d estimates: %d steps narrowed, %d at full width", sent.Load(), narrowed, full)
	if narrowed == 0 || narrowed < full {
		t.Errorf("beside serving %d steps narrowed and %d ran at full width (%+v), want most narrowed",
			narrowed, full, busyTraining.Epochs)
	}
	for _, e := range idleTraining.Epochs {
		if e.Narrowed != 0 || e.Full == 0 {
			t.Errorf("idle refresh epoch %d: %d steps narrowed, %d at full width; want none narrowed", e.Epoch, e.Narrowed, e.Full)
		}
	}
	if !bytes.Equal(busyFile, idleFile) {
		t.Errorf("the refresh beside serving and the idle one downloaded different files (%d and %d bytes)", len(busyFile), len(idleFile))
	}
}
