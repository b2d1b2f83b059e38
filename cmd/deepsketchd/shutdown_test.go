package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"runtime"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"deepsketch"
)

// deepsketchGoroutines returns the IDs of the live goroutines a deepsketch
// package created. It matches on the creator, not on the goroutine's own
// frames: a goroutine that has not been scheduled yet has none to show.
func deepsketchGoroutines() map[string]string {
	buf := make([]byte, 1<<20)
	for {
		n := runtime.Stack(buf, true)
		if n == len(buf) {
			buf = make([]byte, 2*len(buf))
			continue
		}
		ids := map[string]string{}
		for _, g := range strings.Split(string(buf[:n]), "\n\n") {
			header, _, _ := strings.Cut(g, " [")
			if i := strings.Index(g, "\ncreated by deepsketch"); i >= 0 {
				creator, _, _ := strings.Cut(g[i+len("\ncreated by "):], " in goroutine")
				ids[header] = creator
			}
		}
		return ids
	}
}

// awaitNoNewGoroutines fails unless the deepsketch goroutines alive now are
// a subset of before: every one created since has exited. Goroutines are
// compared by ID, so one that an earlier test left behind may exit
// meanwhile without counting. A goroutine that was joined still needs an
// instant to be gone: allow it that instant.
func awaitNoNewGoroutines(t *testing.T, before map[string]string, when string) {
	t.Helper()
	for deadline := time.Now().Add(5 * time.Second); ; runtime.Gosched() {
		var started []string
		for id, creator := range deepsketchGoroutines() {
			if _, ok := before[id]; !ok {
				started = append(started, creator)
			}
		}
		if len(started) == 0 {
			return
		}
		if time.Now().After(deadline) {
			sort.Strings(started)
			t.Fatalf("%s, %d goroutines the server started are still running: %v", when, len(started), started)
		}
	}
}

// checkConcurrentEstimates sends imdb queries concurrently through the
// named sketch's stack (by id) and the dataset's auto-routed stack, and
// checks each deep_sketch answer equals the live sketch's own estimate
// clamped into [1, MaxCardinality] — not approximately: a stack adds no
// arithmetic of its own.
func checkConcurrentEstimates(t *testing.T, srv *server, h http.Handler, id int, name string) {
	t.Helper()
	var sqls []string
	for kind := 1; kind <= 4; kind++ {
		sqls = append(sqls,
			fmt.Sprintf("SELECT COUNT(*) FROM title t WHERE t.kind_id=%d", kind),
			fmt.Sprintf("SELECT COUNT(*) FROM title t, movie_keyword mk WHERE mk.movie_id=t.id AND t.kind_id=%d", kind))
	}
	routes := []int{id, 0} // 0 routes automatically
	got := make([][]float64, len(routes))
	var wg sync.WaitGroup
	for r, sketchID := range routes {
		got[r] = make([]float64, len(sqls))
		for i, sql := range sqls {
			wg.Add(1)
			go func() {
				defer wg.Done()
				rec := post(t, h, "/api/estimate", estimateReq{SketchID: sketchID, SQL: sql})
				var resp struct {
					DeepSketch float64 `json:"deep_sketch"`
				}
				if rec.Code != http.StatusOK {
					t.Errorf("sketch_id %d, %s: %d %s", sketchID, sql, rec.Code, rec.Body)
				} else if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
					t.Error(err)
				}
				got[r][i] = resp.DeepSketch
			}()
		}
	}
	wg.Wait()

	d := srv.datasets["imdb"]
	live, _, err := srv.registries["imdb"].Live(name)
	if err != nil {
		t.Fatal(err)
	}
	for i, sql := range sqls {
		q, err := deepsketch.ParseSQL(d, sql)
		if err != nil {
			t.Fatal(err)
		}
		est, err := live.Estimate(context.Background(), q)
		if err != nil {
			t.Fatal(err)
		}
		want := math.Min(math.Max(est.Cardinality, 1), deepsketch.MaxCardinality(d))
		for r, sketchID := range routes {
			if got[r][i] != want {
				t.Errorf("sketch_id %d, %s: deep_sketch %v, in-process clamped estimate %v", sketchID, sql, got[r][i], want)
			}
		}
	}
}

// TestCloseJoinsInFlightRefresh is the regression test for the shutdown
// race: the daemon used to fire build/refresh goroutines with no join, so
// a shutdown could return — and tear down the store directory — while a
// refresh was still writing sketch files. Close must block until the
// in-flight refresh has fully landed or failed, whoever started it — an
// operator's POST or a drift trigger — and the store it leaves behind must
// restore cleanly on a fresh server.
//
// Serving starts no goroutine: an estimate runs on the request's own, so
// once a sketch is ready and its estimates have returned, and again after
// Close, no goroutine the server started is left. Each estimate is the live
// sketch's own, clamped, bit for bit, through both the sketch's stack and
// the dataset's auto-routed one.
func TestCloseJoinsInFlightRefresh(t *testing.T) {
	cases := []struct {
		name string
		// start puts one refresh cycle in flight.
		start func(t *testing.T, srv *server, h http.Handler, id int)
		// The terminal state the joined cycle must have reached.
		wantStatus  string
		wantVersion int
		wantCanary  int
	}{
		{
			name: "operator refresh",
			start: func(t *testing.T, _ *server, h http.Handler, id int) {
				rec := post(t, h, fmt.Sprintf("/api/sketches/%d/refresh", id), refreshReq{Queries: 120, Epochs: 1})
				if rec.Code != http.StatusAccepted {
					t.Fatalf("refresh status %d: %s", rec.Code, rec.Body)
				}
			},
			wantStatus: "ready", wantVersion: 2,
		},
		{
			name: "drift trigger",
			start: func(t *testing.T, srv *server, h http.Handler, id int) {
				for year := 1960; year < 2020; year += 5 {
					sql := fmt.Sprintf("SELECT COUNT(*) FROM title t WHERE t.production_year>%d", year)
					if rec := post(t, h, "/api/estimate", estimateReq{SketchID: id, SQL: sql}); rec.Code != http.StatusOK {
						t.Fatalf("estimate: %d %s", rec.Code, rec.Body)
					}
				}
				// Ground-truthing the samples trips the hair-trigger threshold.
				srv.monitors["imdb"].Drain(context.Background())
				if status, _, _ := entryState(t, h, id); status == "ready" {
					t.Fatal("the trigger started no cycle")
				}
			},
			wantStatus: "canarying", wantVersion: 1, wantCanary: 2,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			before := deepsketchGoroutines()
			srv := newServerOpts(serverOptions{
				titles: 600, orders: 300, seed: 2, driftTruth: true,
				driftCfg: deepsketch.DriftConfig{
					SampleEvery: 1, Window: 64, MinSamples: 6,
					MaxMedianQ: 1.01, Cooldown: time.Hour, QueueSize: 4096,
				},
				ctrlCfg: deepsketch.DriftControllerConfig{CanaryFraction: 0.5, Epochs: 1},
			})
			srv.store = dir
			h := srv.routes()
			id := buildReadySketch(t, h, "joined")
			checkConcurrentEstimates(t, srv, h, id, "joined")
			awaitNoNewGoroutines(t, before, "after its estimates returned")
			tc.start(t, srv, h, id)

			// Close while the refresh goroutine is in flight. It must not
			// return until the goroutine is done — and must not hang either.
			closed := make(chan error, 1)
			go func() { closed <- srv.Close() }()
			select {
			case err := <-closed:
				if err != nil {
					t.Fatalf("close: %v", err)
				}
			case <-time.After(90 * time.Second):
				t.Fatal("Close did not return while a refresh was in flight")
			}
			awaitNoNewGoroutines(t, before, "after Close")

			// The join guarantees the refresh reached a terminal state
			// before Close returned: "refreshing" after Close would mean the
			// goroutine outlived the shutdown.
			check := func(h http.Handler, when string) {
				t.Helper()
				status, version, canary := entryState(t, h, id)
				canaryVer := 0
				if canary != nil {
					canaryVer = canary.Version
				}
				if status != tc.wantStatus || version != tc.wantVersion || canaryVer != tc.wantCanary {
					t.Fatalf("%s: entry is %s v%d canary v%d, want %s v%d canary v%d",
						when, status, version, canaryVer, tc.wantStatus, tc.wantVersion, tc.wantCanary)
				}
			}
			check(h, "after Close")

			// The store the shutdown left behind is complete and consistent:
			// a fresh daemon restores the sketch and its refreshed version.
			srv2 := newServer(600, 300, 2)
			srv2.store = dir
			n, err := srv2.loadStore()
			if err != nil {
				t.Fatalf("restoring store written under shutdown: %v", err)
			}
			if n != 1 {
				t.Fatalf("restored %d sketches, want 1", n)
			}
			check(srv2.routes(), "restored")
		})
	}
}
