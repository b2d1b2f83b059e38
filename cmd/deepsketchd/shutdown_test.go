package main

import (
	"context"
	"fmt"
	"net/http"
	"runtime"
	"strings"
	"testing"
	"time"

	"deepsketch"
)

// coalescerLoops counts the coalescer flush goroutines alive in the process
// — this server's and those of servers earlier tests never closed. It
// matches on the creator, not on the loop's own frame: a goroutine that has
// not been scheduled yet has no loop frame to show.
func coalescerLoops() int {
	buf := make([]byte, 1<<20)
	for {
		if n := runtime.Stack(buf, true); n < len(buf) {
			return strings.Count(string(buf[:n]), "created by deepsketch/internal/serve.NewCoalescer")
		}
		buf = make([]byte, 2*len(buf))
	}
}

// TestCloseJoinsInFlightRefresh is the regression test for the shutdown
// race: the daemon used to fire build/refresh goroutines with no join, so
// a shutdown could return — and tear down the store directory — while a
// refresh was still writing sketch files. Close must block until the
// in-flight refresh has fully landed or failed, whoever started it — an
// operator's POST or a drift trigger — and the store it leaves behind must
// restore cleanly on a fresh server. Close must also stop every coalescer
// the server's serving stacks started: the daemon used to drop their
// handles, leaving three flush goroutines behind a one-sketch server.
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
			loopsBefore := coalescerLoops()
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
			// One auto stack per dataset plus the sketch's own.
			if got, want := coalescerLoops()-loopsBefore, len(srv.datasets)+1; got != want {
				t.Fatalf("the server started %d coalescers, want %d", got, want)
			}
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
			// Coalescer.Close returns when the flush loop signals its exit,
			// an instant before the goroutine is gone: allow it that instant.
			for deadline := time.Now().Add(5 * time.Second); coalescerLoops() != loopsBefore; runtime.Gosched() {
				if time.Now().After(deadline) {
					t.Fatalf("%d coalescer goroutines outlived Close", coalescerLoops()-loopsBefore)
				}
			}

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
