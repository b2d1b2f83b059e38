package main

import (
	"path/filepath"
	"strings"
	"testing"

	"deepsketch"
)

// TestCLICanaryGate builds a tiny sketch, refreshes it into a candidate,
// and runs the offline canary gate both ways: the refreshed candidate
// passes a lax gate, and an impossibly strict ratio flips the verdict to
// ABORT (non-zero exit with -gate).
func TestCLICanaryGate(t *testing.T) {
	dir := t.TempDir()
	livePath := filepath.Join(dir, "live.dsk")
	candPath := filepath.Join(dir, "cand.dsk")
	dbArgs := []string{"-db", "imdb", "-dbseed", "1", "-titles", "1000"}

	build := append([]string{
		"-out", livePath, "-samples", "48", "-queries", "150",
		"-epochs", "2", "-hidden", "12", "-batch", "32", "-seed", "3", "-q",
	}, dbArgs...)
	if err := cmdBuild(build); err != nil {
		t.Fatalf("build: %v", err)
	}
	refresh := append([]string{
		"-sketch", livePath, "-out", candPath, "-queries", "150", "-seed", "7", "-epochs", "2", "-q",
	}, dbArgs...)
	if err := cmdRefresh(refresh); err != nil {
		t.Fatalf("refresh: %v", err)
	}

	// A generous ratio promotes the warm-refreshed candidate.
	pass := append([]string{
		"-sketch", livePath, "-candidate", candPath,
		"-fraction", "0.5", "-ratio", "100", "-queries", "200", "-seed", "9", "-gate",
	}, dbArgs...)
	if err := cmdCanary(pass); err != nil {
		t.Fatalf("canary gate should promote at ratio 100: %v", err)
	}

	// ratio 0 makes the limit 0 — impossible — so -gate must fail.
	abort := append([]string{
		"-sketch", livePath, "-candidate", candPath,
		"-fraction", "0.5", "-ratio", "0.0001", "-queries", "200", "-seed", "9", "-gate",
	}, dbArgs...)
	if err := cmdCanary(abort); err == nil {
		t.Fatal("canary -gate should fail on an ABORT verdict")
	}

	// Error surface: missing candidate, bad fraction, dataset mismatch.
	if err := cmdCanary([]string{"-sketch", livePath}); err == nil {
		t.Error("missing -candidate should fail")
	}
	if err := cmdCanary(append([]string{"-sketch", livePath, "-candidate", candPath, "-fraction", "1.5"}, dbArgs...)); err == nil {
		t.Error("fraction 1.5 should fail")
	}
	if err := cmdCanary([]string{"-sketch", livePath, "-candidate", candPath, "-db", "tpch"}); err == nil {
		t.Error("dataset mismatch should fail")
	}
}

// TestCLICanaryPinnedRail exercises the offline promotion rail: with a
// frozen benchmark supplied, a candidate the split gate would promote is
// still vetoed when it regresses beyond -pinned-max-regress on the pinned
// set.
func TestCLICanaryPinnedRail(t *testing.T) {
	dir := t.TempDir()
	livePath := filepath.Join(dir, "live.dsk")
	candPath := filepath.Join(dir, "cand.dsk")
	pinnedPath := filepath.Join(dir, "pinned.workload")
	dbArgs := []string{"-db", "imdb", "-dbseed", "1", "-titles", "1000"}

	build := append([]string{
		"-out", livePath, "-samples", "48", "-queries", "150",
		"-epochs", "2", "-hidden", "12", "-batch", "32", "-seed", "3", "-q",
	}, dbArgs...)
	if err := cmdBuild(build); err != nil {
		t.Fatalf("build: %v", err)
	}
	refresh := append([]string{
		"-sketch", livePath, "-out", candPath, "-queries", "150", "-seed", "7", "-epochs", "2", "-q",
	}, dbArgs...)
	if err := cmdRefresh(refresh); err != nil {
		t.Fatalf("refresh: %v", err)
	}

	// The same dataset the -db flags denote, used to label the pinned set.
	d := deepsketch.NewIMDb(deepsketch.IMDbConfig{Seed: 1, Titles: 1000})
	qs, err := deepsketch.GenerateWorkload(d, deepsketch.GenConfig{
		Seed: 23, Count: 60, MaxJoins: 2, MaxPreds: 2, Dedup: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	labeled, err := deepsketch.LabelWorkload(d, qs)
	if err != nil {
		t.Fatal(err)
	}
	if err := deepsketch.WritePinnedBenchmarkFile(pinnedPath, labeled); err != nil {
		t.Fatal(err)
	}

	base := append([]string{
		"-sketch", livePath, "-candidate", candPath,
		"-fraction", "0.5", "-ratio", "100", "-queries", "200", "-seed", "9", "-gate",
		"-pinned", pinnedPath,
	}, dbArgs...)

	// A generous tolerance lets both the split gate and the rail pass.
	if err := cmdCanary(append([]string{"-pinned-max-regress", "1000"}, base...)); err != nil {
		t.Fatalf("rail at tolerance 1000x should promote: %v", err)
	}

	// An impossible tolerance fails the rail even though the split gate
	// (ratio 100) promotes: the rail's veto must win, and the -gate error
	// must name the rail, not the gate.
	err = cmdCanary(append([]string{"-pinned-max-regress", "0.000001"}, base...))
	if err == nil {
		t.Fatal("rail at tolerance 1e-6 should veto the promote")
	}
	if !strings.Contains(err.Error(), "pinned rail") {
		t.Errorf("veto error = %q, want the pinned rail named", err)
	}

	// A missing benchmark file is an error, not a silently skipped rail.
	missing := append([]string{"-pinned", filepath.Join(dir, "nope.workload")}, []string{
		"-sketch", livePath, "-candidate", candPath, "-fraction", "0.5", "-ratio", "100",
		"-queries", "200", "-seed", "9",
	}...)
	if err := cmdCanary(append(missing, dbArgs...)); err == nil {
		t.Error("missing pinned benchmark file should fail")
	}
}
