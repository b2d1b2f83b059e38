package main

import (
	"fmt"
	"os"
	"path/filepath"

	"deepsketch"
)

// pinnedCount is the size of a generated pinned benchmark: large enough
// for stable median/p95 judgments, small enough that evaluating two models
// on it adds negligible time to a refresh cycle.
const pinnedCount = 128

// loadOrCreatePinned loads the pinned benchmark at path, or — on first
// boot — generates a labeled workload from the dataset, persists it
// atomically, and returns it. The file, not the generator, is the source
// of truth from then on: the benchmark must stay frozen across restarts
// (and across dataset drift), or an adversary who can influence a restart
// could refresh the judgment set along with the model.
func loadOrCreatePinned(d *deepsketch.DB, path string, seed int64) (*deepsketch.PinnedBenchmark, error) {
	if _, err := os.Stat(path); err == nil {
		return deepsketch.LoadPinnedBenchmarkFile(d, path)
	} else if !os.IsNotExist(err) {
		return nil, fmt.Errorf("pinned benchmark %s: %w", path, err)
	}
	qs, err := deepsketch.GenerateWorkload(d, deepsketch.GenConfig{
		Seed: seed + 7001, Count: pinnedCount, MaxJoins: 2, MaxPreds: 2, Dedup: true,
	})
	if err != nil {
		return nil, err
	}
	labeled, err := deepsketch.LabelWorkload(d, qs)
	if err != nil {
		return nil, err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return nil, err
	}
	if err := deepsketch.WritePinnedBenchmarkFile(path, labeled); err != nil {
		return nil, err
	}
	return deepsketch.NewPinnedBenchmark(labeled), nil
}
