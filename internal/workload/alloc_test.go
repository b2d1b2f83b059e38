//go:build !race

package workload

import (
	"runtime"
	"runtime/debug"
	"testing"

	"deepsketch/internal/datagen"
)

// TestCountAllocatesNoKeyDomain: once the value indexes and the pooled
// scratch exist, an exact count over the JOB-light draw on a 20 000-title
// IMDb allocates, on average, less than one float64 per title row — less
// than one dense per-key array over title.id, which the executor used to
// allocate for every join child. Skipped under -race, whose instrumentation
// allocates.
func TestCountAllocatesNoKeyDomain(t *testing.T) {
	d := datagen.IMDb(datagen.IMDbConfig{Seed: 1, Titles: 20000})
	qs, err := JOBLight(d, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, q := range qs {
		if _, err := d.Count(q); err != nil {
			t.Fatal(err)
		}
	}
	// With the collector off the pool keeps its scratch.
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for _, q := range qs {
		if _, err := d.Count(q); err != nil {
			t.Fatal(err)
		}
	}
	runtime.ReadMemStats(&after)
	perCount := float64(after.TotalAlloc-before.TotalAlloc) / float64(len(qs))
	if limit := 8 * d.Table("title").NumRows(); perCount >= float64(limit) {
		t.Errorf("%.0f B allocated per count over %d JOB-light queries; one float64 per title row is %d B",
			perCount, len(qs), limit)
	}
}
