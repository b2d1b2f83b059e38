package db_test

import (
	"testing"

	"deepsketch/internal/datagen"
	"deepsketch/internal/workload"
)

// BenchmarkCount counts a cold workload — signature-distinct queries from
// the training distribution, up to five tables and three predicates, on a
// 20 000-title IMDb — one query per iteration, cycling. The value indexes
// are built before the timer starts, so it times the executor alone.
func BenchmarkCount(b *testing.B) {
	d := datagen.IMDb(datagen.IMDbConfig{Seed: 1, Titles: 20000})
	g, err := workload.NewGenerator(d, workload.GenConfig{Seed: 1, Count: 1024, MaxJoins: 4, MaxPreds: 3, Dedup: true})
	if err != nil {
		b.Fatal(err)
	}
	qs := g.Generate()
	for _, q := range qs {
		if _, err := d.Count(q); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	for i := 0; b.Loop(); i++ {
		if _, err := d.Count(qs[i%len(qs)]); err != nil {
			b.Fatal(err)
		}
	}
}
