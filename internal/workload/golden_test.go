package workload

import (
	"encoding/binary"
	"hash/fnv"
	"testing"

	"deepsketch/internal/datagen"
	"deepsketch/internal/db"
)

// TestCountGolden pins db.Count on generated workloads to constants recorded
// before the executor was rewritten over per-column value indexes: the count
// sum and an FNV-64a hash of every count in order. Any change of any count —
// labels, JOB-light's literal re-rolls, the demo's truth overlay — moves
// them. The generated queries cover 1 to 5 tables rooted at every table,
// =/</> literals drawn from the data, and TPC-H's chain joins.
func TestCountGolden(t *testing.T) {
	imdb := datagen.IMDb(datagen.IMDbConfig{Seed: 28, Titles: 3000})
	g, err := NewGenerator(imdb, GenConfig{Seed: 28, Count: 1500, MaxJoins: 4, MaxPreds: 3, Dedup: true})
	if err != nil {
		t.Fatal(err)
	}
	imdbQs := g.Generate()
	for seed := int64(1); seed <= 3; seed++ {
		jl, err := JOBLight(imdb, seed)
		if err != nil {
			t.Fatal(err)
		}
		imdbQs = append(imdbQs, jl...)
	}

	tpch := datagen.TPCH(datagen.TPCHConfig{Seed: 28, Orders: 2000})
	tg, err := NewGenerator(tpch, GenConfig{Seed: 28, Count: 500, MaxJoins: 4, MaxPreds: 3, Dedup: true})
	if err != nil {
		t.Fatal(err)
	}
	tpchQs := tg.Generate()

	for _, c := range []struct {
		name    string
		d       *db.DB
		qs      []db.Query
		n       int
		sum     int64
		fnv64a  uint64
		nonzero int
	}{
		{"imdb", imdb, imdbQs, 1710, 8832204, 0x7e1b7759d8a579e9, 1231},
		{"tpch", tpch, tpchQs, 500, 625207, 0xc14a17a078b0febe, 436},
	} {
		h := fnv.New64a()
		var sum int64
		var nonzero int
		var buf [8]byte
		for i, q := range c.qs {
			n, err := c.d.Count(q)
			if err != nil {
				t.Fatalf("%s query %d (%s): %v", c.name, i, q.SQL(nil), err)
			}
			sum += n
			if n > 0 {
				nonzero++
			}
			binary.LittleEndian.PutUint64(buf[:], uint64(n))
			h.Write(buf[:])
		}
		got := h.Sum64()
		if len(c.qs) != c.n || sum != c.sum || got != c.fnv64a || nonzero != c.nonzero {
			t.Errorf("%s: %d queries, %d non-empty, count sum %d, fnv64a %#x; want %d, %d, %d, %#x",
				c.name, len(c.qs), nonzero, sum, got, c.n, c.nonzero, c.sum, c.fnv64a)
		}
	}
}
