package estimator

import (
	"reflect"
	"sort"
	"testing"

	"deepsketch/internal/datagen"
	"deepsketch/internal/db"
)

// buildColStatsReference is BuildColStats as first written: a frequency
// map, every distinct value sorted by (count descending, value ascending),
// and every non-MCV row sorted for the histogram. BuildColStats must return
// exactly what it returns.
func buildColStatsReference(c *db.Column, mcvK, buckets int) ColStats {
	st := ColStats{Rows: len(c.Vals), MCVs: map[int64]float64{}}
	if st.Rows == 0 {
		return st
	}
	freq := make(map[int64]int)
	for _, v := range c.Vals {
		freq[v]++
	}
	st.NDistinct = float64(len(freq))

	// MCVs: top-k by frequency (ties broken by value for determinism).
	type vf struct {
		v int64
		n int
	}
	all := make([]vf, 0, len(freq))
	for v, n := range freq {
		all = append(all, vf{v, n})
	}
	sort.Slice(all, func(i, j int) bool {
		if all[i].n != all[j].n {
			return all[i].n > all[j].n
		}
		return all[i].v < all[j].v
	})
	k := mcvK
	if k > len(all) {
		k = len(all)
	}
	isMCV := make(map[int64]bool, k)
	for _, e := range all[:k] {
		f := float64(e.n) / float64(st.Rows)
		st.MCVs[e.v] = f
		st.MCVFrac += f
		st.mcvs = append(st.mcvs, mcv{e.v, f})
		isMCV[e.v] = true
	}
	sort.Slice(st.mcvs, func(i, j int) bool { return st.mcvs[i].v < st.mcvs[j].v })

	// Equi-depth histogram over the non-MCV values.
	rest := make([]int64, 0, st.Rows)
	for _, v := range c.Vals {
		if !isMCV[v] {
			rest = append(rest, v)
		}
	}
	if len(rest) > 0 && buckets > 0 {
		sort.Slice(rest, func(i, j int) bool { return rest[i] < rest[j] })
		if buckets > len(rest) {
			buckets = len(rest)
		}
		st.Bounds = make([]int64, buckets+1)
		for b := 0; b <= buckets; b++ {
			idx := b * (len(rest) - 1) / buckets
			st.Bounds[b] = rest[idx]
		}
	}
	return st
}

// checkColStats fails unless BuildColStats returns exactly the reference's
// statistics, unexported MCV list included.
func checkColStats(t *testing.T, name string, c *db.Column, mcvK, buckets int) {
	t.Helper()
	got := BuildColStats(c, mcvK, buckets)
	want := buildColStatsReference(c, mcvK, buckets)
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("%s (mcvK=%d, buckets=%d):\n got %+v\nwant %+v", name, mcvK, buckets, got, want)
	}
}

// TestColStatsMatchReference: on every column of the daemon's IMDb and
// TPC-H and on edge-case columns, the counting BuildColStats returns the
// same statistics, bit for bit, as the map-and-sort reference.
func TestColStatsMatchReference(t *testing.T) {
	settings := [][2]int{{100, 100}, {3, 4}, {0, 10}, {1, 0}}
	for _, d := range []*db.DB{
		datagen.IMDb(datagen.IMDbConfig{Seed: 1, Titles: 20000}),
		datagen.TPCH(datagen.TPCHConfig{Seed: 1}),
	} {
		for _, name := range d.TableNames() {
			for _, c := range d.Table(name).Cols {
				for _, s := range settings {
					checkColStats(t, name+"."+c.Name, c, s[0], s[1])
				}
			}
		}
	}

	distinct := make([]int64, 300)
	for i := range distinct {
		distinct[i] = int64(i*7919) % 300
	}
	for _, c := range []struct {
		name          string
		vals          []int64
		mcvK, buckets int
	}{
		{"empty", nil, 100, 100},
		{"one value", []int64{7}, 100, 100},
		{"all distinct", distinct, 100, 100},
		// Counts 4, 3, 3, 3, 1: the third MCV is the lower of 4 and 9.
		{"tie at the k-th count", []int64{5, 9, 2, 5, 4, 9, 2, 5, 1, 4, 2, 9, 4, 5}, 3, 4},
		{"fewer distinct values than mcvK", []int64{1, 1, 2}, 10, 10},
		{"more buckets than non-MCV rows", []int64{1, 1, 1, 2, 2, 2, 3, 4, 5, 6, 7}, 2, 100},
		{"negative values", []int64{-5, -3, -3, 0, 2, -5, -5, 4, -1, -3}, 2, 3},
		{"wide", []int64{0, 1 << 40, -(1 << 41), 1 << 40, 3, 3, 1 << 40}, 1, 4},
	} {
		col := db.NewIntColumn(c.name, c.vals)
		for _, s := range append(settings, [2]int{c.mcvK, c.buckets}) {
			checkColStats(t, c.name, col, s[0], s[1])
		}
	}
}

// FuzzColStatsMatchesReference: BuildColStats returns the reference's
// statistics on a column, MCV list size and bucket count decoded from the
// input. Bytes past the end read as zero. Layout: byte 0 is mcvK (b%16), byte 1 the bucket count (b%16), byte
// 2 the span: b%3 = 0 keeps values as they are, 1 multiplies them by 2^40
// (too wide to count densely) and 2 adds -2^50 (dense, far from zero);
// every later byte is one value, b%32-8.
func FuzzColStatsMatchesReference(f *testing.F) {
	f.Add([]byte{3, 4, 0, 1, 2, 2, 3, 3, 3, 9, 9, 9, 30, 0})
	f.Add([]byte{2, 5, 1, 1, 2, 2, 3, 3, 3, 9, 9, 9, 30, 0})
	f.Add([]byte{1, 15, 2, 0, 0, 31, 31, 5, 6, 7, 8})
	// Counts 3, 2, 1 over values 8, 9, -7: summed by value, MCVFrac differs
	// in its last bit.
	f.Add([]byte{7, 0, 0, 16, 16, 17, 17, 1, 16})
	f.Fuzz(func(t *testing.T, data []byte) {
		var head [3]byte
		n := copy(head[:], data)
		vals := make([]int64, 0, len(data)-n)
		for _, b := range data[n:] {
			v := int64(b%32) - 8
			switch head[2] % 3 {
			case 1:
				v <<= 40
			case 2:
				v -= 1 << 50
			}
			vals = append(vals, v)
		}
		checkColStats(t, "fuzz", db.NewIntColumn("f", vals), int(head[0]%16), int(head[1]%16))
	})
}
