package estimator

import (
	"sort"

	"deepsketch/internal/db"
)

// ColStats are PostgreSQL-style per-column statistics: row count, number of
// distinct values, the most common values with their frequencies, and an
// equi-depth histogram over the remaining values.
type ColStats struct {
	Rows      int
	NDistinct float64
	// MCVs maps the most common values to their frequency (fraction of
	// rows); MCVFrac is their combined fraction.
	MCVs    map[int64]float64
	MCVFrac float64
	// mcvs lists the same MCVs by ascending value: the range selectivities
	// sum their frequencies in this order, not in the map's random one, so
	// an estimate is a function of its query down to the last bit.
	mcvs []mcv
	// Bounds are equi-depth histogram bucket boundaries over non-MCV values
	// (len = buckets+1); nil when every value is an MCV.
	Bounds []int64
}

// mcv is one most common value and its frequency.
type mcv struct {
	v int64
	f float64
}

// BuildColStats computes statistics for one column with the given MCV list
// size and histogram bucket count (PostgreSQL defaults are 100/100).
func BuildColStats(c *db.Column, mcvK, buckets int) ColStats {
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

// EqSelectivity estimates P(col = v): the MCV frequency if v is an MCV,
// otherwise the non-MCV mass spread uniformly over the remaining distinct
// values (PostgreSQL's var_eq_const logic).
func (st ColStats) EqSelectivity(v int64) float64 {
	if st.Rows == 0 {
		return 0
	}
	if f, ok := st.MCVs[v]; ok {
		return f
	}
	others := st.NDistinct - float64(len(st.MCVs))
	if others < 1 {
		// Statistics claim every value is an MCV; an unseen literal gets the
		// half-tuple floor.
		return 0.5 / float64(st.Rows)
	}
	return (1 - st.MCVFrac) / others
}

// LtSelectivity estimates P(col < v) from MCVs plus histogram
// interpolation (PostgreSQL's scalarltsel).
func (st ColStats) LtSelectivity(v int64) float64 {
	if st.Rows == 0 {
		return 0
	}
	var sel float64
	for _, m := range st.mcvs {
		if m.v >= v {
			break
		}
		sel += m.f
	}
	sel += (1 - st.MCVFrac) * st.histFracBelow(v)
	return clampSel(sel)
}

// GtSelectivity estimates P(col > v).
func (st ColStats) GtSelectivity(v int64) float64 {
	if st.Rows == 0 {
		return 0
	}
	var sel float64
	for _, m := range st.mcvs {
		if m.v > v {
			sel += m.f
		}
	}
	// P(hist > v) = 1 − P(hist < v) − P(hist = v); the point mass inside the
	// histogram is negligible at PostgreSQL's resolution and is ignored,
	// like scalargtsel does.
	sel += (1 - st.MCVFrac) * (1 - st.histFracBelow(v))
	return clampSel(sel)
}

// histFracBelow returns the estimated fraction of histogram-covered rows
// with value < v, with linear interpolation inside the containing bucket.
func (st ColStats) histFracBelow(v int64) float64 {
	if len(st.Bounds) < 2 {
		return 0
	}
	b := st.Bounds
	if v <= b[0] {
		return 0
	}
	if v > b[len(b)-1] {
		return 1
	}
	nb := len(b) - 1
	// Find bucket i with b[i] <= v <= b[i+1] (first match).
	i := sort.Search(nb, func(i int) bool { return b[i+1] >= v })
	lo, hi := b[i], b[i+1]
	var within float64
	if hi > lo {
		within = float64(v-lo) / float64(hi-lo)
	}
	return (float64(i) + within) / float64(nb)
}

func clampSel(s float64) float64 {
	if s < 0 {
		return 0
	}
	if s > 1 {
		return 1
	}
	return s
}
