package estimator

import (
	"cmp"
	"slices"
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
//
// It works on the column's distinct values in ascending order with their
// counts, found by counting into an array over [Min, Max] when the span is
// dense (the executor's value-index rule) and by sorting a copy otherwise.
// The MCVs are the top mcvK by (count descending, value ascending), chosen
// through a count threshold without sorting the distinct values, and their
// frequencies are summed in that order. The histogram bounds come from the
// cumulative non-MCV counts.
func BuildColStats(c *db.Column, mcvK, buckets int) ColStats {
	st := ColStats{Rows: len(c.Vals), MCVs: map[int64]float64{}}
	if st.Rows == 0 {
		return st
	}
	vals, counts := distinctCounts(c)
	st.NDistinct = float64(len(vals))

	// The k-th largest count is t: every value counted more than t is an
	// MCV, and so are the atT lowest values counted exactly t.
	maxCount := slices.Max(counts)
	byCount := make([]int, maxCount+1)
	for _, n := range counts {
		byCount[n]++
	}
	t, atT := maxCount, min(mcvK, len(vals))
	for atT > byCount[t] {
		atT -= byCount[t]
		t--
	}
	var top []int // indexes into vals, ascending
	for i, n := range counts {
		if n > t || n == t && atT > 0 {
			if n == t {
				atT--
			}
			top = append(top, i)
		}
	}
	for _, i := range top {
		f := float64(counts[i]) / float64(st.Rows)
		st.MCVs[vals[i]] = f
		st.mcvs = append(st.mcvs, mcv{vals[i], f})
	}
	// Sum the frequencies by (count descending, value ascending).
	slices.SortStableFunc(top, func(i, j int) int { return cmp.Compare(counts[j], counts[i]) })
	rest := st.Rows
	for _, i := range top {
		st.MCVFrac += float64(counts[i]) / float64(st.Rows)
		rest -= int(counts[i])
		counts[i] = 0
	}

	// Equi-depth histogram over the non-MCV values: bound b is the value at
	// position b*(rest-1)/buckets of their ascending list.
	if rest > 0 && buckets > 0 {
		buckets = min(buckets, rest)
		st.Bounds = make([]int64, buckets+1)
		i, cum := 0, int(counts[0])
		for b := range st.Bounds {
			for pos := b * (rest - 1) / buckets; cum <= pos; {
				i++
				cum += int(counts[i])
			}
			st.Bounds[b] = vals[i]
		}
	}
	return st
}

// distinctCounts returns the column's distinct values in ascending order
// and how often each occurs. The column must not be empty.
func distinctCounts(c *db.Column) (vals []int64, counts []int32) {
	if c.Dense() {
		slots := make([]int32, uint64(c.Max)-uint64(c.Min)+1)
		for _, v := range c.Vals {
			slots[v-c.Min]++
		}
		for k, n := range slots {
			if n > 0 {
				vals = append(vals, c.Min+int64(k))
				counts = append(counts, n)
			}
		}
		return vals, counts
	}
	sorted := slices.Clone(c.Vals)
	slices.Sort(sorted)
	for i, v := range sorted {
		if i > 0 && v == sorted[i-1] {
			counts[len(counts)-1]++
			continue
		}
		vals = append(vals, v)
		counts = append(counts, 1)
	}
	return vals, counts
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
