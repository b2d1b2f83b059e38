package db

// valueIndex groups a column's row ids by value: the rows holding value
// min+k are rows[offsets[k]:offsets[k+1]], ascending within the group. It is
// built once per column, on first use, and never written afterwards, so any
// number of goroutines may read it.
type valueIndex struct {
	min, max int64
	offsets  []int32 // one per value in [min, max], plus the row count
	rows     []int32
	// unique means every value of [min, max] occurs exactly once: a key
	// column with no gap and no duplicate, such as a dense primary key.
	unique bool
}

// denseSlack is how many key slots per row a dense per-key array may spend:
// a column whose value span exceeds denseSlack slots per row (and 2^16) keeps
// a map aggregate and a full scan instead of an index.
const denseSlack = 4

// Dense reports whether the column's value span fits a dense per-value
// array, the rule that gives it a value index. It is false for an empty
// column (Min > Max).
func (c *Column) Dense() bool {
	if c.Min > c.Max {
		return false
	}
	d := uint64(c.Max) - uint64(c.Min) // span-1, exact even where Max-Min overflows
	return d < uint64(denseSlack*len(c.Vals)+1024) || d < 1<<16
}

// index returns the column's value index, building it on first use, or nil
// when the column is empty or its span too wide for a dense key array.
func (c *Column) index() *valueIndex {
	c.ixOnce.Do(func() {
		if c.Dense() {
			c.ix = buildValueIndex(c.Vals, c.Min, c.Max)
		}
	})
	return c.ix
}

// buildValueIndex is a counting sort of the row ids by value.
func buildValueIndex(vals []int64, min, max int64) *valueIndex {
	span := int(max-min) + 1
	off := make([]int32, span+1)
	for _, v := range vals {
		off[v-min]++
	}
	var end int32
	unique := true
	for k := 0; k < span; k++ {
		unique = unique && off[k] == 1
		end += off[k]
		off[k] = end
	}
	off[span] = end
	// Each group's end moves down to its start as the group fills back to
	// front, which leaves the row ids ascending within it.
	rows := make([]int32, len(vals))
	for r := len(vals) - 1; r >= 0; r-- {
		k := vals[r] - min
		off[k]--
		rows[off[k]] = int32(r)
	}
	return &valueIndex{min: min, max: max, offsets: off, rows: rows, unique: unique}
}

// valueRange returns the slot range [lo, hi) of value v's rows, empty when v
// lies outside [min, max].
func (ix *valueIndex) valueRange(v int64) (lo, hi int32) {
	if v < ix.min || v > ix.max {
		return 0, 0
	}
	return ix.offsets[v-ix.min], ix.offsets[v-ix.min+1]
}

// predRange returns the slot range [lo, hi) of the rows satisfying
// "value op lit": one contiguous range, because the groups are in value
// order.
func (ix *valueIndex) predRange(op Op, lit int64) (lo, hi int32) {
	n := int32(len(ix.rows))
	switch op {
	case OpEq:
		return ix.valueRange(lit)
	case OpLt:
		switch {
		case lit <= ix.min:
			return 0, 0
		case lit > ix.max:
			return 0, n
		}
		return 0, ix.offsets[lit-ix.min]
	case OpGt:
		switch {
		case lit < ix.min:
			return 0, n
		case lit >= ix.max:
			return n, n
		}
		return ix.offsets[lit-ix.min+1], n
	}
	return 0, 0
}
