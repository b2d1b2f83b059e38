package db

import "fmt"

// FilterTable evaluates a conjunction of predicates against a table and
// returns the matching row ids, in no particular order. all=true, with nil
// rows, means every row matches (no predicate excludes one), so callers need
// not materialise a full-table row list. The rows are the caller's own.
//
// A predicate on an indexed column (see Column) is one contiguous range of
// the column's value index, and the predicates on one column intersect to
// one range. The narrowest range supplies the candidate rows and the other
// predicates are checked by value; only a table without an indexed
// predicate column is scanned.
func FilterTable(t *Table, preds []Predicate) (rows []int32, all bool, err error) {
	rows, all, owned, err := selectRows(t, preds, nil)
	if err != nil || all || owned {
		return rows, all, err
	}
	return append([]int32(nil), rows...), false, nil
}

// selectRows is FilterTable for a caller that only reads the rows: unless
// owned, they are the value index's own memory. Owned rows are written to
// dst's backing array when it is large enough.
func selectRows(t *Table, preds []Predicate, dst []int32) (rows []int32, all, owned bool, err error) {
	if len(preds) == 0 {
		return nil, true, false, nil
	}
	n := int32(t.NumRows())
	// The narrowest index range over the predicates' columns.
	var seed *Column
	var seedLo, seedHi int32
	for i, p := range preds {
		c := t.Column(p.Col)
		if c == nil {
			return nil, false, false, fmt.Errorf("db: table %s has no column %s", t.Name, p.Col)
		}
		ix := c.index()
		if ix == nil || c == seed {
			continue
		}
		lo, hi := ix.predRange(p.Op, p.Val)
		for _, p2 := range preds[i+1:] {
			if p2.Col == p.Col {
				lo2, hi2 := ix.predRange(p2.Op, p2.Val)
				lo, hi = max(lo, lo2), min(hi, hi2)
			}
		}
		if hi <= lo {
			return nil, false, false, nil
		}
		if hi-lo < n && (seed == nil || hi-lo < seedHi-seedLo) {
			seed, seedLo, seedHi = c, lo, hi
		}
	}

	// Check by value every predicate the seed range does not imply. A
	// predicate whose own range is the whole table holds on every row.
	out, checked := dst[:0], false
	for _, p := range preds {
		c := t.Column(p.Col)
		if ix := c.index(); ix != nil {
			if c == seed {
				continue
			}
			if lo, hi := ix.predRange(p.Op, p.Val); hi-lo == n {
				continue
			}
		}
		switch {
		case checked:
			out = filterRows(out[:0], out, c, p.Op, p.Val)
		case seed != nil:
			out = filterRows(out, seed.ix.rows[seedLo:seedHi], c, p.Op, p.Val)
		default:
			out = filterFull(out, c, p.Op, p.Val)
		}
		checked = true
		if len(out) == 0 {
			break
		}
	}
	switch {
	case checked:
		return out, false, true, nil
	case seed != nil:
		return seed.ix.rows[seedLo:seedHi], false, false, nil
	}
	return nil, true, false, nil
}

// filterFull appends to dst the ids of the rows of c satisfying op lit.
func filterFull(dst []int32, c *Column, op Op, lit int64) []int32 {
	vals := c.Vals
	switch op {
	case OpEq:
		for i, v := range vals {
			if v == lit {
				dst = append(dst, int32(i))
			}
		}
	case OpLt:
		for i, v := range vals {
			if v < lit {
				dst = append(dst, int32(i))
			}
		}
	case OpGt:
		for i, v := range vals {
			if v > lit {
				dst = append(dst, int32(i))
			}
		}
	}
	return dst
}

// filterRows appends to dst the rows of sel satisfying op lit; dst may be
// sel[:0].
func filterRows(dst, sel []int32, c *Column, op Op, lit int64) []int32 {
	vals := c.Vals
	switch op {
	case OpEq:
		for _, r := range sel {
			if vals[r] == lit {
				dst = append(dst, r)
			}
		}
	case OpLt:
		for _, r := range sel {
			if vals[r] < lit {
				dst = append(dst, r)
			}
		}
	case OpGt:
		for _, r := range sel {
			if vals[r] > lit {
				dst = append(dst, r)
			}
		}
	}
	return dst
}
