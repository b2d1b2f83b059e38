package db

import (
	"fmt"
	"slices"
	"testing"
)

// FuzzCountMatchesBruteForce checks Count, and FilterTable on every table,
// against the row-by-row reference on a small random star or chain
// database and query decoded from the fuzz input (see fuzzQuery). The seed
// corpus in testdata/ has one entry per edge of the index-based executor:
// literals below Min and above Max for each operator, an empty table, key
// columns too wide to index, duplicate keys on the parent side of a join,
// and each table first in the FROM list.
func FuzzCountMatchesBruteForce(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		d, q := fuzzQuery(data)
		want, err := d.countBruteForce(q)
		if err != nil {
			t.Fatalf("brute force: %v (%s)", err, q.SQL(nil))
		}
		got, err := d.Count(q)
		if err != nil {
			t.Fatalf("count: %v (%s)", err, q.SQL(nil))
		}
		if got != want {
			t.Fatalf("Count=%d, brute force=%d for %s", got, want, q.SQL(nil))
		}

		for _, tr := range q.Tables {
			checkFilterTable(t, d.Table(tr.Table), q.PredsFor(tr.Alias))
		}
	})
}

// checkFilterTable compares FilterTable with a row-by-row evaluation.
func checkFilterTable(t *testing.T, tbl *Table, preds []Predicate) {
	t.Helper()
	var want []int32
row:
	for r := range tbl.NumRows() {
		for _, p := range preds {
			if !p.Op.Eval(tbl.Column(p.Col).Vals[r], p.Val) {
				continue row
			}
		}
		want = append(want, int32(r))
	}
	rows, all, err := FilterTable(tbl, preds)
	if err != nil {
		t.Fatal(err)
	}
	if all {
		if len(want) != tbl.NumRows() {
			t.Fatalf("FilterTable says all %d rows of %s match, %d do", tbl.NumRows(), tbl.Name, len(want))
		}
		return
	}
	slices.Sort(rows)
	if !slices.Equal(rows, want) {
		t.Fatalf("FilterTable(%s) = %v, want %v", tbl.Name, rows, want)
	}
}

// fuzzQuery decodes a database of up to four tables t0..t3, each with
// columns a, b (join keys) and v, and a tree query over them. Bytes past the
// end read as zero. Layout:
//
//	0      shape: even = star around t0, odd = chain t0-t1-t2-t3
//	1      table count, 1 + b%4
//	2      which table comes first in the FROM list, b%count (then cyclic)
//	3      odd = wide keys: a and b values (and their literals) times 2^40,
//	       a span too wide for a value index
//	4..7   row count of t0..t3: b%13
//	8..10  join columns of each join, child then parent: bit 0, bit 1 (a or b)
//	11     predicate count, b%5; then 4 bytes per predicate: table, column
//	       (a, b, v), operator, literal b%14-3 (values are 0..7, so literals
//	       fall below Min and above Max too)
//	then   each table's rows, 3 bytes (a, b, v) per row, each value b%8
func fuzzQuery(data []byte) (*DB, Query) {
	pos := 0
	next := func() int {
		if pos >= len(data) {
			return 0
		}
		pos++
		return int(data[pos-1])
	}
	chain := next()%2 == 1
	nt := 1 + next()%4
	first := next() % nt
	scale := int64(1)
	if next()%2 == 1 {
		scale = 1 << 40
	}
	var rows [4]int
	for i := range rows {
		rows[i] = next() % 13
	}
	var joinCols [3]int
	for i := range joinCols {
		joinCols[i] = next()
	}
	cols := []string{"a", "b", "v"}
	alias := func(i int) string { return fmt.Sprintf("x%d", i) }

	var q Query
	for k := range nt {
		i := (first + k) % nt
		q.Tables = append(q.Tables, TableRef{Table: fmt.Sprintf("t%d", i), Alias: alias(i)})
	}
	for i := 1; i < nt; i++ {
		parent := 0
		if chain {
			parent = i - 1
		}
		q.Joins = append(q.Joins, JoinPred{
			LeftAlias: alias(i), LeftCol: cols[joinCols[i-1]&1],
			RightAlias: alias(parent), RightCol: cols[joinCols[i-1]>>1&1],
		})
	}
	for range next() % 5 {
		p := Predicate{Alias: alias(next() % nt), Col: cols[next()%3], Op: Op(next() % 3)}
		p.Val = int64(next()%14) - 3
		if p.Col != "v" {
			p.Val *= scale
		}
		q.Preds = append(q.Preds, p)
	}

	d := NewDB("fuzz")
	for i := range rows {
		a, b, v := make([]int64, rows[i]), make([]int64, rows[i]), make([]int64, rows[i])
		for r := range rows[i] {
			a[r], b[r], v[r] = int64(next()%8)*scale, int64(next()%8)*scale, int64(next()%8)
		}
		d.MustAddTable(MustNewTable(fmt.Sprintf("t%d", i),
			NewIntColumn("a", a), NewIntColumn("b", b), NewIntColumn("v", v)))
	}
	return d, q
}
