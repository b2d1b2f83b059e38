package db

// countBruteForce computes COUNT(*) by exhaustive nested-loop enumeration,
// evaluating every predicate row by row with Op.Eval. It is exponential in
// the number of tables and shares no code with Count or FilterTable: it is
// the reference implementation the tests validate Count against. Do not use it
// on full-size datasets.
func (d *DB) countBruteForce(q Query) (int64, error) {
	if err := d.ValidateQuery(q); err != nil {
		return 0, err
	}
	type tbl struct {
		ref  TableRef
		t    *Table
		rows []int32
	}
	tbls := make([]tbl, len(q.Tables))
	for i, tr := range q.Tables {
		t := d.Table(tr.Table)
		var rows []int32
	row:
		for r := 0; r < t.NumRows(); r++ {
			for _, p := range q.Preds {
				if p.Alias == tr.Alias && !p.Op.Eval(t.Column(p.Col).Vals[r], p.Val) {
					continue row
				}
			}
			rows = append(rows, int32(r))
		}
		tbls[i] = tbl{ref: tr, t: t, rows: rows}
	}
	aliasIdx := map[string]int{}
	for i, tb := range tbls {
		aliasIdx[tb.ref.Alias] = i
	}
	assignment := make([]int32, len(tbls))
	var count int64
	var rec func(depth int)
	rec = func(depth int) {
		if depth == len(tbls) {
			count++
			return
		}
	next:
		for _, r := range tbls[depth].rows {
			assignment[depth] = r
			for _, j := range q.Joins {
				li, ri := aliasIdx[j.LeftAlias], aliasIdx[j.RightAlias]
				if li > depth || ri > depth {
					continue
				}
				lv := tbls[li].t.Column(j.LeftCol).Vals[assignment[li]]
				rv := tbls[ri].t.Column(j.RightCol).Vals[assignment[ri]]
				if lv != rv {
					continue next
				}
			}
			rec(depth + 1)
		}
	}
	rec(0)
	return count, nil
}
