package db

import (
	"bytes"
	"fmt"
	"slices"
	"strconv"
	"strings"
)

// Op is a predicate comparison operator. The paper's query class (and the
// MSCN featurization) supports exactly =, <, and >.
type Op int

const (
	// OpEq is equality (=).
	OpEq Op = iota
	// OpLt is strictly-less-than (<).
	OpLt
	// OpGt is strictly-greater-than (>).
	OpGt
)

// NumOps is the number of predicate operators, used for one-hot widths.
const NumOps = 3

func (o Op) String() string {
	switch o {
	case OpEq:
		return "="
	case OpLt:
		return "<"
	case OpGt:
		return ">"
	default:
		return fmt.Sprintf("Op(%d)", int(o))
	}
}

// ParseOp parses "=", "<" or ">".
func ParseOp(s string) (Op, error) {
	switch s {
	case "=":
		return OpEq, nil
	case "<":
		return OpLt, nil
	case ">":
		return OpGt, nil
	default:
		return 0, fmt.Errorf("db: unknown operator %q", s)
	}
}

// Eval applies the operator to a column value and a literal.
func (o Op) Eval(v, lit int64) bool {
	switch o {
	case OpEq:
		return v == lit
	case OpLt:
		return v < lit
	case OpGt:
		return v > lit
	default:
		return false
	}
}

// TableRef is a table occurrence in a query with its alias (e.g. "title t").
type TableRef struct {
	Table string
	Alias string
}

// JoinPred is an equi-join predicate between two aliased columns
// (a.x = b.y).
type JoinPred struct {
	LeftAlias  string
	LeftCol    string
	RightAlias string
	RightCol   string
}

// Canonical returns the join with sides ordered lexicographically so that
// a.x=b.y and b.y=a.x compare and featurize identically — a requirement of
// the set semantics the MSCN model relies on.
func (j JoinPred) Canonical() JoinPred {
	l := j.LeftAlias + "." + j.LeftCol
	r := j.RightAlias + "." + j.RightCol
	if l <= r {
		return j
	}
	return JoinPred{LeftAlias: j.RightAlias, LeftCol: j.RightCol, RightAlias: j.LeftAlias, RightCol: j.LeftCol}
}

// Predicate is a base-table selection: alias.col <op> literal.
type Predicate struct {
	Alias string
	Col   string
	Op    Op
	Val   int64
}

// Query is a COUNT(*) select-project-join query: a set of tables, a set of
// equi-joins, and a set of conjunctive base-table predicates. Per the MSCN
// set semantics, the order of elements in each slice carries no meaning.
type Query struct {
	Tables []TableRef
	Joins  []JoinPred
	Preds  []Predicate
}

// Clone returns a deep copy of the query.
func (q Query) Clone() Query {
	c := Query{
		Tables: make([]TableRef, len(q.Tables)),
		Joins:  make([]JoinPred, len(q.Joins)),
		Preds:  make([]Predicate, len(q.Preds)),
	}
	copy(c.Tables, q.Tables)
	copy(c.Joins, q.Joins)
	copy(c.Preds, q.Preds)
	return c
}

// RefByAlias returns the table reference with the given alias.
func (q Query) RefByAlias(alias string) (TableRef, bool) {
	for _, r := range q.Tables {
		if r.Alias == alias {
			return r, true
		}
	}
	return TableRef{}, false
}

// PredsFor returns the predicates applying to one alias, preserving order.
func (q Query) PredsFor(alias string) []Predicate {
	var out []Predicate
	for _, p := range q.Preds {
		if p.Alias == alias {
			out = append(out, p)
		}
	}
	return out
}

// SQL renders the query in the demo's SQL dialect:
//
//	SELECT COUNT(*) FROM title t, movie_keyword mk
//	WHERE mk.movie_id=t.id AND t.production_year>2000
//
// String literals are rendered via the database dictionary when db is
// non-nil; otherwise raw codes are printed.
func (q Query) SQL(d *DB) string {
	var b strings.Builder
	b.WriteString("SELECT COUNT(*) FROM ")
	for i, tr := range q.Tables {
		if i > 0 {
			b.WriteString(", ")
		}
		b.WriteString(tr.Table)
		if tr.Alias != "" && tr.Alias != tr.Table {
			b.WriteByte(' ')
			b.WriteString(tr.Alias)
		}
	}
	conds := make([]string, 0, len(q.Joins)+len(q.Preds))
	for _, j := range q.Joins {
		j = j.Canonical()
		conds = append(conds, fmt.Sprintf("%s.%s=%s.%s", j.LeftAlias, j.LeftCol, j.RightAlias, j.RightCol))
	}
	for _, p := range q.Preds {
		lit := fmt.Sprintf("%d", p.Val)
		if d != nil {
			if tr, ok := q.RefByAlias(p.Alias); ok {
				if t := d.Table(tr.Table); t != nil {
					if c := t.Column(p.Col); c != nil && c.Type == ColString {
						lit = fmt.Sprintf("'%s'", c.StringOf(p.Val))
					}
				}
			}
		}
		conds = append(conds, fmt.Sprintf("%s.%s%s%s", p.Alias, p.Col, p.Op, lit))
	}
	if len(conds) > 0 {
		b.WriteString(" WHERE ")
		b.WriteString(strings.Join(conds, " AND "))
	}
	return b.String()
}

// Signature returns a canonical, order-independent key for the query, used
// for de-duplicating generated workloads. Two queries that are equal as sets
// share a signature.
//
// It is the sorted "table alias" list, the sorted canonical joins and the
// sorted "alias.col<op><literal>" predicates, each list joined by "," and
// the three by "|". Canary splits hash it and WAL records store it, so
// these bytes must never change. Every clause is rendered once into one
// buffer and each list is sorted as spans of it.
func (q Query) Signature() string {
	var scratch [512]byte
	buf := scratch[:0]
	spans := make([]span, 0, len(q.Tables)+len(q.Joins)+len(q.Preds))
	for _, t := range q.Tables {
		lo := len(buf)
		buf = append(append(append(buf, t.Table...), ' '), t.Alias...)
		spans = append(spans, span{lo, len(buf)})
	}
	for _, j := range q.Joins {
		// The join's canonical side order, as JoinPred.Canonical decides it,
		// without building its two strings.
		lo := len(buf)
		buf = append(append(append(buf, j.LeftAlias...), '.'), j.LeftCol...)
		mid := len(buf)
		buf = append(append(append(append(buf, '='), j.RightAlias...), '.'), j.RightCol...)
		if bytes.Compare(buf[lo:mid], buf[mid+1:]) > 0 {
			hi := len(buf)
			buf = append(append(append(buf, buf[mid+1:hi]...), '='), buf[lo:mid]...)
			lo = hi
		}
		spans = append(spans, span{lo, len(buf)})
	}
	for _, p := range q.Preds {
		lo := len(buf)
		buf = append(append(append(buf, p.Alias...), '.'), p.Col...)
		buf = strconv.AppendInt(append(buf, p.Op.String()...), p.Val, 10)
		spans = append(spans, span{lo, len(buf)})
	}
	nt, nj := len(q.Tables), len(q.Tables)+len(q.Joins)
	var b strings.Builder
	b.Grow(len(buf) + len(spans) + 2)
	for i, list := range [3][]span{spans[:nt], spans[nt:nj], spans[nj:]} {
		if i > 0 {
			b.WriteByte('|')
		}
		slices.SortFunc(list, func(x, y span) int { return bytes.Compare(buf[x.lo:x.hi], buf[y.lo:y.hi]) })
		for k, sp := range list {
			if k > 0 {
				b.WriteByte(',')
			}
			b.Write(buf[sp.lo:sp.hi])
		}
	}
	return b.String()
}

// span is one rendered clause of Signature's buffer.
type span struct{ lo, hi int }

// ValidateQuery checks the query against the database schema: aliases are
// unique, tables and columns exist, joins reference in-query aliases, and
// the join graph is connected when more than one table is present.
func (d *DB) ValidateQuery(q Query) error {
	if len(q.Tables) == 0 {
		return fmt.Errorf("db: query has no tables")
	}
	seen := map[string]string{}
	for _, tr := range q.Tables {
		if tr.Alias == "" {
			return fmt.Errorf("db: table %s has empty alias", tr.Table)
		}
		if _, dup := seen[tr.Alias]; dup {
			return fmt.Errorf("db: duplicate alias %s", tr.Alias)
		}
		t := d.Table(tr.Table)
		if t == nil {
			return fmt.Errorf("db: unknown table %s", tr.Table)
		}
		seen[tr.Alias] = tr.Table
	}
	checkCol := func(alias, col string) error {
		tbl, ok := seen[alias]
		if !ok {
			return fmt.Errorf("db: unknown alias %s", alias)
		}
		if d.Table(tbl).Column(col) == nil {
			return fmt.Errorf("db: unknown column %s.%s (table %s)", alias, col, tbl)
		}
		return nil
	}
	for _, j := range q.Joins {
		if err := checkCol(j.LeftAlias, j.LeftCol); err != nil {
			return err
		}
		if err := checkCol(j.RightAlias, j.RightCol); err != nil {
			return err
		}
		if j.LeftAlias == j.RightAlias {
			return fmt.Errorf("db: self-join predicate on alias %s unsupported", j.LeftAlias)
		}
	}
	for _, p := range q.Preds {
		if err := checkCol(p.Alias, p.Col); err != nil {
			return err
		}
	}
	if len(q.Tables) > 1 {
		if !q.connected() {
			return fmt.Errorf("db: join graph is not connected (cross products unsupported)")
		}
	}
	return nil
}

func (q Query) connected() bool {
	if len(q.Tables) == 0 {
		return false
	}
	adj := map[string][]string{}
	for _, j := range q.Joins {
		adj[j.LeftAlias] = append(adj[j.LeftAlias], j.RightAlias)
		adj[j.RightAlias] = append(adj[j.RightAlias], j.LeftAlias)
	}
	visited := map[string]bool{q.Tables[0].Alias: true}
	stack := []string{q.Tables[0].Alias}
	for len(stack) > 0 {
		a := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, n := range adj[a] {
			if !visited[n] {
				visited[n] = true
				stack = append(stack, n)
			}
		}
	}
	return len(visited) == len(q.Tables)
}
