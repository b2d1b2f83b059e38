// Package db implements the in-memory column-store database engine that Deep
// Sketches are built over. It plays the role HyPer plays in the paper: it
// stores the (synthetic) IMDb and TPC-H datasets, evaluates base-table
// selections, and computes exact COUNT(*) results for select-project-join
// queries, which become the labels for training and the ground truth for
// evaluation.
//
// The engine stores every column as a dense []int64. String columns are
// dictionary-encoded: values index into a per-column dictionary. The
// supported query class matches the demo's: conjunctive equality/range
// predicates on base tables plus acyclic PK/FK equi-joins.
package db

import (
	"fmt"
	"sort"
	"sync"
)

// ColType distinguishes plain integer columns from dictionary-encoded string
// columns. Both are stored as int64; the distinction matters for display,
// literal drawing, and which predicate operators make sense (< and > are
// meaningless on dictionary codes and the workload generator avoids them).
type ColType int

const (
	// ColInt is a 64-bit integer column.
	ColInt ColType = iota
	// ColString is a dictionary-encoded string column; values are indices
	// into the column dictionary.
	ColString
)

func (t ColType) String() string {
	switch t {
	case ColInt:
		return "int"
	case ColString:
		return "string"
	default:
		return fmt.Sprintf("ColType(%d)", int(t))
	}
}

// Column is a single dense column of a table. A column is immutable once
// constructed: Min and Max describe Vals as it was then, and so does the
// value index (row ids grouped by value) that Count and FilterTable build
// on the column's first use in a selection or join.
type Column struct {
	Name string
	Type ColType
	// Vals holds one value per row. For ColString columns the value is an
	// index into Dict.
	Vals []int64
	// Dict maps dictionary codes to strings for ColString columns; nil for
	// ColInt columns.
	Dict []string
	// Min and Max are the value bounds, computed at construction. Min > Max
	// means the column is empty.
	Min, Max int64

	dictIdx map[string]int64
	ixOnce  sync.Once
	ix      *valueIndex // nil until ixOnce has run, and for columns too wide
}

// NewIntColumn constructs an integer column over vals. The slice is adopted,
// not copied.
func NewIntColumn(name string, vals []int64) *Column {
	c := &Column{Name: name, Type: ColInt, Vals: vals}
	c.freeze()
	return c
}

// NewStringColumn constructs a dictionary-encoded string column. codes index
// into dict. Both slices are adopted, not copied.
func NewStringColumn(name string, codes []int64, dict []string) *Column {
	c := &Column{Name: name, Type: ColString, Vals: codes, Dict: dict}
	c.dictIdx = make(map[string]int64, len(dict))
	for i, s := range dict {
		c.dictIdx[s] = int64(i)
	}
	c.freeze()
	return c
}

func (c *Column) freeze() {
	c.Min, c.Max = 1, 0 // empty marker: Min > Max
	for i, v := range c.Vals {
		if i == 0 {
			c.Min, c.Max = v, v
			continue
		}
		if v < c.Min {
			c.Min = v
		}
		if v > c.Max {
			c.Max = v
		}
	}
}

// Lookup returns the dictionary code of s for a string column.
func (c *Column) Lookup(s string) (int64, bool) {
	if c.dictIdx == nil {
		return 0, false
	}
	v, ok := c.dictIdx[s]
	return v, ok
}

// StringOf renders a value of this column for display: the dictionary entry
// for string columns, the decimal value otherwise.
func (c *Column) StringOf(v int64) string {
	if c.Type == ColString && v >= 0 && int(v) < len(c.Dict) {
		return c.Dict[v]
	}
	return fmt.Sprintf("%d", v)
}

// Table is a named collection of equal-length columns.
type Table struct {
	Name string
	Cols []*Column

	colIdx map[string]int
	rows   int
}

// NewTable constructs a table from its columns. All columns must have the
// same length.
func NewTable(name string, cols ...*Column) (*Table, error) {
	t := &Table{Name: name, Cols: cols, colIdx: make(map[string]int, len(cols))}
	for i, c := range cols {
		if _, dup := t.colIdx[c.Name]; dup {
			return nil, fmt.Errorf("db: table %s: duplicate column %s", name, c.Name)
		}
		t.colIdx[c.Name] = i
		if i == 0 {
			t.rows = len(c.Vals)
		} else if len(c.Vals) != t.rows {
			return nil, fmt.Errorf("db: table %s: column %s has %d rows, want %d",
				name, c.Name, len(c.Vals), t.rows)
		}
	}
	return t, nil
}

// MustNewTable is NewTable that panics on error; intended for generators
// whose column lengths are correct by construction.
func MustNewTable(name string, cols ...*Column) *Table {
	t, err := NewTable(name, cols...)
	if err != nil {
		panic(err)
	}
	return t
}

// NumRows returns the table's row count.
func (t *Table) NumRows() int { return t.rows }

// Column returns the named column, or nil if absent.
func (t *Table) Column(name string) *Column {
	if i, ok := t.colIdx[name]; ok {
		return t.Cols[i]
	}
	return nil
}

// ColumnNames returns the column names in declaration order.
func (t *Table) ColumnNames() []string {
	names := make([]string, len(t.Cols))
	for i, c := range t.Cols {
		names[i] = c.Name
	}
	return names
}

// ForeignKey declares that Table.Column references RefTable.RefColumn.
// The demo UI uses these single PK/FK relationships to auto-generate join
// predicates when multiple tables are selected; our workload generators do
// the same.
type ForeignKey struct {
	Table     string
	Column    string
	RefTable  string
	RefColumn string
}

// PredColumn marks a column as predicate-eligible: the workload generator
// draws selections only on these columns, with the listed operators. String
// columns admit only equality; numeric columns admit =, < and >.
type PredColumn struct {
	Table  string
	Column string
	Ops    []Op
}

// DB is a schema plus its data: a set of tables, primary keys, foreign key
// relationships, and predicate-column metadata.
type DB struct {
	Name   string
	tables map[string]*Table
	order  []string
	// PKs maps table name to its primary key column.
	PKs map[string]string
	FKs []ForeignKey
	// PredCols lists the predicate-eligible columns, in registration order.
	PredCols []PredColumn
}

// NewDB creates an empty database with the given name.
func NewDB(name string) *DB {
	return &DB{Name: name, tables: make(map[string]*Table), PKs: make(map[string]string)}
}

// AddTable registers a table. It returns an error on duplicate names.
func (d *DB) AddTable(t *Table) error {
	if _, dup := d.tables[t.Name]; dup {
		return fmt.Errorf("db: duplicate table %s", t.Name)
	}
	d.tables[t.Name] = t
	d.order = append(d.order, t.Name)
	return nil
}

// MustAddTable is AddTable that panics on error.
func (d *DB) MustAddTable(t *Table) {
	if err := d.AddTable(t); err != nil {
		panic(err)
	}
}

// SetPK declares the primary key column of a table.
func (d *DB) SetPK(table, column string) { d.PKs[table] = column }

// AddFK declares a foreign key relationship.
func (d *DB) AddFK(table, column, refTable, refColumn string) {
	d.FKs = append(d.FKs, ForeignKey{Table: table, Column: column, RefTable: refTable, RefColumn: refColumn})
}

// AddPredColumn marks table.column as predicate-eligible with the given
// operators. With no operators, numeric columns default to {=, <, >} and
// string columns to {=}.
func (d *DB) AddPredColumn(table, column string, ops ...Op) {
	if len(ops) == 0 {
		ops = []Op{OpEq, OpLt, OpGt}
		if t := d.Table(table); t != nil {
			if c := t.Column(column); c != nil && c.Type == ColString {
				ops = []Op{OpEq}
			}
		}
	}
	d.PredCols = append(d.PredCols, PredColumn{Table: table, Column: column, Ops: ops})
}

// PredColumnsFor returns the predicate-eligible columns of one table.
func (d *DB) PredColumnsFor(table string) []PredColumn {
	var out []PredColumn
	for _, pc := range d.PredCols {
		if pc.Table == table {
			out = append(out, pc)
		}
	}
	return out
}

// Table returns the named table, or nil if absent.
func (d *DB) Table(name string) *Table { return d.tables[name] }

// TableNames returns all table names in registration order.
func (d *DB) TableNames() []string {
	names := make([]string, len(d.order))
	copy(names, d.order)
	return names
}

// TotalRows returns the summed row count over all tables.
func (d *DB) TotalRows() int {
	var n int
	for _, name := range d.order {
		n += d.tables[name].NumRows()
	}
	return n
}

// FKsBetween returns the foreign keys connecting two tables, in either
// direction.
func (d *DB) FKsBetween(a, b string) []ForeignKey {
	var out []ForeignKey
	for _, fk := range d.FKs {
		if (fk.Table == a && fk.RefTable == b) || (fk.Table == b && fk.RefTable == a) {
			out = append(out, fk)
		}
	}
	return out
}

// JoinableNeighbors returns the set of tables directly connected to table by
// a foreign key, sorted by name.
func (d *DB) JoinableNeighbors(table string) []string {
	seen := map[string]bool{}
	for _, fk := range d.FKs {
		if fk.Table == table {
			seen[fk.RefTable] = true
		}
		if fk.RefTable == table {
			seen[fk.Table] = true
		}
	}
	out := make([]string, 0, len(seen))
	for t := range seen {
		out = append(out, t)
	}
	sort.Strings(out)
	return out
}

// Validate checks referential consistency of the schema metadata: PK columns
// exist, FK endpoints exist, and FK target is the declared PK of the
// referenced table.
func (d *DB) Validate() error {
	for table, pk := range d.PKs {
		t := d.Table(table)
		if t == nil {
			return fmt.Errorf("db: PK declared on missing table %s", table)
		}
		if t.Column(pk) == nil {
			return fmt.Errorf("db: PK column %s.%s missing", table, pk)
		}
	}
	for _, fk := range d.FKs {
		t := d.Table(fk.Table)
		if t == nil || t.Column(fk.Column) == nil {
			return fmt.Errorf("db: FK source %s.%s missing", fk.Table, fk.Column)
		}
		rt := d.Table(fk.RefTable)
		if rt == nil || rt.Column(fk.RefColumn) == nil {
			return fmt.Errorf("db: FK target %s.%s missing", fk.RefTable, fk.RefColumn)
		}
		if pk, ok := d.PKs[fk.RefTable]; !ok || pk != fk.RefColumn {
			return fmt.Errorf("db: FK %s.%s references %s.%s which is not the declared PK",
				fk.Table, fk.Column, fk.RefTable, fk.RefColumn)
		}
	}
	return nil
}
