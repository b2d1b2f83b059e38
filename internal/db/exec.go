package db

import (
	"fmt"
	"math"
	"sync"
)

// Count computes the exact COUNT(*) of a select-project-join query. It is
// the ground-truth oracle the paper obtains from HyPer: training labels and
// "true cardinality" overlays both come from here.
//
// The algorithm is counting Yannakakis over the join tree: every base table
// is reduced to its qualifying rows, the join graph (which must be a tree —
// the demo auto-generates joins from single PK/FK relationships, so cyclic
// graphs never arise) is rooted at the table with the most joins (the first
// such in the FROM list), and weights are propagated bottom-up. A child
// contributes, per join key, the sum of its row weights; each parent row
// multiplies in the sum matching its key. The final count is the weight sum
// at the root. This is exact for acyclic equi-join queries and runs in time
// linear in the qualifying rows.
//
// Every column is read through its value index, built on the column's first
// use (see Column): selections are FilterTable's index ranges; an
// unfiltered leaf's per-key sums are its join column's group sizes, with no
// pass over its rows; and a parent no predicate or child has narrowed yet is
// entered from a smaller child's distinct keys through its own index rather
// than scanned. A child that is still its whole table, joined on a column
// holding every value of [Min, Max] once, is an identity join for a parent
// whose column lies in that range, and is skipped (see identityJoin). Each
// kind of per-key sum has its own loops, so no row re-tests the kind. A
// column too wide to index is scanned and aggregated in a map. Scratch
// space is pooled, so a count allocates little. Every count is the same as
// a plain scan-and-hash execution's: the weights are integers, so no
// summation order changes one below 2^53.
//
// Counts are accumulated in float64, which is exact up to 2^53; the result
// saturates at MaxInt64 beyond that (unreachable at supported scales).
func (d *DB) Count(q Query) (int64, error) {
	if err := d.ValidateQuery(q); err != nil {
		return 0, err
	}
	if len(q.Joins) != len(q.Tables)-1 {
		return 0, fmt.Errorf("db: join graph must be a tree: %d tables need %d joins, got %d",
			len(q.Tables), len(q.Tables)-1, len(q.Joins))
	}
	s := scratchPool.Get().(*execScratch)
	total, err := s.count(d, q)
	scratchPool.Put(s)
	if err != nil {
		return 0, err
	}
	if total >= math.MaxInt64 {
		return math.MaxInt64, nil
	}
	return int64(total), nil
}

// scratchPool recycles execScratch values between counts.
var scratchPool = sync.Pool{New: func() any { return new(execScratch) }}

// execScratch is one count's working memory. Its buffers keep their
// capacity from count to count, and agg is all zeros between uses.
type execScratch struct {
	nodes []execNode
	preds []Predicate
	agg   []float64
}

// execNode is one table occurrence during execution: its qualifying rows and
// their accumulated weights.
type execNode struct {
	table *Table
	// all means the node is still its whole table at weight 1: no predicate
	// excluded a row and no child but an identity join has been absorbed.
	// rows and weights are unused then.
	all bool
	// rows are the qualifying row ids: a value index's memory, read only,
	// or buf's.
	rows []int32
	// weights is parallel to rows and lives in wbuf; nil means every
	// qualifying row weighs 1.
	weights []float64
	buf     []int32
	wbuf    []float64
}

func (n *execNode) size() int {
	if n.all {
		return n.table.NumRows()
	}
	return len(n.rows)
}

func (s *execScratch) count(d *DB, q Query) (float64, error) {
	if len(s.nodes) < len(q.Tables) {
		s.nodes = append(s.nodes, make([]execNode, len(q.Tables)-len(s.nodes))...)
	}
	for i, tr := range q.Tables {
		n := &s.nodes[i]
		n.table = d.Table(tr.Table)
		s.preds = s.preds[:0]
		for _, p := range q.Preds {
			if p.Alias == tr.Alias {
				s.preds = append(s.preds, p)
			}
		}
		rows, all, owned, err := selectRows(n.table, s.preds, n.buf)
		if err != nil {
			return 0, err
		}
		n.rows, n.all, n.weights = rows, all, nil
		if owned {
			n.buf = rows
		}
		if !all && len(rows) == 0 {
			return 0, nil
		}
	}
	// Root the tree at the table with the most joins, so that a star's
	// fact tables are leaves: an unfiltered one then costs no pass.
	r, most := 0, 0
	for i, tr := range q.Tables {
		joins := 0
		for _, j := range q.Joins {
			if j.LeftAlias == tr.Alias || j.RightAlias == tr.Alias {
				joins++
			}
		}
		if joins > most {
			r, most = i, joins
		}
	}
	root := &s.nodes[r]
	if len(q.Tables) > 1 && !s.reduce(q, r, -1) {
		return 0, nil
	}
	if root.weights == nil {
		return float64(root.size()), nil
	}
	var total float64
	for _, w := range root.weights {
		total += w
	}
	return total, nil
}

// reduce folds the subtree under node i (entered from parent, -1 at the
// root) into node i's row weights, and reports whether any row is left.
// Query trees are at most a handful of tables deep, so recursion is fine.
func (s *execScratch) reduce(q Query, i, parent int) bool {
	type child struct {
		node       *execNode
		pcol, ccol *Column
	}
	var kidsBuf [4]child
	kids := kidsBuf[:0]
	alias := q.Tables[i].Alias
	for _, j := range q.Joins {
		var other, pcol, ccol string
		switch alias {
		case j.LeftAlias:
			other, pcol, ccol = j.RightAlias, j.LeftCol, j.RightCol
		case j.RightAlias:
			other, pcol, ccol = j.LeftAlias, j.RightCol, j.LeftCol
		default:
			continue
		}
		c := aliasIndex(q, other)
		if c == parent {
			continue
		}
		if !s.reduce(q, c, i) {
			return false
		}
		n := &s.nodes[c]
		kid := child{n, s.nodes[i].table.Column(pcol), n.table.Column(ccol)}
		// Absorb narrowing children first, smallest first, and unfiltered
		// leaves last: a narrow child shrinks the parent, and while the
		// parent is whole it is entered through its index, not scanned.
		at := len(kids)
		kids = append(kids, kid)
		for ; at > 0 && absorbBefore(kid.node, kids[at-1].node); at-- {
			kids[at] = kids[at-1]
		}
		kids[at] = kid
	}
	n := &s.nodes[i]
	for _, k := range kids {
		s.absorb(n, k.node, k.pcol, k.ccol)
		if n.size() == 0 {
			return false
		}
	}
	return true
}

func absorbBefore(a, b *execNode) bool {
	if a.all != b.all {
		return b.all
	}
	return a.size() < b.size()
}

func aliasIndex(q Query, alias string) int {
	for i, tr := range q.Tables {
		if tr.Alias == alias {
			return i
		}
	}
	return -1
}

// absorb folds a fully reduced child into the parent: parent row weights are
// multiplied by the child's per-key weight sums, and parent rows without a
// matching child key are dropped. An identity join leaves the parent as it
// is.
func (s *execScratch) absorb(n, child *execNode, pcol, ccol *Column) {
	if child.all && identityJoin(pcol, ccol) {
		return
	}
	a := s.aggregate(child, ccol)
	if n.all && a.dense != nil && child.size() < n.size() {
		if pix := pcol.index(); pix != nil {
			n.enter(pix, &a, child, ccol)
			return
		}
	}
	n.multiply(pcol, &a)
	if a.dense != nil {
		if len(child.rows) > len(a.dense)/8 {
			clear(a.dense)
			return
		}
		for _, r := range child.rows {
			a.dense[ccol.Vals[r]-a.offset] = 0
		}
	}
}

// identityJoin reports whether joining a parent on pcol to the whole table
// of ccol multiplies every parent row by exactly 1: ccol holds every value
// of [Min, Max] once, and pcol's values all lie in that range. A dangling
// key, a gap, a duplicate or a column too wide to index fails the test.
func identityJoin(pcol, ccol *Column) bool {
	ix := ccol.index()
	return ix != nil && ix.unique && ix.min <= pcol.Min && pcol.Max <= ix.max
}

// weightAgg holds a reduced child's row-weight sums per join key: the group
// sizes of the join column's index for an unfiltered leaf; otherwise a
// dense array over the column's value span when it has an index, and a map
// when it is too wide for one.
type weightAgg struct {
	ix     *valueIndex
	dense  []float64 // key-offset → sum; the scratch's pooled array
	offset int64
	m      map[int64]float64
}

// aggregate sums the child's row weights per value of col. A dense sum is
// left in the scratch's pooled array, which the caller zeroes again. Each
// kind of sum, weighted or not, has its own loop.
func (s *execScratch) aggregate(c *execNode, col *Column) weightAgg {
	ix := col.index()
	if ix != nil && c.all {
		return weightAgg{ix: ix}
	}
	vals := col.Vals
	if ix == nil {
		m := make(map[int64]float64, c.size())
		switch {
		case c.all:
			for _, v := range vals {
				m[v]++
			}
		case c.weights == nil:
			for _, r := range c.rows {
				m[vals[r]]++
			}
		default:
			for i, r := range c.rows {
				m[vals[r]] += c.weights[i]
			}
		}
		return weightAgg{m: m}
	}
	span := len(ix.offsets) - 1
	if len(s.agg) < span {
		s.agg = make([]float64, span)
	}
	dense, off := s.agg[:span], ix.min
	if c.weights == nil {
		for _, r := range c.rows {
			dense[vals[r]-off]++
		}
	} else {
		for i, r := range c.rows {
			dense[vals[r]-off] += c.weights[i]
		}
	}
	return weightAgg{dense: dense, offset: off}
}

// groupSize is the number of rows holding v, 0 outside [min, max].
func (ix *valueIndex) groupSize(v int64) float64 {
	lo, hi := ix.valueRange(v)
	return float64(hi - lo)
}

// denseSum is a dense aggregate's sum for key, 0 outside its span.
func denseSum(dense []float64, offset, key int64) float64 {
	if k := uint64(key) - uint64(offset); k < uint64(len(dense)) {
		return dense[k]
	}
	return 0
}

// enter sets a whole, unit-weight parent to the rows matching the child's
// keys, found through the parent's join-column index, each weighted by its
// key's sum. It visits each key once, at its first child row, and zeroes its
// slot there; weights are positive, so a zero slot is a key already done.
func (n *execNode) enter(pix *valueIndex, a *weightAgg, child *execNode, ccol *Column) {
	rows, ws := n.buf[:0], n.wbuf[:0]
	for _, cr := range child.rows {
		k := ccol.Vals[cr]
		slot := &a.dense[k-a.offset]
		w := *slot
		if w == 0 {
			continue
		}
		*slot = 0
		lo, hi := pix.valueRange(k)
		for _, r := range pix.rows[lo:hi] {
			rows = append(rows, r)
			ws = append(ws, w)
		}
	}
	n.set(rows, ws)
}

// multiply scans the parent's rows, multiplying each weight by its key's sum
// and dropping the rows whose sum is zero. The survivors go to buf, in place
// when the rows are already there. Each kind of aggregate has its own loops:
// over the whole table, over unit-weight rows and over weighted rows.
func (n *execNode) multiply(pcol *Column, a *weightAgg) {
	size := n.size()
	if cap(n.buf) < size {
		n.buf = make([]int32, size)
	}
	if cap(n.wbuf) < size {
		n.wbuf = make([]float64, size)
	}
	rows, ws := n.buf[:size], n.wbuf[:size]
	vals := pcol.Vals
	j := 0
	switch ix, dense, off, m := a.ix, a.dense, a.offset, a.m; {
	case ix != nil && n.all:
		for r, v := range vals {
			w := ix.groupSize(v)
			rows[j], ws[j] = int32(r), w
			if w != 0 {
				j++
			}
		}
	case ix != nil && n.weights == nil:
		for _, r := range n.rows {
			w := ix.groupSize(vals[r])
			rows[j], ws[j] = r, w
			if w != 0 {
				j++
			}
		}
	case ix != nil:
		for i, r := range n.rows {
			w := ix.groupSize(vals[r]) * n.weights[i]
			rows[j], ws[j] = r, w
			if w != 0 {
				j++
			}
		}
	case dense != nil && n.all:
		for r, v := range vals {
			w := denseSum(dense, off, v)
			rows[j], ws[j] = int32(r), w
			if w != 0 {
				j++
			}
		}
	case dense != nil && n.weights == nil:
		for _, r := range n.rows {
			w := denseSum(dense, off, vals[r])
			rows[j], ws[j] = r, w
			if w != 0 {
				j++
			}
		}
	case dense != nil:
		for i, r := range n.rows {
			w := denseSum(dense, off, vals[r]) * n.weights[i]
			rows[j], ws[j] = r, w
			if w != 0 {
				j++
			}
		}
	case n.all:
		for r, v := range vals {
			w := m[v]
			rows[j], ws[j] = int32(r), w
			if w != 0 {
				j++
			}
		}
	case n.weights == nil:
		for _, r := range n.rows {
			w := m[vals[r]]
			rows[j], ws[j] = r, w
			if w != 0 {
				j++
			}
		}
	default:
		for i, r := range n.rows {
			w := m[vals[r]] * n.weights[i]
			rows[j], ws[j] = r, w
			if w != 0 {
				j++
			}
		}
	}
	n.set(rows[:j], ws[:j])
}

func (n *execNode) set(rows []int32, ws []float64) {
	n.rows, n.weights, n.buf, n.wbuf = rows, ws, rows, ws
	n.all = false
}
