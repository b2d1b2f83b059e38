package db

import (
	"math/rand"
	"sync"
	"testing"
)

// TestCountTableOrderInvariance: COUNT(*) must not depend on the FROM-list
// order for any random query (the executor roots the join tree at the first
// table, so this exercises every rooting).
func TestCountTableOrderInvariance(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	d := randomStarDB(rng, 15, 80)
	for i := 0; i < 40; i++ {
		q := randomQuery(rng)
		if len(q.Tables) < 2 {
			continue
		}
		want := count(t, d, q)
		for trial := 0; trial < 3; trial++ {
			perm := q.Clone()
			rng.Shuffle(len(perm.Tables), func(a, b int) {
				perm.Tables[a], perm.Tables[b] = perm.Tables[b], perm.Tables[a]
			})
			if got := count(t, d, perm); got != want {
				t.Fatalf("table order changed count %d -> %d for %s", want, got, q.SQL(nil))
			}
		}
	}
}

// TestCountPredicateOrderInvariance: predicate evaluation order must not
// matter (conjunction is commutative).
func TestCountPredicateOrderInvariance(t *testing.T) {
	rng := rand.New(rand.NewSource(101))
	d := randomStarDB(rng, 12, 70)
	for i := 0; i < 40; i++ {
		q := randomQuery(rng)
		if len(q.Preds) < 2 {
			continue
		}
		want := count(t, d, q)
		perm := q.Clone()
		rng.Shuffle(len(perm.Preds), func(a, b int) {
			perm.Preds[a], perm.Preds[b] = perm.Preds[b], perm.Preds[a]
		})
		if got := count(t, d, perm); got != want {
			t.Fatalf("predicate order changed count %d -> %d for %s", want, got, q.SQL(nil))
		}
	}
}

// TestCountJoinDirectionInvariance: a.x=b.y and b.y=a.x are the same join.
func TestCountJoinDirectionInvariance(t *testing.T) {
	rng := rand.New(rand.NewSource(103))
	d := randomStarDB(rng, 10, 60)
	for i := 0; i < 30; i++ {
		q := randomQuery(rng)
		if len(q.Joins) == 0 {
			continue
		}
		want := count(t, d, q)
		flipped := q.Clone()
		for j := range flipped.Joins {
			jp := flipped.Joins[j]
			flipped.Joins[j] = JoinPred{
				LeftAlias: jp.RightAlias, LeftCol: jp.RightCol,
				RightAlias: jp.LeftAlias, RightCol: jp.LeftCol,
			}
		}
		if got := count(t, d, flipped); got != want {
			t.Fatalf("join direction changed count %d -> %d for %s", want, got, q.SQL(nil))
		}
	}
}

// TestCountComplementarity: for any column c and literal v,
// count(c < v) + count(c = v) + count(c > v) = count(*) on a single table.
func TestCountComplementarity(t *testing.T) {
	rng := rand.New(rand.NewSource(107))
	d := randomStarDB(rng, 10, 200)
	fact := d.Table("fact")
	total := int64(fact.NumRows())
	for i := 0; i < 30; i++ {
		v := rng.Int63n(25) - 2
		var sum int64
		for _, op := range []Op{OpLt, OpEq, OpGt} {
			q := Query{
				Tables: []TableRef{{Table: "fact", Alias: "f"}},
				Preds:  []Predicate{{Alias: "f", Col: "val", Op: op, Val: v}},
			}
			sum += count(t, d, q)
		}
		if sum != total {
			t.Fatalf("complementarity violated for v=%d: %d != %d", v, sum, total)
		}
	}
}

// TestCountDisjointEqPartition: the counts of c = v over all distinct v sum
// to the table size.
func TestCountDisjointEqPartition(t *testing.T) {
	rng := rand.New(rand.NewSource(109))
	d := randomStarDB(rng, 8, 120)
	fact := d.Table("fact")
	col := fact.Column("val")
	seen := map[int64]bool{}
	var sum int64
	for _, v := range col.Vals {
		if seen[v] {
			continue
		}
		seen[v] = true
		q := Query{
			Tables: []TableRef{{Table: "fact", Alias: "f"}},
			Preds:  []Predicate{{Alias: "f", Col: "val", Op: OpEq, Val: v}},
		}
		sum += count(t, d, q)
	}
	if sum != int64(fact.NumRows()) {
		t.Fatalf("eq partition sums to %d, want %d", sum, fact.NumRows())
	}
}

// TestStringColumnFilter: dictionary-encoded columns filter by code like any
// int column.
func TestStringColumnFilter(t *testing.T) {
	d := NewDB("s")
	codes := []int64{0, 1, 0, 2, 1, 0}
	d.MustAddTable(MustNewTable("items",
		NewIntColumn("id", []int64{1, 2, 3, 4, 5, 6}),
		NewStringColumn("color", codes, []string{"red", "green", "blue"}),
	))
	col := d.Table("items").Column("color")
	code, ok := col.Lookup("red")
	if !ok {
		t.Fatal("lookup failed")
	}
	q := Query{
		Tables: []TableRef{{Table: "items", Alias: "i"}},
		Preds:  []Predicate{{Alias: "i", Col: "color", Op: OpEq, Val: code}},
	}
	if got := count(t, d, q); got != 3 {
		t.Errorf("count(color=red) = %d, want 3", got)
	}
}

// TestCountDanglingFKRows: fact rows whose FK has no matching dimension row
// must vanish from the join.
func TestCountDanglingFKRows(t *testing.T) {
	d := NewDB("dangling")
	d.MustAddTable(MustNewTable("dim",
		NewIntColumn("id", []int64{1, 2}),
	))
	d.MustAddTable(MustNewTable("fact",
		NewIntColumn("id", []int64{1, 2, 3}),
		NewIntColumn("dim_id", []int64{1, 2, 99}), // 99 dangles
	))
	q := Query{
		Tables: []TableRef{{Table: "fact", Alias: "f"}, {Table: "dim", Alias: "d"}},
		Joins:  []JoinPred{{LeftAlias: "f", LeftCol: "dim_id", RightAlias: "d", RightCol: "id"}},
	}
	if got := count(t, d, q); got != 2 {
		t.Errorf("dangling join count = %d, want 2", got)
	}
}

// TestCountChainJoin exercises a non-star (chain) join tree: d1 <- f -> d2
// is a star; build a real chain a <- b <- c.
func TestCountChainJoin(t *testing.T) {
	d := NewDB("chain")
	d.MustAddTable(MustNewTable("a",
		NewIntColumn("id", []int64{1, 2}),
	))
	d.MustAddTable(MustNewTable("b",
		NewIntColumn("id", []int64{10, 11, 12}),
		NewIntColumn("a_id", []int64{1, 1, 2}),
	))
	d.MustAddTable(MustNewTable("c",
		NewIntColumn("id", []int64{100, 101, 102, 103}),
		NewIntColumn("b_id", []int64{10, 10, 11, 12}),
	))
	q := Query{
		Tables: []TableRef{{Table: "a", Alias: "a"}, {Table: "b", Alias: "b"}, {Table: "c", Alias: "c"}},
		Joins: []JoinPred{
			{LeftAlias: "b", LeftCol: "a_id", RightAlias: "a", RightCol: "id"},
			{LeftAlias: "c", LeftCol: "b_id", RightAlias: "b", RightCol: "id"},
		},
	}
	// Rows: c100-b10-a1, c101-b10-a1, c102-b11-a1, c103-b12-a2 -> 4.
	if got := count(t, d, q); got != 4 {
		t.Errorf("chain count = %d, want 4", got)
	}
	// Filter a to id=1: drops c103 -> 3.
	q.Preds = []Predicate{{Alias: "a", Col: "id", Op: OpEq, Val: 1}}
	if got := count(t, d, q); got != 3 {
		t.Errorf("filtered chain count = %d, want 3", got)
	}
}

// TestCountConcurrentFirstUse: goroutines that race to a freshly built
// database's first counts — and so to building its value indexes — all get
// the sequential answers.
func TestCountConcurrentFirstUse(t *testing.T) {
	const seed = 111
	var qs []Query
	rng := rand.New(rand.NewSource(seed))
	seq := randomStarDB(rng, 40, 300)
	for range 60 {
		qs = append(qs, randomQuery(rng))
	}
	want := make([]int64, len(qs))
	for i, q := range qs {
		want[i] = count(t, seq, q)
	}

	fresh := randomStarDB(rand.New(rand.NewSource(seed)), 40, 300)
	var wg sync.WaitGroup
	for g := range 8 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := range qs {
				i := (k + g*len(qs)/8) % len(qs)
				got, err := fresh.Count(qs[i])
				if err != nil || got != want[i] {
					t.Errorf("goroutine %d, query %d: Count = %d, %v; sequentially %d (%s)",
						g, i, got, err, want[i], qs[i].SQL(nil))
					return
				}
			}
		}()
	}
	wg.Wait()
}
