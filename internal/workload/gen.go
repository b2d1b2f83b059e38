// Package workload generates and manages query workloads: the uniformly
// distributed training queries of the paper's step 2, the JOB-light
// evaluation workload of Table 1, and the demo's template queries with
// placeholder columns.
package workload

import (
	"fmt"
	"math/rand"
	"strings"

	"deepsketch/internal/datagen"
	"deepsketch/internal/db"
)

// GenConfig controls uniform training-query generation.
type GenConfig struct {
	Seed  int64
	Count int
	// Tables restricts generation to a subset of tables (the sketch's table
	// set); nil means all tables.
	Tables []string
	// MaxJoins caps the number of join predicates per query (tables-1).
	// Default 2 (up to three-way joins), matching "for a small number of
	// tables" interactive sketches; JOB-light needs 4.
	MaxJoins int
	// MaxPreds caps the number of selection predicates per query. Default 3.
	MaxPreds int
	// Dedup drops duplicate queries (same signature). Default true via
	// NewGenConfig; zero value means no dedup.
	Dedup bool
}

// Generator produces uniformly distributed queries over a database schema,
// mirroring the paper's training-data generation: "uniformly choose tables,
// columns, and predicate types; draw literals from database".
type Generator struct {
	d        *db.DB
	cfg      GenConfig
	rng      *rand.Rand
	tables   []string
	inSet    map[string]bool
	aliasOf  map[string]string
	predCols map[string][]db.PredColumn
}

// NewGenerator validates the config and builds a generator. Tables outside
// the schema are rejected; the chosen table set must allow joins (i.e. be
// FK-connected) for multi-table queries to be generated.
func NewGenerator(d *db.DB, cfg GenConfig) (*Generator, error) {
	if cfg.MaxJoins == 0 {
		cfg.MaxJoins = 2
	}
	if cfg.MaxPreds == 0 {
		cfg.MaxPreds = 3
	}
	tables := cfg.Tables
	if tables == nil {
		tables = d.TableNames()
	}
	inSet := make(map[string]bool, len(tables))
	for _, t := range tables {
		if d.Table(t) == nil {
			return nil, fmt.Errorf("workload: unknown table %s", t)
		}
		inSet[t] = true
	}
	g := &Generator{
		d:        d,
		cfg:      cfg,
		rng:      datagen.NewRand(cfg.Seed ^ 0x9e1d),
		tables:   tables,
		inSet:    inSet,
		aliasOf:  make(map[string]string, len(tables)),
		predCols: make(map[string][]db.PredColumn, len(tables)),
	}
	used := map[string]bool{}
	for _, t := range tables {
		a := AliasFor(t)
		for used[a] {
			a += "x"
		}
		used[a] = true
		g.aliasOf[t] = a
		g.predCols[t] = d.PredColumnsFor(t)
	}
	return g, nil
}

// AliasFor derives the conventional short alias for a table name: initials
// of underscore-separated words ("movie_keyword" -> "mk"), or the first
// letter for single words ("title" -> "t").
func AliasFor(table string) string {
	parts := strings.Split(table, "_")
	var b strings.Builder
	for _, p := range parts {
		if len(p) > 0 {
			b.WriteByte(p[0])
		}
	}
	if b.Len() == 0 {
		return table
	}
	return b.String()
}

// Generate produces cfg.Count uniformly distributed queries.
func (g *Generator) Generate() []db.Query {
	out := make([]db.Query, 0, g.cfg.Count)
	seen := map[string]bool{}
	attempts := 0
	maxAttempts := g.cfg.Count*20 + 100
	for len(out) < g.cfg.Count && attempts < maxAttempts {
		attempts++
		q := g.One()
		if g.cfg.Dedup {
			sig := q.Signature()
			if seen[sig] {
				continue
			}
			seen[sig] = true
		}
		out = append(out, q)
	}
	return out
}

// One produces a single uniformly distributed query.
func (g *Generator) One() db.Query {
	nTables := 1 + g.rng.Intn(g.cfg.MaxJoins+1)
	refs, joins := g.randomConnectedSubgraph(nTables)
	q := db.Query{Tables: refs, Joins: joins}
	q.Preds = g.randomPredicates(refs)
	return q
}

// randomConnectedSubgraph grows a uniformly random FK-connected table set of
// up to n tables, starting at a uniform table and expanding across uniform
// FK edges (the demo auto-adds join predicates from PK/FK relationships the
// same way).
func (g *Generator) randomConnectedSubgraph(n int) ([]db.TableRef, []db.JoinPred) {
	start := g.tables[g.rng.Intn(len(g.tables))]
	member := map[string]bool{start: true}
	refs := []db.TableRef{{Table: start, Alias: g.aliasOf[start]}}
	var joins []db.JoinPred
	for len(refs) < n {
		// Collect FK edges from the current set to new tables inside the
		// allowed table set.
		type candidate struct {
			fk     db.ForeignKey
			newTbl string
		}
		var cands []candidate
		for _, fk := range g.d.FKs {
			if member[fk.Table] && !member[fk.RefTable] && g.inSet[fk.RefTable] {
				cands = append(cands, candidate{fk: fk, newTbl: fk.RefTable})
			}
			if member[fk.RefTable] && !member[fk.Table] && g.inSet[fk.Table] {
				cands = append(cands, candidate{fk: fk, newTbl: fk.Table})
			}
		}
		if len(cands) == 0 {
			break // no way to grow further
		}
		c := cands[g.rng.Intn(len(cands))]
		member[c.newTbl] = true
		refs = append(refs, db.TableRef{Table: c.newTbl, Alias: g.aliasOf[c.newTbl]})
		joins = append(joins, db.JoinPred{
			LeftAlias: g.aliasOf[c.fk.Table], LeftCol: c.fk.Column,
			RightAlias: g.aliasOf[c.fk.RefTable], RightCol: c.fk.RefColumn,
		})
	}
	return refs, joins
}

// randomPredicates draws a uniform number of selections on distinct
// predicate-eligible columns of the chosen tables, with uniform operator
// choice and literals drawn from the actual column data.
func (g *Generator) randomPredicates(refs []db.TableRef) []db.Predicate {
	type slot struct {
		alias string
		table string
		pc    db.PredColumn
	}
	var slots []slot
	for _, r := range refs {
		for _, pc := range g.predCols[r.Table] {
			slots = append(slots, slot{alias: r.Alias, table: r.Table, pc: pc})
		}
	}
	if len(slots) == 0 {
		return nil
	}
	maxP := g.cfg.MaxPreds
	if maxP > len(slots) {
		maxP = len(slots)
	}
	nPreds := g.rng.Intn(maxP + 1)
	// Partial shuffle to pick nPreds distinct columns.
	for i := 0; i < nPreds; i++ {
		j := i + g.rng.Intn(len(slots)-i)
		slots[i], slots[j] = slots[j], slots[i]
	}
	preds := make([]db.Predicate, 0, nPreds)
	for _, s := range slots[:nPreds] {
		op := s.pc.Ops[g.rng.Intn(len(s.pc.Ops))]
		col := g.d.Table(s.table).Column(s.pc.Column)
		if len(col.Vals) == 0 {
			continue
		}
		lit := col.Vals[g.rng.Intn(len(col.Vals))]
		preds = append(preds, db.Predicate{Alias: s.alias, Col: s.pc.Column, Op: op, Val: lit})
	}
	return preds
}
