package db_test

import (
	"fmt"
	"sort"
	"strings"
	"testing"

	"deepsketch/internal/datagen"
	"deepsketch/internal/db"
	"deepsketch/internal/workload"
)

// referenceSignature is Query.Signature as it was first written, with fmt
// and one string per clause. Signatures are hashed by canary splits and
// stored in WAL records, so the buffered version must return these bytes.
func referenceSignature(q db.Query) string {
	tables := make([]string, len(q.Tables))
	for i, t := range q.Tables {
		tables[i] = t.Table + " " + t.Alias
	}
	sort.Strings(tables)
	joins := make([]string, len(q.Joins))
	for i, j := range q.Joins {
		c := j.Canonical()
		joins[i] = c.LeftAlias + "." + c.LeftCol + "=" + c.RightAlias + "." + c.RightCol
	}
	sort.Strings(joins)
	preds := make([]string, len(q.Preds))
	for i, p := range q.Preds {
		preds[i] = fmt.Sprintf("%s.%s%s%d", p.Alias, p.Col, p.Op, p.Val)
	}
	sort.Strings(preds)
	return strings.Join(tables, ",") + "|" + strings.Join(joins, ",") + "|" + strings.Join(preds, ",")
}

// signatureQueries returns generated queries over both schemas plus the
// JOB-light workload: every shape the daemon keys caches and splits by.
func signatureQueries(t testing.TB) []db.Query {
	t.Helper()
	imdb := datagen.IMDb(datagen.IMDbConfig{Seed: 5, Titles: 600})
	tpch := datagen.TPCH(datagen.TPCHConfig{Seed: 5, Orders: 300})
	var qs []db.Query
	for _, d := range []*db.DB{imdb, tpch} {
		g, err := workload.NewGenerator(d, workload.GenConfig{Seed: 5, Count: 400, MaxJoins: 4, MaxPreds: 3})
		if err != nil {
			t.Fatal(err)
		}
		qs = append(qs, g.Generate()...)
	}
	jl, err := workload.JOBLight(imdb, 5)
	if err != nil {
		t.Fatal(err)
	}
	return append(qs, jl...)
}

func TestSignatureMatchesReference(t *testing.T) {
	qs := signatureQueries(t)
	for _, q := range qs {
		if got, want := q.Signature(), referenceSignature(q); got != want {
			t.Fatalf("Signature = %q, reference %q", got, want)
		}
	}
	// Clause order and join orientation carry no meaning.
	q := db.Query{
		Tables: []db.TableRef{{Table: "title", Alias: "t"}, {Table: "movie_keyword", Alias: "mk"}},
		Joins:  []db.JoinPred{{LeftAlias: "t", LeftCol: "id", RightAlias: "mk", RightCol: "movie_id"}},
		Preds: []db.Predicate{
			{Alias: "t", Col: "production_year", Op: db.OpGt, Val: -3},
			{Alias: "mk", Col: "keyword_id", Op: db.OpEq, Val: 7},
			{Alias: "t", Col: "kind_id", Op: db.Op(9), Val: 1},
		},
	}
	r := db.Query{
		Tables: []db.TableRef{q.Tables[1], q.Tables[0]},
		Joins:  []db.JoinPred{{LeftAlias: "mk", LeftCol: "movie_id", RightAlias: "t", RightCol: "id"}},
		Preds:  []db.Predicate{q.Preds[2], q.Preds[0], q.Preds[1]},
	}
	want := "movie_keyword mk,title t|mk.movie_id=t.id|mk.keyword_id=7,t.kind_idOp(9)1,t.production_year>-3"
	for _, q := range []db.Query{q, r} {
		if got := q.Signature(); got != want {
			t.Errorf("Signature = %q, want %q", got, want)
		}
	}
	if got := (db.Query{}).Signature(); got != "||" {
		t.Errorf("empty query's Signature = %q, want %q", got, "||")
	}
}

// FuzzSignatureMatchesReference decodes a query with arbitrary names —
// empty, sharing prefixes, holding the separators — operators and
// literals, and compares Signature with the fmt reference byte for byte.
func FuzzSignatureMatchesReference(f *testing.F) {
	f.Add([]byte("t\x00title\x00mk\x00movie_keyword\x00"), []byte("t\x00id\x00mk\x00movie_id\x00"), []byte("t\x00year\x00a.b\x00x"), int64(-7))
	f.Add([]byte("a\x00a b\x00a \x00b\x00"), []byte("a\x00.\x00a.\x00\x00"), []byte("=\x00<\x00,\x00|"), int64(1)<<62)
	f.Fuzz(func(t *testing.T, tables, joins, preds []byte, lit int64) {
		q := fuzzSignatureQuery(tables, joins, preds, lit)
		if got, want := q.Signature(), referenceSignature(q); got != want {
			t.Fatalf("Signature = %q, reference %q for %+v", got, want, q)
		}
	})
}

// fuzzSignatureQuery splits each input on NUL into names: tables take them
// in (alias, table) pairs, joins in (alias, col, alias, col) quadruples and
// predicates in (alias, col) pairs, whose operator (valid or not) and
// literal derive from the pair's position and lit.
func fuzzSignatureQuery(tables, joins, preds []byte, lit int64) db.Query {
	names := func(b []byte) []string { return strings.Split(string(b), "\x00") }
	var q db.Query
	for n := names(tables); len(n) >= 2; n = n[2:] {
		q.Tables = append(q.Tables, db.TableRef{Table: n[1], Alias: n[0]})
	}
	for n := names(joins); len(n) >= 4; n = n[4:] {
		q.Joins = append(q.Joins, db.JoinPred{LeftAlias: n[0], LeftCol: n[1], RightAlias: n[2], RightCol: n[3]})
	}
	for i, n := 0, names(preds); len(n) >= 2; i, n = i+1, n[2:] {
		q.Preds = append(q.Preds, db.Predicate{Alias: n[0], Col: n[1], Op: db.Op(i%5 - 1), Val: lit ^ int64(i)<<(i%64)})
	}
	return q
}

// BenchmarkSignature signs each JOB-light query once per iteration.
func BenchmarkSignature(b *testing.B) {
	imdb := datagen.IMDb(datagen.IMDbConfig{Seed: 5, Titles: 600})
	qs, err := workload.JOBLight(imdb, 5)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; b.Loop(); i++ {
		qs[i%len(qs)].Signature()
	}
}
