package wal

import (
	"fmt"
	"testing"
)

// BenchmarkAppend measures WAL append throughput at the default fsync
// batching — the serving path's journaling cost, tracked end to end as
// wal.appends_per_s in BENCHMARK.json.
func BenchmarkAppend(b *testing.B) {
	l, err := Open(b.TempDir(), Options{})
	if err != nil {
		b.Fatal(err)
	}
	defer l.Close()
	r := Record{
		Kind: KindActual, Name: "imdb", Version: 3,
		Signature: "title t|t.id=mk.movie_id|t.production_year>1990",
		SQL:       "SELECT COUNT(*) FROM title t, movie_keyword mk WHERE t.id=mk.movie_id AND t.production_year>1990",
		Estimate:  1234, Actual: 1500, Client: "host-db", Unix: 1,
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r.Signature = r.Signature[:40] + fmt.Sprintf("%08d", i)
		if err := l.Append(r); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAppendSyncEvery measures the fsync-batching sweep: every
// append synced vs the default batch.
func BenchmarkAppendSyncEvery(b *testing.B) {
	for _, every := range []int{1, 64} {
		b.Run(fmt.Sprintf("sync%d", every), func(b *testing.B) {
			l, err := Open(b.TempDir(), Options{SyncEvery: every})
			if err != nil {
				b.Fatal(err)
			}
			defer l.Close()
			r := rec(KindActual, "imdb", "sig", 1, 10, 12, "c")
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := l.Append(r); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkReplay measures startup replay over a populated log.
func BenchmarkReplay(b *testing.B) {
	l, err := Open(b.TempDir(), Options{})
	if err != nil {
		b.Fatal(err)
	}
	defer l.Close()
	for i := 0; i < 5000; i++ {
		if err := l.Append(rec(KindActual, "imdb", fmt.Sprintf("s-%05d", i), 1, 10, 12, "c")); err != nil {
			b.Fatal(err)
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		n := 0
		if err := l.Replay(func(Record) { n++ }); err != nil {
			b.Fatal(err)
		}
		if n != 5000 {
			b.Fatalf("replayed %d", n)
		}
	}
}
