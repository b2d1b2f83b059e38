package featurize

import (
	"math"
	"math/rand"
	"sync"
	"testing"

	"deepsketch/internal/datagen"
	"deepsketch/internal/db"
	"deepsketch/internal/nn"
	"deepsketch/internal/sample"
	"deepsketch/internal/workload"
)

// The compact featurization writes valued runs and never a dense row; the
// dense rows of EncodeQuery are those runs expanded. The fuzz test below
// checks both against a dense reference that shares no code with them.

var (
	compactOnce sync.Once
	compactDBs  [2]*db.DB // imdb, tpch
)

func compactDB(schema uint8) *db.DB {
	compactOnce.Do(func() {
		compactDBs[0] = datagen.IMDb(datagen.IMDbConfig{Seed: 41, Titles: 500, Keywords: 40, Companies: 20, Persons: 80})
		compactDBs[1] = datagen.TPCH(datagen.TPCHConfig{Seed: 42, Orders: 300})
	})
	return compactDBs[schema%2]
}

// referenceRows featurizes q into dense rows the way the paper describes
// it, bit by bit: a table row is its one-hot plus a 1 for every set bit
// i < min(N, SampleSize) of its bitmap, a join row its one-hot (one zero
// row for no join), a predicate row its column's and operator's one-hots
// and its normalized literal (one zero row for no predicate).
func referenceRows(e *Encoder, q db.Query, bms map[string]sample.Bitmap) [3][][]float64 {
	var sets [3][][]float64
	tableOf := map[string]string{}
	for _, tr := range q.Tables {
		tableOf[tr.Alias] = tr.Table
		v := make([]float64, e.TableDim())
		v[e.tableIdx[tr.Table]] = 1
		if e.SampleSize > 0 {
			bm := bms[tr.Alias]
			for i := 0; i < min(bm.N, e.SampleSize); i++ {
				if bm.Get(i) {
					v[len(e.Tables)+i] = 1
				}
			}
		}
		sets[0] = append(sets[0], v)
	}
	for _, jn := range q.Joins {
		v := make([]float64, e.JoinDim())
		v[e.joinIdx[canonicalJoin(tableOf[jn.LeftAlias], jn.LeftCol, tableOf[jn.RightAlias], jn.RightCol)]] = 1
		sets[1] = append(sets[1], v)
	}
	if len(q.Joins) == 0 {
		sets[1] = append(sets[1], make([]float64, e.JoinDim()))
	}
	for _, p := range q.Preds {
		key := tableOf[p.Alias] + "." + p.Col
		v := make([]float64, e.PredDim())
		v[e.colIdx[key]] = 1
		v[len(e.Columns)+int(p.Op)] = 1
		v[len(e.Columns)+db.NumOps] = e.normalizeLiteral(key, p.Val)
		sets[2] = append(sets[2], v)
	}
	if len(q.Preds) == 0 {
		sets[2] = append(sets[2], make([]float64, e.PredDim()))
	}
	return sets
}

// plantedBitmap draws a bitmap of n bits for the given mode: 1 random words
// (stray bits past n included), 2 runs of ones that straddle word
// boundaries, 3 full or empty.
func plantedBitmap(rng *rand.Rand, mode, n int) sample.Bitmap {
	bm := sample.NewBitmap(n)
	switch mode {
	case 1:
		for i := range bm.Bits {
			bm.Bits[i] = rng.Uint64() & rng.Uint64()
			if rng.Intn(2) == 0 {
				bm.Bits[i] |= rng.Uint64()
			}
		}
	case 2:
		for w := 1; w*64 < n; w++ {
			if rng.Intn(3) > 0 {
				lo, hi := max(w*64-1-rng.Intn(70), 0), min(w*64+1+rng.Intn(70), n)
				for i := lo; i < hi; i++ {
					bm.Set(i)
				}
			}
		}
	case 3:
		if rng.Intn(2) == 0 {
			for i := range bm.Bits {
				bm.Bits[i] = ^uint64(0)
			}
		}
	}
	return bm
}

// FuzzCompactRowsMatchIndex: for generated imdb and tpch queries, the
// valued runs EncodeQueryTo writes equal, run for run and bit for bit, the
// maximal runs nn.Index finds over EncodeQuery's dense rows, and those rows
// equal the bit-by-bit reference (referenceRows). plant's low two bits pick
// the bitmaps — 0 the sample's own, else plantedBitmap's, of a width N that
// need not be SampleSize nor a multiple of 64 — bit 2 plants literals that
// normalize to exactly 0 (dropped from the runs, as Index drops a zero)
// and to 1, with the operator whose one-hot sits next to the literal's
// column, and bit 3 adds a query over the last table alone with a full
// bitmap, its one-hot next to bitmap bit 0. A SampleSize of 0 is the
// no-bitmap ablation.
func FuzzCompactRowsMatchIndex(f *testing.F) {
	f.Add(uint8(0), int64(1), uint16(64), uint8(0))   // imdb, the sample's bitmaps
	f.Add(uint8(1), int64(2), uint16(32), uint8(0))   // tpch, the sample's bitmaps
	f.Add(uint8(0), int64(3), uint16(0), uint8(4))    // no bitmaps at all
	f.Add(uint8(1), int64(4), uint16(100), uint8(1))  // N ≠ SampleSize, not a multiple of 64
	f.Add(uint8(0), int64(5), uint16(130), uint8(2))  // runs across word boundaries
	f.Add(uint8(1), int64(6), uint16(128), uint8(3))  // full and empty bitmaps
	f.Add(uint8(0), int64(7), uint16(65), uint8(12))  // literals 0 and 1, the last table's one-hot
	f.Add(uint8(1), int64(8), uint16(200), uint8(14)) // everything planted at once
	f.Fuzz(func(t *testing.T, schema uint8, seed int64, size uint16, plant uint8) {
		d := compactDB(schema)
		sampleSize := int(size % 300)
		rng := rand.New(rand.NewSource(seed))
		e, err := NewEncoder(d, nil, sampleSize)
		if err != nil {
			t.Fatal(err)
		}
		g, err := workload.NewGenerator(d, workload.GenConfig{Seed: seed, Count: 12, MaxJoins: 3, MaxPreds: 3})
		if err != nil {
			t.Fatal(err)
		}
		qs := g.Generate()
		last := e.Tables[len(e.Tables)-1]
		if plant&8 != 0 {
			qs = append(qs, db.Query{Tables: []db.TableRef{{Table: last, Alias: "z"}}})
		}
		var samples *sample.Set
		if sampleSize > 0 && plant&3 == 0 {
			if samples, err = sample.New(d, nil, sampleSize, seed); err != nil {
				t.Fatal(err)
			}
		}
		for qi, q := range qs {
			if plant&4 != 0 {
				for pi := range q.Preds {
					p := &q.Preds[pi]
					tr, _ := q.RefByAlias(p.Alias)
					key := tr.Table + "." + p.Col
					switch rng.Intn(4) {
					case 0:
						p.Val = int64(e.ColMin[key]) // normalizes to 0
					case 1:
						p.Val, p.Op = int64(e.ColMax[key]), db.Op(db.NumOps-1) // to 1, beside the operator
					case 2:
						p.Val = int64(e.ColMax[key]) + 1 + rng.Int63n(5) // clamped to 1
					}
				}
			}
			bms := map[string]sample.Bitmap{}
			switch {
			case sampleSize == 0:
			case samples != nil:
				if bms, err = samples.Bitmaps(q); err != nil {
					t.Fatal(err)
				}
			default:
				for _, tr := range q.Tables {
					n := max(sampleSize+rng.Intn(140)-70, 0)
					bms[tr.Alias] = plantedBitmap(rng, int(plant&3), n)
				}
			}
			if plant&8 != 0 && qi == len(qs)-1 && sampleSize > 0 {
				bm := plantedBitmap(rng, 0, sampleSize)
				for i := range bm.Bits {
					bm.Bits[i] = ^uint64(0)
				}
				bms["z"] = bm
			}
			checkCompactRows(t, e, q, bms)
		}
	})
}

// checkCompactRows compares, for one query, EncodeQueryTo's runs with
// nn.Index over EncodeQuery's dense rows, and those with referenceRows.
func checkCompactRows(t *testing.T, e *Encoder, q db.Query, bms map[string]sample.Bitmap) {
	t.Helper()
	var compact [3]nn.RunIndex
	for k, dim := range [3]int{e.TableDim(), e.JoinDim(), e.PredDim()} {
		compact[k].Reset(dim)
	}
	if err := e.EncodeQueryTo(q, bms, &compact[0], &compact[1], &compact[2]); err != nil {
		t.Fatalf("%s: %v", q.SQL(nil), err)
	}
	enc, err := e.EncodeQuery(q, bms)
	if err != nil {
		t.Fatal(err)
	}
	ref := referenceRows(e, q, bms)
	for k, rows := range [3][][]float64{enc.TableVecs, enc.JoinVecs, enc.PredVecs} {
		if len(rows) != len(ref[k]) || compact[k].Rows() != len(ref[k]) {
			t.Fatalf("%s: set %d has %d dense rows and %d compact, reference %d", q.SQL(nil), k, len(rows), compact[k].Rows(), len(ref[k]))
		}
		x := nn.NewMatrix(len(rows), compact[k].Cols())
		for r, row := range rows {
			for c := range row {
				if math.Float64bits(row[c]) != math.Float64bits(ref[k][r][c]) {
					t.Fatalf("%s: set %d row %d column %d: EncodeQuery %v, reference %v", q.SQL(nil), k, r, c, row[c], ref[k][r][c])
				}
			}
			copy(x.Row(r), row)
		}
		var dense nn.RunIndex
		nn.Index(&dense, x)
		for r := range rows {
			got, want := compact[k].Row(r), dense.Row(r)
			if len(got) != len(want) {
				t.Fatalf("%s: set %d row %d: runs %v, Index finds %v", q.SQL(nil), k, r, got, want)
			}
			for i := range want {
				if got[i].Lo != want[i].Lo || got[i].Hi != want[i].Hi || math.Float64bits(got[i].V) != math.Float64bits(want[i].V) {
					t.Fatalf("%s: set %d row %d: runs %v, Index finds %v", q.SQL(nil), k, r, got, want)
				}
			}
		}
	}
}
