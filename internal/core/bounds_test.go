package core

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"math"
	"runtime"
	"strings"
	"testing"

	"deepsketch/internal/datagen"
	"deepsketch/internal/mscn"
)

// maxLoadGrowth is how much memory the process may obtain from the OS while
// Load refuses a forged file. The test sketch is ≈ 100 KB; the forged fields
// below ask for up to 32 GiB.
const maxLoadGrowth = 64 << 20

// loadBounded runs Load on data and fails the test if it panics or the
// runtime obtains more than maxLoadGrowth from the OS meanwhile.
func loadBounded(t testing.TB, data []byte) (*Sketch, error) {
	t.Helper()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	s, err := Load(bytes.NewReader(data))
	runtime.ReadMemStats(&after)
	if after.Sys > before.Sys+maxLoadGrowth {
		t.Fatalf("Load grew the process by %d MiB", (after.Sys-before.Sys)>>20)
	}
	return s, err
}

// sketchFields walks a serialized sketch and returns the offset of every
// u32 length or count field of the format, the first of each kind.
func sketchFields(t testing.TB, blob []byte) map[string]int {
	t.Helper()
	u32 := func(off int) int { return int(binary.LittleEndian.Uint32(blob[off:])) }
	f := map[string]int{"header length": 8}
	off := 12 + u32(8)

	f["parameter count"] = off
	f["parameter block length"] = off + 4
	nParams, params := u32(off), 0
	off += 4
	for i := 0; i < nParams; i++ {
		params += u32(off)
		off += 4 + 8*u32(off)
	}

	f["table count"] = off
	nTables := u32(off)
	off += 4
	for ti := 0; ti < nTables; ti++ {
		first := func(name string, at int) {
			if _, ok := f[name]; !ok {
				f[name] = at
			}
		}
		first("table name length", off)
		off += 4 + u32(off) + 8 // name, source rows
		first("rows", off)
		first("column count", off+4)
		rows, nCols := u32(off), u32(off+4)
		off += 8
		for ci := 0; ci < nCols; ci++ {
			first("column name length", off)
			off += 4 + u32(off) + 1 // name, type
			first("dictionary length", off)
			dictLen := u32(off)
			off += 4
			for di := 0; di < dictLen; di++ {
				first("dictionary string length", off)
				off += 4 + u32(off)
			}
			off += 8 * rows
		}
	}

	if blob[off] != 1 {
		t.Fatal("test sketch carries no optimizer state")
	}
	f["optimizer parameter count"] = off + 1 + 8
	f["optimizer block length"] = off + 1 + 8 + 4
	if end := off + 1 + 8 + 4 + 4*nParams + 16*params; end != len(blob) {
		t.Fatalf("walked %d bytes of a %d-byte sketch: the walker no longer matches the format", end, len(blob))
	}
	return f
}

// TestLoadRefusesOverDeclaredLengths: every length and count the format
// carries, set to 0xffffffff and to one more than the truth, must make Load
// return an error without allocating for the claim — in the binary sections
// and in the header's own hidden_units / sample_size (those also negative),
// which size the model before a single weight is read.
func TestLoadRefusesOverDeclaredLengths(t *testing.T) {
	_, s := getSketch(t)
	var buf bytes.Buffer
	if err := s.Save(&buf); err != nil {
		t.Fatal(err)
	}
	blob := buf.Bytes()
	if _, err := loadBounded(t, blob); err != nil {
		t.Fatalf("unmodified sketch: %v", err)
	}

	for name, off := range sketchFields(t, blob) {
		actual := binary.LittleEndian.Uint32(blob[off:])
		for _, v := range []uint32{0xffffffff, actual + 1} {
			mut := bytes.Clone(blob)
			binary.LittleEndian.PutUint32(mut[off:], v)
			if _, err := loadBounded(t, mut); err == nil {
				t.Errorf("%s = %d (really %d): Load accepted the file", name, v, actual)
			}
		}
	}

	// The same forgeries, and a negative value, for the dimensions the JSON
	// header declares.
	hdrLen := int(binary.LittleEndian.Uint32(blob[8:]))
	for _, path := range [][]string{{"config", "model", "hidden_units"}, {"encoder", "sample_size"}} {
		dec := json.NewDecoder(bytes.NewReader(blob[12 : 12+hdrLen]))
		dec.UseNumber() // keep every other number's text as it is
		var hdr map[string]any
		if err := dec.Decode(&hdr); err != nil {
			t.Fatal(err)
		}
		obj := hdr
		for _, key := range path[:len(path)-1] {
			obj = obj[key].(map[string]any)
		}
		field := path[len(path)-1]
		actual, err := obj[field].(json.Number).Int64()
		if err != nil {
			t.Fatal(err)
		}
		for _, v := range []int64{0xffffffff, actual + 1, -100} {
			obj[field] = v
			forged, err := json.Marshal(hdr)
			if err != nil {
				t.Fatal(err)
			}
			mut := bytes.Clone(blob[:8])
			mut = binary.LittleEndian.AppendUint32(mut, uint32(len(forged)))
			mut = append(append(mut, forged...), blob[12+hdrLen:]...)
			if _, err := loadBounded(t, mut); err == nil {
				t.Errorf("header %s = %d (really %d): Load accepted the file", strings.Join(path, "."), v, actual)
			}
		}
	}
}

// FuzzLoadSketch: no input makes Load panic or allocate beyond its bound.
// The seed is the smallest sketch Build will make (≈ 7 KB), so the fuzzer
// spends its time mutating fields, not minimizing megabytes.
func FuzzLoadSketch(f *testing.F) {
	d := datagen.IMDb(datagen.IMDbConfig{Seed: 1, Titles: 40, Keywords: 4, Companies: 3, Persons: 8})
	s, err := Build(d, Config{
		SampleSize: 4, TrainQueries: 10, MaxJoins: 1, MaxPreds: 1, Seed: 1,
		Model: mscn.Config{HiddenUnits: 2, Epochs: 1, BatchSize: 8, Seed: 1},
	}, nil)
	if err != nil {
		f.Fatal(err)
	}
	var buf bytes.Buffer
	if err := s.Save(&buf); err != nil {
		f.Fatal(err)
	}
	f.Add(buf.Bytes())
	// The same sketch with its first weight replaced by +Inf: Load must
	// refuse it (weights are finite in every model that loads).
	inf := bytes.Clone(buf.Bytes())
	binary.LittleEndian.PutUint64(inf[sketchFields(f, inf)["parameter block length"]+4:], math.Float64bits(math.Inf(1)))
	if _, err := loadBounded(f, inf); err == nil || !strings.Contains(err.Error(), "table1.W[0]") {
		f.Fatalf("a sketch with an infinite weight: Load error = %v, want one naming table1.W[0]", err)
	}
	f.Add(inf)
	f.Fuzz(func(t *testing.T, data []byte) {
		loadBounded(t, data)
	})
}
