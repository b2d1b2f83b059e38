package core

import (
	"bufio"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
	"io/fs"

	"deepsketch/internal/db"
	"deepsketch/internal/featurize"
	"deepsketch/internal/mscn"
	"deepsketch/internal/nn"
	"deepsketch/internal/sample"
)

// Serialized sketch format (all integers little-endian):
//
//	magic   "DSKB"
//	version uint32 (currently 2)
//	header  uint32 length + JSON (name, config, encoder, training record)
//	weights nn parameter blocks (see nn.WriteParams)
//	samples per-table columnar dumps, dictionaries included
//	opt     v2 only: uint8 flag, then Adam moments + step count when 1
//	        (see nn.WriteOptState) — what warm-start Refresh resumes from
//
// Version 1 files (no optimizer trailer) still Load; their sketches refresh
// with warm weights but a cold optimizer. The footprint of the whole file
// is the paper's "small footprint size (a few MiBs)" figure, dominated by
// the model weights and the samples.
//
// Nothing in the file depends on the clock or the core count: it is a pure
// function of the database, config and seed it was built from, so two
// builds (or two refreshes of one parent on one workload) save the same
// bytes at any worker count and an artifact's SHA-256 checks a rebuild.
// Files written when the header still carried stage timings ("stage_ms",
// per-epoch "Duration") or the worker count (config "workers") load; those
// fields are ignored.
//
// Load believes no length or count beyond what the input can still supply:
// the header length, the parameter total the header's dimensions imply, and
// every table, column, dictionary and row count are checked against the
// bytes left before anything is allocated for them, so a forged field is an
// error, not an allocation.
const (
	sketchMagic   = "DSKB"
	sketchVersion = 2
)

// MaxSketchBytes is how much Load accepts from an input whose length it
// cannot see (a network stream, a pipe); the daemon caps upload bodies at
// the same figure. Inputs that know their length — files, byte readers —
// are bounded by that length instead.
const MaxSketchBytes = 1 << 28

type header struct {
	Name       string             `json:"name"`
	DBName     string             `json:"db_name"`
	Cfg        Config             `json:"config"`
	Encoder    *featurize.Encoder `json:"encoder"`
	Epochs     []mscn.EpochStats  `json:"epochs"`
	SampleSize int                `json:"sample_set_size"`
}

// Save writes the sketch in the serialized format.
func (s *Sketch) Save(w io.Writer) error {
	_, err := s.save(w)
	return err
}

// FootprintBreakdown reports the serialized size of each sketch component.
type FootprintBreakdown struct {
	Total   int64
	Header  int64
	Weights int64
	Samples int64
}

// Footprint is the size of what Save writes, section by section — the "few
// MiBs" figure from the paper's introduction. It is Save into a counter, so
// it cannot disagree with the file.
func (s *Sketch) Footprint() (FootprintBreakdown, error) { return s.save(io.Discard) }

// save writes the sketch and reports each section's size, read off the
// offsets the writer reaches. The optimizer trailer is model state and
// counts with the weights.
func (s *Sketch) save(w io.Writer) (FootprintBreakdown, error) {
	var fb FootprintBreakdown
	blob, err := json.Marshal(header{
		Name: s.Name(), DBName: s.DBName, Cfg: s.Cfg, Encoder: s.Encoder,
		Epochs: s.Epochs, SampleSize: s.Samples.Size,
	})
	if err != nil {
		return fb, fmt.Errorf("core: marshal header: %w", err)
	}
	cw := &countWriter{w: w}
	bw := bufio.NewWriter(cw)
	offset := func() int64 { return cw.n + int64(bw.Buffered()) }
	if _, err := bw.WriteString(sketchMagic); err != nil {
		return fb, err
	}
	if err := binary.Write(bw, binary.LittleEndian, uint32(sketchVersion)); err != nil {
		return fb, err
	}
	if err := binary.Write(bw, binary.LittleEndian, uint32(len(blob))); err != nil {
		return fb, err
	}
	if _, err := bw.Write(blob); err != nil {
		return fb, err
	}
	fb.Header = offset()
	if err := s.Model.WriteWeights(bw); err != nil {
		return fb, err
	}
	weightsEnd := offset()
	if err := writeSamples(bw, s.Samples, s.Cfg.Tables); err != nil {
		return fb, err
	}
	fb.Samples = offset() - weightsEnd
	if err := writeOptTrailer(bw, s.Model); err != nil {
		return fb, err
	}
	fb.Total = offset()
	fb.Weights = fb.Total - fb.Header - fb.Samples
	return fb, bw.Flush()
}

// countWriter counts the bytes it passes on.
type countWriter struct {
	w io.Writer
	n int64
}

func (c *countWriter) Write(p []byte) (int, error) {
	n, err := c.w.Write(p)
	c.n += int64(n)
	return n, err
}

// writeOptTrailer writes the v2 optimizer-state section: a presence flag,
// then the serialized Adam state for models that have been trained in (or
// restored into) this process.
func writeOptTrailer(w io.Writer, m *mscn.Model) error {
	st := m.OptState()
	if st == nil {
		_, err := w.Write([]byte{0})
		return err
	}
	if _, err := w.Write([]byte{1}); err != nil {
		return err
	}
	return nn.WriteOptState(w, st)
}

// input is what Load parses from: a buffered reader that also knows how
// many bytes its source can still supply.
type input struct {
	*bufio.Reader
	src meter
}

// meter counts down the bytes its reader may still deliver.
type meter struct {
	r    io.Reader
	left int64
}

func (m *meter) Read(p []byte) (int, error) {
	n, err := m.r.Read(p)
	m.left -= int64(n)
	return n, err
}

func newInput(r io.Reader) *input {
	in := &input{src: meter{r: r, left: MaxSketchBytes}}
	switch v := r.(type) {
	case interface{ Len() int }: // bytes.Reader, bytes.Buffer, strings.Reader
		in.src.left = int64(v.Len())
	case interface{ Stat() (fs.FileInfo, error) }: // *os.File
		if fi, err := v.Stat(); err == nil && fi.Mode().IsRegular() {
			in.src.left = fi.Size()
		}
	}
	in.Reader = bufio.NewReader(&in.src)
	return in
}

// fits reports an error unless n items of at least size bytes each can
// still come out of the input. Every count read from the file passes
// through it before it sizes an allocation.
func (in *input) fits(what string, n float64, size int64) error {
	left := in.src.left + int64(in.Buffered())
	if !(n >= 0 && n*float64(size) <= float64(left)) {
		return fmt.Errorf("core: %s: file declares %.0f, input has room for %d", what, n, max(left, 0)/size)
	}
	return nil
}

// Load reads a sketch written by Save and reconstructs the model.
func Load(r io.Reader) (*Sketch, error) {
	br := newInput(r)
	magic := make([]byte, 4)
	if _, err := io.ReadFull(br, magic); err != nil {
		return nil, fmt.Errorf("core: read magic: %w", err)
	}
	if string(magic) != sketchMagic {
		return nil, fmt.Errorf("core: not a sketch file (magic %q)", magic)
	}
	var version uint32
	if err := binary.Read(br, binary.LittleEndian, &version); err != nil {
		return nil, err
	}
	if version < 1 || version > sketchVersion {
		return nil, fmt.Errorf("core: unsupported sketch version %d", version)
	}
	var hdrLen uint32
	if err := binary.Read(br, binary.LittleEndian, &hdrLen); err != nil {
		return nil, err
	}
	if err := br.fits("header bytes", float64(hdrLen), 1); err != nil {
		return nil, err
	}
	blob := make([]byte, hdrLen)
	if _, err := io.ReadFull(br, blob); err != nil {
		return nil, err
	}
	var hdr header
	if err := json.Unmarshal(blob, &hdr); err != nil {
		return nil, fmt.Errorf("core: unmarshal header: %w", err)
	}
	if hdr.Encoder == nil {
		return nil, fmt.Errorf("core: header missing encoder")
	}
	modelCfg := hdr.Cfg.Model
	if modelCfg.Seed == 0 {
		modelCfg.Seed = hdr.Cfg.Seed
	}
	if hdr.Encoder.SampleSize < 0 {
		return nil, fmt.Errorf("core: header sample size %d is negative", hdr.Encoder.SampleSize)
	}
	tdim, jdim, pdim := hdr.Encoder.TableDim(), hdr.Encoder.JoinDim(), hdr.Encoder.PredDim()
	// The header's hidden width and sample size decide how much mscn.New
	// allocates; the weights section must hold 8 bytes for each of them.
	if err := br.fits("model parameters", mscn.NumParamsFor(modelCfg, tdim, jdim, pdim), 8); err != nil {
		return nil, err
	}
	model := mscn.New(modelCfg, tdim, jdim, pdim)
	if err := model.ReadWeights(br); err != nil {
		return nil, err
	}
	samples, err := readSamples(br, hdr.SampleSize, len(hdr.Cfg.Tables))
	if err != nil {
		return nil, err
	}
	if version >= 2 {
		var flag [1]byte
		if _, err := io.ReadFull(br, flag[:]); err != nil {
			return nil, fmt.Errorf("core: read opt-state flag: %w", err)
		}
		if flag[0] == 1 {
			st, err := nn.ReadOptState(br, model.Params())
			if err != nil {
				return nil, err
			}
			model.SetOptState(st)
		}
	}
	cfg := hdr.Cfg
	if cfg.Name == "" {
		cfg.Name = hdr.Name
	}
	return &Sketch{
		Cfg: cfg, Encoder: hdr.Encoder, Model: model,
		Samples: samples, Epochs: hdr.Epochs, DBName: hdr.DBName,
	}, nil
}

func writeString(w io.Writer, s string) error {
	if err := binary.Write(w, binary.LittleEndian, uint32(len(s))); err != nil {
		return err
	}
	_, err := io.WriteString(w, s)
	return err
}

func readString(r *input) (string, error) {
	var n uint32
	if err := binary.Read(r, binary.LittleEndian, &n); err != nil {
		return "", err
	}
	if n > 1<<24 {
		return "", fmt.Errorf("core: string length %d too large", n)
	}
	if err := r.fits("string bytes", float64(n), 1); err != nil {
		return "", err
	}
	buf := make([]byte, n)
	if _, err := io.ReadFull(r, buf); err != nil {
		return "", err
	}
	return string(buf), nil
}

func writeSamples(w io.Writer, set *sample.Set, order []string) error {
	if err := binary.Write(w, binary.LittleEndian, uint32(len(order))); err != nil {
		return err
	}
	for _, name := range order {
		ts := set.For(name)
		if ts == nil {
			return fmt.Errorf("core: missing sample for %s", name)
		}
		if err := writeString(w, ts.Table); err != nil {
			return err
		}
		if err := binary.Write(w, binary.LittleEndian, uint64(ts.SourceRows)); err != nil {
			return err
		}
		if err := binary.Write(w, binary.LittleEndian, uint32(ts.Rows)); err != nil {
			return err
		}
		if err := binary.Write(w, binary.LittleEndian, uint32(len(ts.Data.Cols))); err != nil {
			return err
		}
		for _, c := range ts.Data.Cols {
			if err := writeString(w, c.Name); err != nil {
				return err
			}
			if err := binary.Write(w, binary.LittleEndian, uint8(c.Type)); err != nil {
				return err
			}
			if err := binary.Write(w, binary.LittleEndian, uint32(len(c.Dict))); err != nil {
				return err
			}
			for _, s := range c.Dict {
				if err := writeString(w, s); err != nil {
					return err
				}
			}
			if err := binary.Write(w, binary.LittleEndian, c.Vals); err != nil {
				return err
			}
		}
	}
	return nil
}

// readSamples reads the samples section. size and tables are the header's
// sample size and table count, which the section must agree with.
func readSamples(r *input, size, tables int) (*sample.Set, error) {
	var nTables uint32
	if err := binary.Read(r, binary.LittleEndian, &nTables); err != nil {
		return nil, err
	}
	if int64(nTables) != int64(tables) {
		return nil, fmt.Errorf("core: samples section has %d tables, header lists %d", nTables, tables)
	}
	set := &sample.Set{Size: size, Samples: make(map[string]*sample.TableSample, nTables)}
	for ti := uint32(0); ti < nTables; ti++ {
		name, err := readString(r)
		if err != nil {
			return nil, err
		}
		var sourceRows uint64
		if err := binary.Read(r, binary.LittleEndian, &sourceRows); err != nil {
			return nil, err
		}
		var rows, nCols uint32
		if err := binary.Read(r, binary.LittleEndian, &rows); err != nil {
			return nil, err
		}
		if err := binary.Read(r, binary.LittleEndian, &nCols); err != nil {
			return nil, err
		}
		if int64(rows) > int64(size) {
			return nil, fmt.Errorf("core: sample of %s has %d rows, header sample size is %d", name, rows, size)
		}
		// A column is at least its name length, type and dictionary length.
		if err := r.fits("sample columns", float64(nCols), 9); err != nil {
			return nil, err
		}
		cols := make([]*db.Column, nCols)
		for ci := uint32(0); ci < nCols; ci++ {
			colName, err := readString(r)
			if err != nil {
				return nil, err
			}
			var typ uint8
			if err := binary.Read(r, binary.LittleEndian, &typ); err != nil {
				return nil, err
			}
			var dictLen uint32
			if err := binary.Read(r, binary.LittleEndian, &dictLen); err != nil {
				return nil, err
			}
			if err := r.fits("dictionary entries", float64(dictLen), 4); err != nil {
				return nil, err
			}
			dict := make([]string, dictLen)
			for di := range dict {
				if dict[di], err = readString(r); err != nil {
					return nil, err
				}
			}
			if err := r.fits("sample values", float64(rows), 8); err != nil {
				return nil, err
			}
			vals := make([]int64, rows)
			if err := binary.Read(r, binary.LittleEndian, vals); err != nil {
				return nil, err
			}
			if db.ColType(typ) == db.ColString {
				cols[ci] = db.NewStringColumn(colName, vals, dict)
			} else {
				cols[ci] = db.NewIntColumn(colName, vals)
			}
		}
		data, err := db.NewTable(name, cols...)
		if err != nil {
			return nil, err
		}
		set.Samples[name] = &sample.TableSample{
			Table: name, Rows: int(rows), Data: data, SourceRows: int(sourceRows),
		}
	}
	return set, nil
}
