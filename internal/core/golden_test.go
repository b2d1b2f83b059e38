package core

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"runtime"
	"testing"

	"deepsketch/internal/datagen"
	"deepsketch/internal/mscn"
	"deepsketch/internal/workload"
)

// TestSketchBytesGolden pins the whole creation path to the bit: the
// SHA-256 of what one small Build saves and of what one Refresh of it saves.
// The constants hold every step from labeled query to saved byte — which
// query each example packs, its bitmaps and feature rows, the training run
// and the file — where TestTrainFingerprint, on synthetic feature rows,
// holds only the training loop. The worker count is not an input: every
// width saves the same pair.
func TestSketchBytesGolden(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skipf("constants recorded on amd64; %s may fuse multiply-adds, so the bits differ by platform, not by commit", runtime.GOARCH)
	}
	const (
		wantBuild   = "8238339a352ea81ebf162ad20384cb4fa134c5b4ad2d3b7e5eee5ea93857068f"
		wantRefresh = "2f20b4a0ce4037d6a9ab47cdec69b9566dc0cdad5c5dec25252fc57a5cda0a4a"
	)
	d := datagen.IMDb(datagen.IMDbConfig{Seed: 87, Titles: 500, Keywords: 40, Companies: 20, Persons: 100})
	g, err := workload.NewGenerator(d, workload.GenConfig{Seed: 88, Count: 60, MaxJoins: 2, MaxPreds: 2, Dedup: true})
	if err != nil {
		t.Fatal(err)
	}
	labeled, err := workload.Label(d, g.Generate(), 2, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 3} {
		s, err := Build(d, Config{
			SampleSize: 48, TrainQueries: 150, MaxJoins: 2, MaxPreds: 2, Seed: 11, Workers: workers,
			Model: mscn.Config{HiddenUnits: 8, Epochs: 2, BatchSize: 32, Seed: 11},
		}, nil)
		if err != nil {
			t.Fatal(err)
		}
		ns, err := Refresh(context.Background(), s, labeled, RefreshOptions{Epochs: 2, Workers: workers}, nil)
		if err != nil {
			t.Fatal(err)
		}
		for _, c := range []struct {
			what string
			s    *Sketch
			want string
		}{{"build", s, wantBuild}, {"refresh", ns, wantRefresh}} {
			var buf bytes.Buffer
			if err := c.s.Save(&buf); err != nil {
				t.Fatal(err)
			}
			sum := sha256.Sum256(buf.Bytes())
			if got := hex.EncodeToString(sum[:]); got != c.want {
				t.Errorf("workers %d: %s saves SHA-256 %s, recorded %s", workers, c.what, got, c.want)
			}
		}
	}
}
