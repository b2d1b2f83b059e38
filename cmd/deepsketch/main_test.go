package main

import (
	"os"
	"path/filepath"
	"testing"
)

// TestCLIEndToEnd drives the real subcommand implementations with tiny
// scales: build a sketch to a temp file, then inspect, query, template, and
// evaluate it against the same (regenerated) dataset.
func TestCLIEndToEnd(t *testing.T) {
	dir := t.TempDir()
	sketchPath := filepath.Join(dir, "t.dsk")
	dbArgs := []string{"-db", "imdb", "-dbseed", "1", "-titles", "1000"}

	build := append([]string{
		"-out", sketchPath, "-samples", "48", "-queries", "150",
		"-epochs", "2", "-hidden", "12", "-batch", "32", "-seed", "3", "-q",
	}, dbArgs...)
	if err := cmdBuild(build); err != nil {
		t.Fatalf("build: %v", err)
	}
	if fi, err := os.Stat(sketchPath); err != nil || fi.Size() == 0 {
		t.Fatalf("sketch file missing: %v", err)
	}

	if err := cmdInfo([]string{"-sketch", sketchPath}); err != nil {
		t.Fatalf("info: %v", err)
	}

	query := append([]string{
		"-sketch", sketchPath, "-truth",
		"-sql", "SELECT COUNT(*) FROM title t WHERE t.production_year>2000",
	}, dbArgs...)
	if err := cmdQuery(query); err != nil {
		t.Fatalf("query: %v", err)
	}

	tpl := append([]string{
		"-sketch", sketchPath, "-group", "buckets", "-buckets", "5",
		"-sql", "SELECT COUNT(*) FROM title t WHERE t.production_year=?",
	}, dbArgs...)
	if err := cmdTemplate(tpl); err != nil {
		t.Fatalf("template: %v", err)
	}

	eval := append([]string{
		"-sketch", sketchPath, "-workload", "uniform", "-count", "25", "-seed", "9",
	}, dbArgs...)
	if err := cmdEval(eval); err != nil {
		t.Fatalf("eval: %v", err)
	}

	// Refresh: warm-start fine-tune on a generated delta workload, written
	// to a second file; both the original and the refreshed sketch must
	// remain loadable and queryable.
	refreshedPath := filepath.Join(dir, "t2.dsk")
	refresh := append([]string{
		"-sketch", sketchPath, "-out", refreshedPath,
		"-queries", "80", "-epochs", "1", "-seed", "11", "-q",
	}, dbArgs...)
	if err := cmdRefresh(refresh); err != nil {
		t.Fatalf("refresh: %v", err)
	}
	if fi, err := os.Stat(refreshedPath); err != nil || fi.Size() == 0 {
		t.Fatalf("refreshed sketch file missing: %v", err)
	}
	query2 := append([]string{
		"-sketch", refreshedPath,
		"-sql", "SELECT COUNT(*) FROM title t WHERE t.production_year>2000",
	}, dbArgs...)
	if err := cmdQuery(query2); err != nil {
		t.Fatalf("query refreshed sketch: %v", err)
	}
}

func TestCLIErrors(t *testing.T) {
	if err := cmdQuery([]string{"-sketch", "/nonexistent.dsk", "-sql", "SELECT COUNT(*) FROM title"}); err == nil {
		t.Error("missing sketch file should error")
	}
	if err := cmdQuery([]string{"-sql", ""}); err == nil {
		t.Error("empty SQL should error")
	}
	if err := cmdBuild([]string{"-db", "nope", "-q"}); err == nil {
		t.Error("unknown dataset should error")
	}
	if err := cmdBuild([]string{"-loss", "nope", "-q"}); err == nil {
		t.Error("unknown loss should error")
	}
	if err := cmdTemplate([]string{"-sql", ""}); err == nil {
		t.Error("template without SQL should error")
	}
	if err := cmdRefresh([]string{"-sketch", "/nonexistent.dsk"}); err == nil {
		t.Error("refreshing a missing sketch file should error")
	}
}

func TestDBFlagsMake(t *testing.T) {
	// Redirect stdout noise is unnecessary; just exercise both datasets.
	for _, kind := range []string{"imdb", "tpch"} {
		k, s, ti, o := kind, int64(1), 500, 300
		f := dbFlags{kind: &k, seed: &s, titles: &ti, orders: &o}
		d, err := f.make()
		if err != nil {
			t.Fatalf("%s: %v", kind, err)
		}
		if d.TotalRows() == 0 {
			t.Errorf("%s: empty dataset", kind)
		}
	}
	bad := "x"
	s, ti, o := int64(1), 10, 10
	f := dbFlags{kind: &bad, seed: &s, titles: &ti, orders: &o}
	if _, err := f.make(); err == nil {
		t.Error("unknown kind should error")
	}
}
