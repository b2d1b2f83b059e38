package fsx

import (
	"errors"
	"io"
	"os"
	"path/filepath"
	"testing"
)

func TestAtomicWriteFile(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "state.json")

	if err := AtomicWriteFile(path, []byte("v1"), 0o644); err != nil {
		t.Fatal(err)
	}
	if blob, err := os.ReadFile(path); err != nil || string(blob) != "v1" {
		t.Fatalf("read back %q, %v", blob, err)
	}

	// Overwrite must go through the same tmp+rename path and leave no
	// temp file behind.
	if err := AtomicWriteFile(path, []byte("v2 longer payload"), 0o644); err != nil {
		t.Fatal(err)
	}
	if blob, _ := os.ReadFile(path); string(blob) != "v2 longer payload" {
		t.Fatalf("overwrite read back %q", blob)
	}
	if _, err := os.Stat(path + ".tmp"); !os.IsNotExist(err) {
		t.Errorf("temp file left behind: %v", err)
	}
}

func TestAtomicWriteFileReplacesStaleTmp(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "out")
	// A crash artifact at the temp path must not survive or corrupt the
	// next write.
	if err := os.WriteFile(path+".tmp", []byte("torn garb"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := AtomicWriteFile(path, []byte("fresh"), 0o644); err != nil {
		t.Fatal(err)
	}
	if blob, _ := os.ReadFile(path); string(blob) != "fresh" {
		t.Fatalf("read back %q", blob)
	}
	if _, err := os.Stat(path + ".tmp"); !os.IsNotExist(err) {
		t.Errorf("stale tmp still present: %v", err)
	}
}

func TestAtomicWriteFileErrorCleansUp(t *testing.T) {
	dir := t.TempDir()
	// Renaming onto a directory fails after the tmp write; the tmp file
	// must be removed on the failure path.
	path := filepath.Join(dir, "target")
	if err := os.Mkdir(path, 0o755); err != nil {
		t.Fatal(err)
	}
	if err := AtomicWriteFile(path, []byte("x"), 0o644); err == nil {
		t.Fatal("rename onto a directory should fail")
	}
	if _, err := os.Stat(path + ".tmp"); !os.IsNotExist(err) {
		t.Errorf("tmp not cleaned up after failed rename: %v", err)
	}
}

func TestWriteFileSync(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "f")
	if err := WriteFileSync(path, 0o600, func(w io.Writer) error {
		_, err := io.WriteString(w, "abc")
		return err
	}); err != nil {
		t.Fatal(err)
	}
	blob, err := os.ReadFile(path)
	if err != nil || string(blob) != "abc" {
		t.Fatalf("read back %q, %v", blob, err)
	}
	if fi, err := os.Stat(path); err != nil || fi.Mode().Perm() != 0o600 {
		t.Fatalf("mode %v, %v", fi.Mode(), err)
	}
}

// TestAtomicWriteTornWriter: a writer that fails half-way must leave the
// final path as it was — absent if it was absent, the old content if not —
// and no temp file.
func TestAtomicWriteTornWriter(t *testing.T) {
	path := filepath.Join(t.TempDir(), "v2.dsk")
	boom := errors.New("disk full")
	torn := func(w io.Writer) error {
		if _, err := io.WriteString(w, "first half"); err != nil {
			return err
		}
		return boom
	}
	if err := AtomicWrite(path, 0o644, torn); !errors.Is(err, boom) {
		t.Fatalf("err = %v, want the writer's error", err)
	}
	for _, p := range []string{path, path + ".tmp"} {
		if _, err := os.Stat(p); !os.IsNotExist(err) {
			t.Errorf("%s exists after a torn write: %v", filepath.Base(p), err)
		}
	}

	if err := AtomicWriteFile(path, []byte("intact"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := AtomicWrite(path, 0o644, torn); !errors.Is(err, boom) {
		t.Fatalf("err = %v, want the writer's error", err)
	}
	if blob, _ := os.ReadFile(path); string(blob) != "intact" {
		t.Errorf("torn overwrite left %q at the final path", blob)
	}
}
