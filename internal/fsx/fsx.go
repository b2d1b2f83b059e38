// Package fsx holds the crash-consistency file helpers behind every
// "persist atomically" site in the tree: write a temp file, fsync it,
// rename it over the destination, and best-effort fsync the directory.
//
// The fsync-before-rename ordering is the whole point. os.Rename is
// atomic with respect to concurrent readers, but it says nothing about
// durability: after a crash, a journaling filesystem may replay the
// rename (the metadata operation) without the temp file's data blocks
// ever having reached the disk, leaving a complete-looking destination
// with torn or zero-filled contents. Syncing the temp file first pins
// its data before the rename can become visible. The static durability
// analyzer (internal/analysis, cmd/deepsketch-lint) enforces this
// ordering on every os.Rename in the repository; call sites that write
// files should route through AtomicWrite (streamed) or AtomicWriteFile
// (bytes in hand) instead of hand-rolling the sequence.
package fsx

import (
	"io"
	"os"
)

// AtomicWrite durably replaces path with what write streams: the bytes go
// to path+".tmp", are fsynced, renamed onto path, and the parent directory
// is fsynced (best effort) so the rename itself survives a crash. Readers of
// path see either the previous content or the new content, never a mixture
// and never a prefix — even across power loss, and even when write fails
// half-way. The temp file is removed on failure. This is the one
// implementation of the sequence; everything that persists a file goes
// through it.
//
//deepsketch:durable
func AtomicWrite(path string, perm os.FileMode, write func(io.Writer) error) error {
	tmp := path + ".tmp"
	if err := WriteFileSync(tmp, perm, write); err != nil {
		os.Remove(tmp)
		return err
	}
	if err := os.Rename(tmp, path); err != nil {
		os.Remove(tmp)
		return err
	}
	syncDir(path)
	return nil
}

// AtomicWriteFile is AtomicWrite for bytes already in memory.
//
//deepsketch:durable
func AtomicWriteFile(path string, data []byte, perm os.FileMode) error {
	return AtomicWrite(path, perm, func(w io.Writer) error {
		_, err := w.Write(data)
		return err
	})
}

// WriteFileSync creates (or truncates) path, lets write fill it, and fsyncs
// before closing: when it returns nil, the bytes are on stable storage, not
// just in the page cache. It is the temp-file half of AtomicWrite.
//
//deepsketch:durable
func WriteFileSync(path string, perm os.FileMode, write func(io.Writer) error) error {
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, perm)
	if err != nil {
		return err
	}
	if err := write(f); err != nil {
		f.Close()
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// syncDir fsyncs the directory containing path so a just-renamed entry is
// itself durable. Errors are ignored: directory fsync is unsupported on
// some filesystems, and the file-level guarantees already hold.
func syncDir(path string) {
	dir := "."
	for i := len(path) - 1; i >= 0; i-- {
		if os.IsPathSeparator(path[i]) {
			dir = path[:i+1]
			break
		}
	}
	d, err := os.Open(dir)
	if err != nil {
		return
	}
	d.Sync() //deepsketch:errok directory fsync is unsupported on some filesystems; the file-level fsync already ran
	d.Close()
}
