package main

import (
	"encoding/json"
	"fmt"
	"log"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"deepsketch"
	"deepsketch/internal/fsx"
)

// The persistent store keeps each sketch's FULL version history, live
// pointer and canary state, so a daemon restarted mid-incident — or
// mid-canary — resumes exactly where it left off:
//
//	<store>/<name>/v1.dsk        version files, one per history entry
//	<store>/<name>/v2.dsk
//	<store>/<name>/state.json    {dataset, live, canary{version, fraction}}
//
// Version files are written once (a version's weights never change after
// it is published); state.json is rewritten atomically (temp + rename) on
// every live-pointer or canary transition, so a crash between the two
// leaves a consistent store. Anything else in the store directory — a
// stray file, a <name>.dsk from the pre-versioned flat layout — is logged
// and skipped, never fatal.

// storeState is the per-sketch state.json payload.
type storeState struct {
	Name    string       `json:"name"`
	Dataset string       `json:"dataset"`
	Live    int          `json:"live"`
	Canary  *storeCanary `json:"canary,omitempty"`
}

type storeCanary struct {
	Version  int     `json:"version"`
	Fraction float64 `json:"fraction"`
}

// persistVersion writes one sketch version file plus the current state
// (best effort; the in-memory registry stays authoritative).
func (s *server) persistVersion(e *sketchEntry, sk *deepsketch.Sketch, ver int) {
	if s.store == "" {
		return
	}
	dir := filepath.Join(s.store, sanitizeName(e.Name))
	if err := os.MkdirAll(dir, 0o755); err != nil {
		log.Printf("deepsketchd: store: %v", err)
		return
	}
	path := filepath.Join(dir, fmt.Sprintf("v%d.dsk", ver))
	if err := deepsketch.SaveFile(sk, path); err != nil {
		log.Printf("deepsketchd: persist %s v%d: %v", e.Name, ver, err)
		return
	}
	s.persistState(e)
	log.Printf("deepsketchd: persisted sketch %q v%d to %s", e.Name, ver, path)
}

// persistState snapshots the registry's live pointer and canary state for
// the entry into state.json, atomically.
func (s *server) persistState(e *sketchEntry) {
	if s.store == "" {
		return
	}
	reg := s.registries[e.Dataset]
	live, ok := reg.LiveVersion(e.Name)
	if !ok {
		return
	}
	st := storeState{Name: e.Name, Dataset: e.Dataset, Live: live}
	if ci, ok := reg.Canary(e.Name); ok {
		st.Canary = &storeCanary{Version: ci.Version, Fraction: ci.Fraction}
	}
	dir := filepath.Join(s.store, sanitizeName(e.Name))
	if err := os.MkdirAll(dir, 0o755); err != nil {
		log.Printf("deepsketchd: store: %v", err)
		return
	}
	blob, err := json.Marshal(st)
	if err != nil {
		log.Printf("deepsketchd: store state for %s: %v", e.Name, err)
		return
	}
	if err := fsx.AtomicWriteFile(filepath.Join(dir, "state.json"), append(blob, '\n'), 0o644); err != nil {
		log.Printf("deepsketchd: store state for %s: %v", e.Name, err)
	}
}

// loadStore restores every persisted sketch directory (full version
// history + live pointer + canary), skipping anything that fails to load.
func (s *server) loadStore() (int, error) {
	entries, err := os.ReadDir(s.store)
	if err != nil {
		if os.IsNotExist(err) {
			return 0, nil
		}
		return 0, err
	}
	loaded := 0
	// ReadDir sorts by name, so ids are assigned in a stable order.
	for _, ent := range entries {
		if !ent.IsDir() {
			log.Printf("deepsketchd: skipping %s: not a sketch directory", filepath.Join(s.store, ent.Name()))
			continue
		}
		if err := s.loadVersionedDir(filepath.Join(s.store, ent.Name())); err != nil {
			log.Printf("deepsketchd: skipping %s: %v", ent.Name(), err)
			continue
		}
		loaded++
	}
	return loaded, nil
}

// loadVersionedDir restores one sketch's full history from a store
// directory: all version files, the live pointer, and — when the daemon
// went down mid-canary — the canary split, re-armed at the same version
// and fraction.
func (s *server) loadVersionedDir(dir string) error {
	blob, err := os.ReadFile(filepath.Join(dir, "state.json"))
	if err != nil {
		return fmt.Errorf("state.json: %w", err)
	}
	var st storeState
	if err := json.Unmarshal(blob, &st); err != nil {
		return fmt.Errorf("state.json: %w", err)
	}
	if _, ok := s.datasets[st.Dataset]; !ok {
		return fmt.Errorf("unknown dataset %q", st.Dataset)
	}
	// A version file is written for every publish/refresh/canary, but
	// retention (-retain-versions) may have pruned old ones: scan whatever
	// v*.dsk files survive and restore the history with nil gaps for the
	// pruned versions. Version numbers are preserved — they key estimate
	// caches and WAL records — so a gap must not renumber later versions.
	found := map[int]*deepsketch.Sketch{}
	maxVer := 0
	files, err := filepath.Glob(filepath.Join(dir, "v*.dsk"))
	if err != nil {
		return err
	}
	for _, path := range files {
		var ver int
		if _, err := fmt.Sscanf(filepath.Base(path), "v%d.dsk", &ver); err != nil || ver < 1 {
			continue
		}
		sk, err := deepsketch.LoadFile(path)
		if err != nil {
			return fmt.Errorf("v%d.dsk: %w", ver, err)
		}
		if sk.Name() != st.Name {
			return fmt.Errorf("v%d.dsk is named %q, state says %q", ver, sk.Name(), st.Name)
		}
		found[ver] = sk
		if ver > maxVer {
			maxVer = ver
		}
	}
	if maxVer == 0 {
		return fmt.Errorf("no version files")
	}
	versions := make([]*deepsketch.Sketch, maxVer)
	for ver, sk := range found {
		versions[ver-1] = sk
	}
	if st.Live < 1 || st.Live > maxVer {
		return fmt.Errorf("live version %d outside stored history 1..%d", st.Live, maxVer)
	}
	if versions[st.Live-1] == nil {
		return fmt.Errorf("live version file v%d.dsk missing", st.Live)
	}
	reg := s.registries[st.Dataset]
	if err := reg.Restore(st.Name, versions, st.Live); err != nil {
		return err
	}
	if c := st.Canary; c != nil {
		if err := reg.ResumeCanary(st.Name, c.Version, c.Fraction); err != nil {
			log.Printf("deepsketchd: %s: canary not resumed: %v", st.Name, err)
		} else {
			// Hand the resumed canary to the drift controller so the
			// comparative q-error gate finishes the rollout (when the
			// automatic loop is running; otherwise the operator promotes or
			// aborts via the API, as before the restart).
			s.controllers[st.Dataset].AdoptCanary(st.Name)
			log.Printf("deepsketchd: resumed canary v%d of %q at %g%%", c.Version, st.Name, c.Fraction*100)
		}
	}
	e, err := s.register(st.Name, st.Dataset)
	if err != nil {
		return err
	}
	s.installServing(e) // nothing is listening yet
	s.mu.Lock()
	e.published = true
	s.mu.Unlock()
	return nil
}

// pruneVersionFiles applies -retain-versions to one sketch's store
// directory after a promote: the live version's file plus the newest
// retainVersions other version files are kept, older ones are deleted.
// The in-memory registry keeps the full history (pruning only reclaims
// disk); after a restart the pruned versions restore as nil gaps that
// rollback refuses to land on. Caller holds e.adminMu.
func (s *server) pruneVersionFiles(e *sketchEntry) {
	if s.store == "" {
		return
	}
	live, ok := s.registries[e.Dataset].LiveVersion(e.Name)
	if !ok {
		return
	}
	dir := filepath.Join(s.store, sanitizeName(e.Name))
	files, err := filepath.Glob(filepath.Join(dir, "v*.dsk"))
	if err != nil {
		return
	}
	var vers []int
	for _, path := range files {
		var ver int
		if _, err := fmt.Sscanf(filepath.Base(path), "v%d.dsk", &ver); err == nil && ver >= 1 && ver != live {
			vers = append(vers, ver)
		}
	}
	if len(vers) <= s.retainVersions {
		return
	}
	sort.Sort(sort.Reverse(sort.IntSlice(vers)))
	for _, ver := range vers[s.retainVersions:] {
		path := filepath.Join(dir, fmt.Sprintf("v%d.dsk", ver))
		if err := os.Remove(path); err != nil {
			log.Printf("deepsketchd: prune %s: %v", path, err)
			continue
		}
		log.Printf("deepsketchd: pruned sketch %q v%d (retain-versions %d)", e.Name, ver, s.retainVersions)
	}
}

// sanitizeName makes a sketch name safe as a file name.
func sanitizeName(name string) string {
	var b strings.Builder
	for _, r := range name {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9', r == '-', r == '_':
			b.WriteRune(r)
		default:
			b.WriteByte('_')
		}
	}
	if b.Len() == 0 {
		return "sketch"
	}
	return b.String()
}
