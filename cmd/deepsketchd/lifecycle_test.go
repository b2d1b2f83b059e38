package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"testing"
	"time"
)

// put sends a raw-body PUT (the upload-and-swap endpoint takes a sketch
// file, not JSON).
func put(t *testing.T, h http.Handler, path string, body []byte) *httptest.ResponseRecorder {
	t.Helper()
	req := httptest.NewRequest("PUT", path, bytes.NewReader(body))
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	return rec
}

// awaitStatus polls a sketch until it reaches want (failing fast on
// "failed") and returns the final entry JSON.
func awaitStatus(t *testing.T, h http.Handler, id int, want string) []byte {
	t.Helper()
	deadline := time.Now().Add(60 * time.Second)
	for {
		rec := get(t, h, fmt.Sprintf("/api/sketches/%d", id))
		if rec.Code != 200 {
			t.Fatalf("get status %d", rec.Code)
		}
		var st struct {
			Status string `json:"status"`
			Error  string `json:"error"`
		}
		if err := json.Unmarshal(rec.Body.Bytes(), &st); err != nil {
			t.Fatal(err)
		}
		if st.Status == "failed" || st.Error != "" {
			t.Fatalf("sketch %d failed: %s", id, st.Error)
		}
		if st.Status == want {
			return rec.Body.Bytes()
		}
		if time.Now().After(deadline) {
			t.Fatalf("sketch %d stuck in %q waiting for %q", id, st.Status, want)
		}
		time.Sleep(25 * time.Millisecond)
	}
}

// forgeSampleRows returns a copy of a serialized sketch with the first table
// sample's row count overwritten by 0xffffffff — the four-byte edit that
// used to make Load allocate 32 GiB.
func forgeSampleRows(t *testing.T, blob []byte) []byte {
	t.Helper()
	u32 := func(off int) int { return int(binary.LittleEndian.Uint32(blob[off:])) }
	off := 12 + u32(8) // magic, version, header
	nParams := u32(off)
	off += 4
	for i := 0; i < nParams; i++ {
		off += 4 + 8*u32(off)
	}
	off += 4                // table count
	off += 4 + u32(off) + 8 // table name, source rows
	if rows := u32(off); rows < 1 || rows > 1<<20 {
		t.Fatalf("offset %d holds %d, not a sample row count: the walker no longer matches the format", off, rows)
	}
	forged := bytes.Clone(blob)
	binary.LittleEndian.PutUint32(forged[off:], 0xffffffff)
	return forged
}

func buildReadySketch(t *testing.T, h http.Handler, name string) int {
	t.Helper()
	rec := post(t, h, "/api/sketches", createReq{
		Name: name, Dataset: "imdb", SampleSize: 24, TrainQueries: 100, Epochs: 2, HiddenUnits: 8, Seed: 1,
	})
	if rec.Code != http.StatusAccepted {
		t.Fatalf("create status %d: %s", rec.Code, rec.Body)
	}
	var entry sketchView
	if err := json.Unmarshal(rec.Body.Bytes(), &entry); err != nil {
		t.Fatal(err)
	}
	awaitStatus(t, h, entry.ID, "ready")
	return entry.ID
}

// TestIdenticalBuildsDownloadIdenticalBytes: a sketch file is a pure
// function of what built it, so two fresh daemons sent the same create
// request serve downloads with the same SHA-256, and that digest checks a
// rebuild.
func TestIdenticalBuildsDownloadIdenticalBytes(t *testing.T) {
	req := createReq{Name: "twin", Dataset: "imdb", SampleSize: 24, TrainQueries: 100, Epochs: 2, HiddenUnits: 8, Seed: 1}
	var hs [2]http.Handler
	var ids [2]int
	for i := range hs {
		hs[i] = testServer(t).routes()
		rec := post(t, hs[i], "/api/sketches", req)
		if rec.Code != http.StatusAccepted {
			t.Fatalf("create status %d: %s", rec.Code, rec.Body)
		}
		var entry sketchView
		if err := json.Unmarshal(rec.Body.Bytes(), &entry); err != nil {
			t.Fatal(err)
		}
		ids[i] = entry.ID
	}
	var sums [2][sha256.Size]byte
	for i, h := range hs {
		awaitStatus(t, h, ids[i], "ready")
		rec := get(t, h, fmt.Sprintf("/api/sketches/%d/download", ids[i]))
		if rec.Code != http.StatusOK {
			t.Fatalf("download status %d: %s", rec.Code, rec.Body)
		}
		sums[i] = sha256.Sum256(rec.Body.Bytes())
	}
	if sums[0] != sums[1] {
		t.Fatalf("identical builds downloaded different files: sha256 %x vs %x", sums[0], sums[1])
	}
}

func TestDuplicateSketchNameConflicts(t *testing.T) {
	srv := testServer(t)
	h := srv.routes()
	id := buildReadySketch(t, h, "dup")
	rec := post(t, h, "/api/sketches", createReq{
		Name: "dup", Dataset: "imdb", SampleSize: 24, TrainQueries: 100, Epochs: 1, HiddenUnits: 8, Seed: 2,
	})
	if rec.Code != http.StatusConflict {
		t.Fatalf("duplicate name status = %d, want 409 (%s)", rec.Code, rec.Body)
	}
	// Same name on the other dataset is a different fleet — allowed.
	rec = post(t, h, "/api/sketches", createReq{
		Name: "dup", Dataset: "tpch", SampleSize: 24, TrainQueries: 100, Epochs: 1, HiddenUnits: 8, Seed: 2,
	})
	if rec.Code != http.StatusAccepted {
		t.Fatalf("same name on other dataset status = %d", rec.Code)
	}
	_ = id
}

func TestUploadSwapRollbackVersions(t *testing.T) {
	srv := testServer(t)
	h := srv.routes()
	id := buildReadySketch(t, h, "lifecycle")

	// Version 1 after the initial build, visible in GET and estimates.
	body := awaitStatus(t, h, id, "ready")
	var info struct {
		Version  int `json:"version"`
		Versions []struct {
			Version int  `json:"version"`
			Live    bool `json:"live"`
		} `json:"versions"`
	}
	if err := json.Unmarshal(body, &info); err != nil {
		t.Fatal(err)
	}
	if info.Version != 1 || len(info.Versions) != 1 || !info.Versions[0].Live {
		t.Fatalf("fresh sketch version info: %s", body)
	}

	estimate := func() (float64, int, string) {
		rec := post(t, h, "/api/estimate", estimateReq{
			SketchID: id, SQL: "SELECT COUNT(*) FROM title t WHERE t.production_year>2000",
		})
		if rec.Code != 200 {
			t.Fatalf("estimate status %d: %s", rec.Code, rec.Body)
		}
		var out struct {
			DeepSketch float64 `json:"deep_sketch"`
			Version    int     `json:"version"`
			Source     string  `json:"source"`
		}
		if err := json.Unmarshal(rec.Body.Bytes(), &out); err != nil {
			t.Fatal(err)
		}
		return out.DeepSketch, out.Version, out.Source
	}
	v1Answer, ver, _ := estimate()
	if ver != 1 {
		t.Errorf("estimate version = %d, want 1", ver)
	}

	// Upload-and-swap: download the current file, build a differently
	// trained sketch? Simplest distinguishable upload: another entry's
	// file. Build one with a different seed and upload its bytes.
	otherID := buildReadySketch(t, h, "donor")
	recDl := get(t, h, fmt.Sprintf("/api/sketches/%d/download", otherID))
	if recDl.Code != 200 {
		t.Fatalf("download status %d", recDl.Code)
	}
	recUp := put(t, h, fmt.Sprintf("/api/sketches/%d", id), recDl.Body.Bytes())
	if recUp.Code != 200 {
		t.Fatalf("upload status %d: %s", recUp.Code, recUp.Body)
	}
	var upEntry sketchView
	if err := json.Unmarshal(recUp.Body.Bytes(), &upEntry); err != nil {
		t.Fatal(err)
	}
	if upEntry.Version != 2 {
		t.Errorf("after upload version = %d, want 2", upEntry.Version)
	}
	v2Answer, ver, src := estimate()
	if ver != 2 {
		t.Errorf("post-upload estimate version = %d, want 2", ver)
	}
	if src != "lifecycle" {
		t.Errorf("post-upload estimate source = %q, want the entry's name", src)
	}

	// Rollback restores version 1's answers.
	recRb := post(t, h, fmt.Sprintf("/api/sketches/%d/rollback", id), nil)
	if recRb.Code != 200 {
		t.Fatalf("rollback status %d: %s", recRb.Code, recRb.Body)
	}
	back, ver, _ := estimate()
	if ver != 1 {
		t.Errorf("post-rollback estimate version = %d, want 1", ver)
	}
	if back != v1Answer {
		t.Errorf("post-rollback answer %v, want version 1's %v (v2 was %v)", back, v1Answer, v2Answer)
	}
	// Rolling back past version 1 conflicts.
	if rec := post(t, h, fmt.Sprintf("/api/sketches/%d/rollback", id), nil); rec.Code != http.StatusConflict {
		t.Errorf("rollback past v1 status = %d, want 409", rec.Code)
	}

	// Bad uploads: garbage body, a forged length field, wrong dataset.
	if rec := put(t, h, fmt.Sprintf("/api/sketches/%d", id), []byte("junk")); rec.Code != http.StatusBadRequest {
		t.Errorf("garbage upload status = %d, want 400", rec.Code)
	}
	// A real file whose first sample claims 2^32-1 rows asks Load for
	// 32 GiB; the daemon must answer 400 without allocating for the claim,
	// and keep serving.
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if rec := put(t, h, fmt.Sprintf("/api/sketches/%d", id), forgeSampleRows(t, recDl.Body.Bytes())); rec.Code != http.StatusBadRequest {
		t.Errorf("forged upload status = %d, want 400: %s", rec.Code, rec.Body)
	}
	runtime.ReadMemStats(&after)
	if after.Sys > before.Sys+64<<20 {
		t.Errorf("forged upload grew the daemon by %d MiB", (after.Sys-before.Sys)>>20)
	}
	if again, ver, _ := estimate(); ver != 1 || again != v1Answer {
		t.Errorf("after the forged upload: answer %v from version %d, want %v from version 1", again, ver, v1Answer)
	}
	tpchID := buildReadySketch(t, h, "wrong-ds")
	_ = tpchID
	recDl = get(t, h, fmt.Sprintf("/api/sketches/%d/download", id))
	rec := post(t, h, "/api/sketches", createReq{
		Name: "tpch-target", Dataset: "tpch", SampleSize: 24, TrainQueries: 100, Epochs: 1, HiddenUnits: 8, Seed: 3,
	})
	var tpchEntry sketchView
	if err := json.Unmarshal(rec.Body.Bytes(), &tpchEntry); err != nil {
		t.Fatal(err)
	}
	awaitStatus(t, h, tpchEntry.ID, "ready")
	if rec := put(t, h, fmt.Sprintf("/api/sketches/%d", tpchEntry.ID), recDl.Body.Bytes()); rec.Code != http.StatusBadRequest {
		t.Errorf("cross-dataset upload status = %d, want 400", rec.Code)
	}
}

func TestRefreshEndpoint(t *testing.T) {
	srv := testServer(t)
	h := srv.routes()
	id := buildReadySketch(t, h, "refresh-me")

	rec := post(t, h, fmt.Sprintf("/api/sketches/%d/refresh", id), refreshReq{
		Queries: 80, Epochs: 1, Seed: 99,
	})
	if rec.Code != http.StatusAccepted {
		t.Fatalf("refresh status %d: %s", rec.Code, rec.Body)
	}
	body := awaitStatus(t, h, id, "ready")
	var info struct {
		Version  int `json:"version"`
		Versions []struct {
			Version int  `json:"version"`
			Live    bool `json:"live"`
			Epochs  int  `json:"epochs"`
		} `json:"versions"`
	}
	if err := json.Unmarshal(body, &info); err != nil {
		t.Fatal(err)
	}
	if info.Version != 2 {
		t.Fatalf("after refresh version = %d, want 2 (%s)", info.Version, body)
	}
	if len(info.Versions) != 2 || !info.Versions[1].Live || info.Versions[0].Live {
		t.Fatalf("version history after refresh: %s", body)
	}
	if info.Versions[1].Epochs <= info.Versions[0].Epochs {
		t.Errorf("refreshed version should accumulate epochs: %+v", info.Versions)
	}
	// Refresh of a missing sketch 404s.
	if rec := post(t, h, "/api/sketches/999/refresh", refreshReq{}); rec.Code != http.StatusNotFound {
		t.Errorf("missing sketch refresh status = %d", rec.Code)
	}
}

// TestFailedBuildNameReuse: a name is free again after a failed build, so a
// dead "failed" entry and the live one can share it. Only the live,
// published entry may follow the registry and the controller: its status
// and store move with a refresh cycle, the failed entry stays exactly as
// it died.
func TestFailedBuildNameReuse(t *testing.T) {
	srv := testServer(t)
	srv.store = t.TempDir()
	h := srv.routes()
	rec := post(t, h, "/api/sketches", createReq{Name: "again", Dataset: "imdb", Tables: []string{"no_such_table"}})
	if rec.Code != http.StatusAccepted {
		t.Fatalf("create: %d %s", rec.Code, rec.Body)
	}
	var dead sketchView
	if err := json.Unmarshal(rec.Body.Bytes(), &dead); err != nil {
		t.Fatal(err)
	}
	failed := func() sketchView {
		t.Helper()
		var v sketchView
		if err := json.Unmarshal(get(t, h, fmt.Sprintf("/api/sketches/%d", dead.ID)).Body.Bytes(), &v); err != nil {
			t.Fatal(err)
		}
		return v
	}
	for deadline := time.Now().Add(30 * time.Second); failed().Status != "failed"; {
		if time.Now().After(deadline) {
			t.Fatalf("build over an unknown table did not fail: %+v", failed())
		}
		time.Sleep(10 * time.Millisecond)
	}
	before := failed()
	if before.Error == "" || before.Version != 0 {
		t.Fatalf("failed entry = %+v", before)
	}

	live := buildReadySketch(t, h, "again")
	if live == dead.ID {
		t.Fatal("rebuild reused the failed entry's id")
	}
	if e := srv.entryByName("imdb", "again"); e == nil || e.ID != live {
		t.Fatalf("entryByName = %+v, want the published entry %d", e, live)
	}
	if rec := post(t, h, fmt.Sprintf("/api/sketches/%d/refresh", live), refreshReq{Queries: 80, Epochs: 1}); rec.Code != http.StatusAccepted {
		t.Fatalf("refresh: %d %s", rec.Code, rec.Body)
	}
	if st, _, _ := entryState(t, h, live); st != "refreshing" {
		t.Errorf("live entry is %q during its refresh", st)
	}
	if mid := failed(); mid != before {
		t.Errorf("failed entry moved with the live one's cycle: %+v", mid)
	}
	awaitStatus(t, h, live, "ready")
	if _, version, _ := entryState(t, h, live); version != 2 {
		t.Fatalf("live entry at v%d after its refresh, want 2", version)
	}
	if after := failed(); after != before {
		t.Errorf("failed entry changed: %+v, was %+v", after, before)
	}
	if _, err := os.Stat(filepath.Join(srv.store, "again", "v2.dsk")); err != nil {
		t.Errorf("the live entry's refreshed version was not persisted: %v", err)
	}
	// Operator endpoints on the dead entry conflict instead of reaching the
	// live sketch that shares its name.
	if rec := post(t, h, fmt.Sprintf("/api/sketches/%d/rollback", dead.ID), nil); rec.Code != http.StatusConflict {
		t.Errorf("rollback on the failed entry: %d %s, want 409", rec.Code, rec.Body)
	}
}
