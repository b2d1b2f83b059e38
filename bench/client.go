package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"time"
)

// client is one keep-alive connection to the daemon: its transport holds a
// single connection, so a load-generator goroutine that owns a client is
// exactly one of the benchmark's connections.
type client struct {
	base string
	tr   *http.Transport
	hc   *http.Client
	buf  bytes.Buffer // response body of the last call, reused
}

func newClient(base string) *client {
	tr := &http.Transport{
		MaxConnsPerHost:     1,
		MaxIdleConnsPerHost: 1,
		DisableCompression:  true,
	}
	return &client{base: base, tr: tr, hc: &http.Client{Transport: tr}}
}

func (c *client) close() { c.tr.CloseIdleConnections() }

// do sends one request and returns the status and the body. The body
// aliases the client's buffer: it is valid until the next call.
func (c *client) do(ctx context.Context, method, path string, body []byte) (int, []byte, error) {
	req, err := http.NewRequestWithContext(ctx, method, c.base+path, bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	c.buf.Reset()
	if _, err := c.buf.ReadFrom(resp.Body); err != nil {
		return resp.StatusCode, nil, err
	}
	return resp.StatusCode, c.buf.Bytes(), nil
}

// call is do for the control path: it marshals in, requires the wanted
// status and unmarshals the reply into out (when out is non-nil).
func (c *client) call(ctx context.Context, method, path string, in any, want int, out any) error {
	var body []byte
	if in != nil {
		var err error
		if body, err = json.Marshal(in); err != nil {
			return err
		}
	}
	status, blob, err := c.do(ctx, method, path, body)
	if err != nil {
		return fmt.Errorf("%s %s: %w", method, path, err)
	}
	if status != want {
		return fmt.Errorf("%s %s: status %d, want %d: %s", method, path, status, want, bytes.TrimSpace(blob))
	}
	if out == nil {
		return nil
	}
	if err := json.Unmarshal(blob, out); err != nil {
		return fmt.Errorf("%s %s: decoding reply: %w", method, path, err)
	}
	return nil
}

// sketchStatus is the part of GET /api/sketches/{id} the benchmark reads.
type sketchStatus struct {
	ID       int    `json:"id"`
	Name     string `json:"name"`
	Status   string `json:"status"`
	Error    string `json:"error"`
	Version  int    `json:"version"`
	Progress struct {
		StageMS map[string]float64 `json:"stage_ms"`
	} `json:"progress"`
}

// createSketch defines the fixture sketch under name, waits for its build
// and returns its status — the id resolved by name, since ids follow the
// daemon's map order — and the seconds from the POST to "ready".
func (c *client) createSketch(ctx context.Context, name string) (sketchStatus, float64, error) {
	start := time.Now()
	err := c.call(ctx, "POST", "/api/sketches", map[string]any{
		"name": name, "dataset": "imdb",
		"sample_size": sketchSampleSize, "train_queries": sketchTrainQueries,
		"epochs": sketchEpochs, "hidden_units": sketchHiddenUnits, "seed": sketchSeed,
	}, http.StatusAccepted, nil)
	if err != nil {
		return sketchStatus{}, 0, err
	}
	var list []sketchStatus
	if err := c.call(ctx, "GET", "/api/sketches", nil, http.StatusOK, &list); err != nil {
		return sketchStatus{}, 0, err
	}
	id := 0
	for _, s := range list {
		if s.Name == name {
			id = s.ID
		}
	}
	if id == 0 {
		return sketchStatus{}, 0, fmt.Errorf("sketch %q is not in the daemon's list", name)
	}
	st, err := c.waitVersion(ctx, id, 1)
	return st, time.Since(start).Seconds(), err
}

// refreshSketch starts a warm refresh on refreshQueries fresh queries and
// waits until version want is live; it returns the seconds that took.
func (c *client) refreshSketch(ctx context.Context, id, want int) (float64, error) {
	start := time.Now()
	path := fmt.Sprintf("/api/sketches/%d/refresh", id)
	if err := c.call(ctx, "POST", path, map[string]any{"queries": refreshQueries}, http.StatusAccepted, nil); err != nil {
		return 0, err
	}
	if _, err := c.waitVersion(ctx, id, want); err != nil {
		return 0, err
	}
	return time.Since(start).Seconds(), nil
}

// waitVersion polls the sketch until it is ready at version want.
func (c *client) waitVersion(ctx context.Context, id, want int) (sketchStatus, error) {
	path := fmt.Sprintf("/api/sketches/%d", id)
	for {
		var st sketchStatus
		if err := c.call(ctx, "GET", path, nil, http.StatusOK, &st); err != nil {
			return st, err
		}
		switch {
		case st.Status == "failed":
			return st, fmt.Errorf("sketch %d failed: %s", id, st.Error)
		case st.Status == "ready" && st.Error != "":
			return st, fmt.Errorf("sketch %d: %s", id, st.Error)
		case st.Status == "ready" && st.Version >= want:
			return st, nil
		}
		if err := sleepCtx(ctx, pollEvery); err != nil {
			return st, err
		}
	}
}

// download returns a copy of the serialized live sketch.
func (c *client) download(ctx context.Context, id int) ([]byte, error) {
	status, blob, err := c.do(ctx, "GET", fmt.Sprintf("/api/sketches/%d/download", id), nil)
	if err != nil {
		return nil, err
	}
	if status != http.StatusOK {
		return nil, fmt.Errorf("download of sketch %d: status %d", id, status)
	}
	return append([]byte(nil), blob...), nil
}

// driftStatus is the part of GET /api/sketches/{id}/drift the feedback
// workload's accounting reads.
type driftStatus struct {
	Monitor struct {
		Observed uint64 `json:"observed"`
		Sampled  uint64 `json:"sampled"`
		Dropped  uint64 `json:"dropped"`
	} `json:"monitor"`
	WAL *struct {
		Bytes   int64  `json:"bytes"`
		Appends uint64 `json:"appends"`
		Syncs   uint64 `json:"syncs"`
	} `json:"wal"`
}

func (c *client) drift(ctx context.Context, id int) (driftStatus, error) {
	var st driftStatus
	err := c.call(ctx, "GET", fmt.Sprintf("/api/sketches/%d/drift", id), nil, http.StatusOK, &st)
	return st, err
}
