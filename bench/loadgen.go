package main

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"runtime"
	"sync"
	"time"
)

// maxConnections caps the load: the daemon shares the machine with the
// generator, so more connections than cores would measure the scheduler.
func maxConnections() int {
	if n := runtime.NumCPU(); n < 2 {
		return n
	}
	return 2
}

// estimateReply is the part of POST /api/estimate's answer the benchmark
// reads.
type estimateReply struct {
	DeepSketch float64 `json:"deep_sketch"`
	True       int64   `json:"true"`
	Version    int     `json:"version"`
	CacheHit   bool    `json:"cache_hit"`
}

// templateReply is POST /api/template's answer.
type templateReply struct {
	Points []struct {
		DeepSketch float64 `json:"deep_sketch"`
	} `json:"points"`
}

// actualReply is POST /api/sketches/{id}/actuals' answer.
type actualReply struct {
	Admitted bool `json:"admitted"`
	Matched  bool `json:"matched"`
}

// answer is one recorded reply, kept so that a sample of them can be
// recomputed in-process after the phase.
type answer struct {
	query   int       // index into the query set
	version int       // sketch version that answered (estimates)
	deep    float64   // estimates
	truth   int64     // estimates
	hit     bool      // estimates
	points  []float64 // templates: one estimate per instance
}

// tally counts the operations of one phase and keeps what they returned.
// Every connection fills its own and the phase merges them.
type tally struct {
	sent, failed int
	firstErr     error
	latencyUS    []float64 // estimate or template round trips
	actualUS     []float64 // actuals round trips
	answers      []answer
	admitted     int // actuals the daemon logged
	matched      int // actuals that met their parked estimate
	refreshS     []float64
	end          time.Time // when the last request completed
}

func (t *tally) fail(err error) {
	t.failed++
	if t.firstErr == nil {
		t.firstErr = err
	}
}

func (t *tally) merge(o *tally) {
	t.sent += o.sent
	t.failed += o.failed
	if t.firstErr == nil {
		t.firstErr = o.firstErr
	}
	t.latencyUS = append(t.latencyUS, o.latencyUS...)
	t.actualUS = append(t.actualUS, o.actualUS...)
	t.answers = append(t.answers, o.answers...)
	t.admitted += o.admitted
	t.matched += o.matched
	t.refreshS = append(t.refreshS, o.refreshS...)
	if o.end.After(t.end) {
		t.end = o.end
	}
}

// conn is one load-generating connection. It walks the query set from its
// own offset with a stride of the connection count, so together the
// connections cycle the set in order, and it keeps its place from the
// warm-up into the timed phase.
type conn struct {
	c           *client
	qs          *querySet
	id          int    // sketch id
	actualsPath string // the sketch's actuals endpoint
	next        int
	stride      int
	req         []byte // request body scratch
}

func newConns(base string, qs *querySet, id, n int) []*conn {
	conns := make([]*conn, n)
	for i := range conns {
		conns[i] = &conn{c: newClient(base), qs: qs, id: id, actualsPath: fmt.Sprintf("/api/sketches/%d/actuals", id), next: i, stride: n}
	}
	return conns
}

func closeConns(conns []*conn) {
	for _, cn := range conns {
		cn.c.close()
	}
}

func (cn *conn) advance() int {
	i := cn.next % len(cn.qs.body)
	cn.next += cn.stride
	return i
}

// post sends body to path and returns the round trip in microseconds; a 200
// is decoded into out, anything else is the operation's failure.
func (cn *conn) post(ctx context.Context, path string, body []byte, out any) (float64, error) {
	start := time.Now()
	status, blob, err := cn.c.do(ctx, "POST", path, body)
	us := float64(time.Since(start).Nanoseconds()) / 1e3
	if err != nil {
		return us, err
	}
	if status != http.StatusOK {
		return us, fmt.Errorf("POST %s: status %d: %s", path, status, blob)
	}
	if err := json.Unmarshal(blob, out); err != nil {
		return us, fmt.Errorf("POST %s: %w", path, err)
	}
	return us, nil
}

// estimate sends query i to /api/estimate.
func (cn *conn) estimate(ctx context.Context, i int, t *tally) (estimateReply, bool) {
	cn.req = fmt.Appendf(cn.req[:0], `{"sketch_id":%d,"sql":%s}`, cn.id, cn.qs.body[i])
	var r estimateReply
	t.sent++
	us, err := cn.post(ctx, "/api/estimate", cn.req, &r)
	if err != nil {
		t.fail(err)
		return r, false
	}
	t.latencyUS = append(t.latencyUS, us)
	t.answers = append(t.answers, answer{query: i, version: r.Version, deep: r.DeepSketch, truth: r.True, hit: r.CacheHit})
	return r, true
}

// template sends statement i to /api/template.
func (cn *conn) template(ctx context.Context, i int, t *tally) {
	cn.req = fmt.Appendf(cn.req[:0], `{"sketch_id":%d,"sql":%s,"group":"distinct","truth":false}`, cn.id, cn.qs.body[i])
	var r templateReply
	t.sent++
	us, err := cn.post(ctx, "/api/template", cn.req, &r)
	if err != nil {
		t.fail(err)
		return
	}
	points := make([]float64, len(r.Points))
	for j, p := range r.Points {
		points[j] = p.DeepSketch
	}
	t.latencyUS = append(t.latencyUS, us)
	t.answers = append(t.answers, answer{query: i, points: points})
}

// actual reports query i's observed cardinality to the sketch's actuals
// endpoint. The benchmark's clients are unthrottled, so anything but an
// admitted record is a failure.
func (cn *conn) actual(ctx context.Context, i int, card int64, client string, t *tally) {
	cn.req = fmt.Appendf(cn.req[:0], `{"sql":%s,"actual":%d,"client":%q}`, cn.qs.body[i], card, client)
	var r actualReply
	t.sent++
	us, err := cn.post(ctx, cn.actualsPath, cn.req, &r)
	if err != nil {
		t.fail(err)
		return
	}
	if !r.Admitted {
		t.fail(fmt.Errorf("actual for %q was not admitted", cn.qs.sql[i]))
		return
	}
	t.actualUS = append(t.actualUS, us)
	t.admitted++
	if r.Matched {
		t.matched++
	}
}

// loop is one connection's closed loop: the next request leaves when the
// previous reply has arrived, until the deadline.
func (cn *conn) loop(ctx context.Context, k kind, client string, deadline time.Time, t *tally) {
	for time.Now().Before(deadline) && ctx.Err() == nil {
		i := cn.advance()
		switch k {
		case kindTemplate:
			cn.template(ctx, i, t)
		case kindFeedback:
			if r, ok := cn.estimate(ctx, i, t); ok {
				cn.actual(ctx, i, r.True, client, t)
			}
		default:
			cn.estimate(ctx, i, t)
		}
		t.end = time.Now()
	}
}

// operate is build_refresh's operator connection: it refreshes the sketch,
// waits for the new version, and starts over until the deadline. The
// refresh in flight at the deadline is waited for, so the phase leaves the
// sketch ready.
func operate(ctx context.Context, c *client, id, version int, deadline time.Time, t *tally) {
	for time.Now().Before(deadline) && ctx.Err() == nil {
		version++
		t.sent++
		s, err := c.refreshSketch(ctx, id, version)
		if err != nil {
			t.fail(err)
			return
		}
		t.refreshS = append(t.refreshS, s)
	}
}

// phase drives the workload's traffic for d and returns what happened and
// how long the load took. Connections run concurrently; each is joined
// before phase returns. op, when non-nil, is build_refresh's operator
// connection and refreshes the sketch from version on. loadDone, when
// non-nil, is called once the load connections have finished — before the
// operator's refresh in flight is waited for.
func phase(ctx context.Context, k kind, conns []*conn, d time.Duration, op *client, version int, loadDone func()) (*tally, time.Duration) {
	start := time.Now()
	deadline := start.Add(d)
	tallies := make([]*tally, len(conns))
	var load, operator sync.WaitGroup
	for i, cn := range conns {
		tallies[i] = &tally{}
		load.Add(1)
		go func() {
			defer load.Done()
			cn.loop(ctx, k, fmt.Sprintf("bench-%d", i), deadline, tallies[i])
		}()
	}
	opTally := &tally{}
	if op != nil {
		operator.Add(1)
		go func() {
			defer operator.Done()
			operate(ctx, op, conns[0].id, version, deadline, opTally)
		}()
	}
	load.Wait()
	if loadDone != nil {
		loadDone()
	}
	total := &tally{}
	for _, t := range tallies {
		total.merge(t)
	}
	elapsed := total.end.Sub(start)
	operator.Wait()
	total.merge(opTally)
	return total, elapsed
}
