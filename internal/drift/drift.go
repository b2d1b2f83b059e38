// Package drift closes the refresh loop the lifecycle registry opened: it
// watches the live q-error of serving sketches and turns sustained
// degradation into automatic warm-start refreshes rolled out behind a
// canary.
//
// The paper builds a Deep Sketch once from a database snapshot and leaves
// retraining to the operator; adaptive-input analyses of cardinality
// sketches (Ahmadian & Cohen, 2024) show why that is not enough — as the
// workload shifts away from the training distribution, a sketch degrades
// quietly, with no error signal in its own outputs. The only way to notice
// is to compare estimates against ground truth on a sample of live traffic.
//
// # Monitor
//
// A Monitor taps the serving path (Observe, or wrap a backend with the
// Observe middleware), samples every Nth estimate per sketch, and obtains
// the true cardinality asynchronously from a ground-truth estimator —
// classically the exact Truth executor. With a nil estimator the monitor
// runs without any exact executor at all, parking each sampled estimate
// as *pending* until a logged actual arrives out of band (ResolveActual)
// from a client that ran the query for real. Each resolved query's q-error lands in a rolling window per
// (sketch, version); when the windowed median or p95 exceeds its
// threshold, or a staleness clock expires, the monitor fires a trigger
// (subject to a cooldown). Every pending/resolved transition is reported
// to an optional Journal — the daemon points it at the observation WAL,
// and rebuilds windows and the pending queue by replay after a restart.
//
// # Controller
//
// A Controller subscribes to those triggers and drives the lifecycle
// registry: warm-start refresh on a delta workload, install the result as
// a canary at a configured traffic fraction, then judge the canary by
// comparative windowed q-error — the same monitor windows, one per
// version — and promote it to 100% or abort it. Every transition is
// reported through an event hook so a daemon can log and persist it.
package drift

import (
	"container/list"
	"context"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"deepsketch/internal/db"
	"deepsketch/internal/estimator"
	"deepsketch/internal/metrics"
)

// Reason describes why a drift trigger fired.
type Reason struct {
	// Kind is "median", "p95" or "staleness" — or, on a cycle no trigger
	// started, "operator" (Controller.Start from an admin request) or
	// "adopted" (Controller.AdoptCanary).
	Kind string `json:"kind"`
	// Version is the sketch version whose window tripped (0 for staleness).
	Version int `json:"version,omitempty"`
	// Value is the observed windowed statistic (or the staleness age in
	// seconds).
	Value float64 `json:"value"`
	// Threshold is the configured limit the value exceeded.
	Threshold float64 `json:"threshold"`
}

func (r Reason) String() string {
	if r.Threshold == 0 {
		return r.Kind // "operator", "adopted": no threshold was exceeded
	}
	return fmt.Sprintf("%s %.3g > %.3g (v%d)", r.Kind, r.Value, r.Threshold, r.Version)
}

// Config parameterizes a Monitor.
type Config struct {
	// SampleEvery samples one of every N observed estimates per sketch for
	// ground-truthing (default 10, i.e. 10% of traffic; 1 samples all).
	// Negative disables sampling entirely — estimates are counted but
	// never ground-truthed, for deployments where even sampled exact
	// counting is too expensive.
	SampleEvery int
	// Window is the rolling q-error window capacity per (sketch, version)
	// (default 256).
	Window int
	// MinSamples is the window fill required before the q-error thresholds
	// are evaluated (default 32).
	MinSamples int
	// MaxMedianQ fires a trigger when the windowed median q-error exceeds
	// it (0 disables).
	MaxMedianQ float64
	// MaxP95Q fires a trigger when the windowed p95 q-error exceeds it
	// (0 disables).
	MaxP95Q float64
	// MaxStaleness fires a trigger when a sketch has gone this long without
	// a refresh, regardless of q-error (0 disables). Checked by
	// CheckStaleness, which the controller's Tick (or any timer) drives.
	MaxStaleness time.Duration
	// Cooldown is the minimum gap between triggers for one sketch
	// (default 1 minute).
	Cooldown time.Duration
	// QueueSize bounds the pending ground-truth queue; estimates sampled
	// while it is full are dropped and counted (default 1024). It also
	// bounds the parked-pending table of observations awaiting out-of-band
	// actuals, evicting oldest-first.
	QueueSize int
	// Journal, when set, receives every pending/resolved transition so it
	// can be made durable (the daemon passes the observation WAL).
	Journal Journal
}

func (c Config) withDefaults() Config {
	if c.SampleEvery == 0 {
		c.SampleEvery = 10
	}
	if c.Window <= 0 {
		c.Window = 256
	}
	if c.MinSamples <= 0 {
		c.MinSamples = 32
	}
	if c.Cooldown <= 0 {
		c.Cooldown = time.Minute
	}
	if c.QueueSize <= 0 {
		c.QueueSize = 1024
	}
	return c
}

// maxVersionWindows bounds how many per-version q-error windows one
// sketch retains — enough for a canary comparison plus recent rollback
// candidates.
const maxVersionWindows = 4

// observation is one sampled estimate awaiting ground truth.
type observation struct {
	name     string
	version  int
	q        db.Query
	estimate float64
}

// versionWindow is one (sketch, version)'s rolling q-error record.
type versionWindow struct {
	win     *metrics.Window
	samples uint64 // lifetime ground-truthed samples for this version
}

// nameState is one sketch's monitoring state. The sampling counters are
// atomics touched on the serving path; everything else is cold-path state
// guarded by the monitor mutex.
type nameState struct {
	observed atomic.Uint64 // estimates seen (sampling denominator)
	sampled  atomic.Uint64 // estimates enqueued for ground truth

	// The fields below are guarded by Monitor.mu.
	windows     map[int]*versionWindow
	lastTrigger time.Time
	lastFired   Reason
	hasFired    bool
	lastRefresh time.Time // staleness clock origin (first seen / MarkRefreshed)
}

// Monitor samples live estimates, ground-truths them asynchronously, and
// fires triggers when a sketch's windowed q-error degrades or its
// staleness clock expires. Safe for concurrent use; Observe — the call on
// the serving path — touches only per-name atomics and a channel send,
// never the monitor mutex.
type Monitor struct {
	cfg     Config
	truth   estimator.Estimator // nil parks every sampled estimate
	journal Journal

	names sync.Map // string → *nameState

	mu           sync.Mutex // guards cold-path nameState fields, onTrig, pending
	onTrig       func(name string, r Reason) bool
	pending      map[pendingKey]*list.Element
	pendingOrder *list.List // front = oldest; values are *pendingObs

	queue          chan observation
	dropped        atomic.Uint64
	truthErrs      atomic.Uint64
	unmatched      atomic.Uint64 // ResolveActual calls with no parked match
	pendingEvicted atomic.Uint64 // parked observations evicted at capacity
	badSamples     atomic.Uint64 // resolved pairs with a non-finite q-error, dropped
}

// NewMonitor returns a monitor that obtains ground truth from truth — the
// exact executor (estimator.Truth), a statistics estimator, or logged
// actuals behind estimator.Func. A nil truth runs the monitor without any
// in-process ground truth: every sampled estimate parks as pending until
// ResolveActual reports the observed actual. Call Run (or Drain, in
// tests) to process sampled queries; set the trigger handler with
// OnTrigger.
func NewMonitor(cfg Config, truth estimator.Estimator) *Monitor {
	cfg = cfg.withDefaults()
	return &Monitor{
		cfg:          cfg,
		truth:        truth,
		journal:      cfg.Journal,
		pending:      make(map[pendingKey]*list.Element),
		pendingOrder: list.New(),
		queue:        make(chan observation, cfg.QueueSize),
	}
}

// OnTrigger installs the trigger handler. The handler reports whether it
// accepted the trigger: only an accepted trigger is consumed (stamps the
// cooldown and Status.LastTrigger), a declined one re-fires on the next
// sample that still exceeds the threshold. The handler is called without
// internal locks held and may call back into the monitor; it must not
// block for long, or ground-truth processing stalls behind it.
func (m *Monitor) OnTrigger(fn func(name string, r Reason) bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.onTrig = fn
}

// fire offers one trigger to the handler and, if it is accepted (or no
// handler is installed), starts name's cooldown. No locks held by the caller.
func (m *Monitor) fire(name string, r Reason) {
	m.mu.Lock()
	handler := m.onTrig
	m.mu.Unlock()
	if handler != nil && !handler(name, r) {
		return
	}
	ns := m.state(name)
	m.mu.Lock()
	ns.lastTrigger = time.Now()
	ns.lastFired = r
	ns.hasFired = true
	m.mu.Unlock()
}

// Observe reports one served estimate: the answering sketch's name and
// version, the query, and the estimated cardinality. Every SampleEvery-th
// estimate per name is queued for asynchronous ground-truthing; the rest
// are counted and dropped. Call it from the serving path (the Observe
// middleware does) — it bumps per-name atomics and does a non-blocking
// channel send; it never takes a lock or blocks on ground truth.
func (m *Monitor) Observe(name string, version int, q db.Query, estimate float64) {
	ns := m.state(name)
	if n := ns.observed.Add(1); m.cfg.SampleEvery < 0 || n%uint64(m.cfg.SampleEvery) != 0 {
		return
	}
	ns.sampled.Add(1)
	select {
	case m.queue <- observation{name: name, version: version, q: q, estimate: estimate}:
	default:
		m.dropped.Add(1)
	}
}

// state returns (creating if needed) the state for name.
func (m *Monitor) state(name string) *nameState {
	if ns, ok := m.names.Load(name); ok {
		return ns.(*nameState)
	}
	fresh := &nameState{windows: make(map[int]*versionWindow), lastRefresh: time.Now()}
	ns, _ := m.names.LoadOrStore(name, fresh)
	return ns.(*nameState)
}

// MarkRefreshed resets name's staleness clock — call when a refresh lands
// (the Controller does).
func (m *Monitor) MarkRefreshed(name string) {
	ns := m.state(name)
	m.mu.Lock()
	defer m.mu.Unlock()
	ns.lastRefresh = time.Now()
}

// Run processes sampled queries until ctx is done: each is executed
// against the ground-truth estimator and its q-error recorded, firing
// triggers as thresholds trip. Run one goroutine per monitor.
func (m *Monitor) Run(ctx context.Context) {
	for {
		select {
		case <-ctx.Done():
			return
		case obs := <-m.queue:
			m.process(ctx, obs)
		}
	}
}

// Drain synchronously processes every queued observation and returns how
// many it processed — the deterministic alternative to Run for tests and
// single-shot evaluation.
func (m *Monitor) Drain(ctx context.Context) int {
	n := 0
	for {
		select {
		case obs := <-m.queue:
			m.process(ctx, obs)
			n++
		default:
			return n
		}
	}
}

// process resolves one observation: with a ground-truth estimator its
// answer records the q-error, without one the observation parks pending.
func (m *Monitor) process(ctx context.Context, obs observation) {
	if m.truth == nil {
		m.park(obs, true)
		return
	}
	e, err := m.truth.Estimate(ctx, obs.q)
	if err != nil {
		m.truthErrs.Add(1)
		return
	}
	m.record(obs.name, obs.version, obs.estimate, e.Cardinality, true)
	if j := m.journal; j != nil {
		j.Resolved(obs.name, obs.version, obs.q, obs.estimate, e.Cardinality)
	}
}

// windowLocked returns (creating if needed) the version's q-error window;
// Monitor.mu held.
func (ns *nameState) windowLocked(version, capacity int) *versionWindow {
	vw, ok := ns.windows[version]
	if !ok {
		vw = &versionWindow{win: metrics.NewWindow(capacity)}
		ns.windows[version] = vw
		// Bound retention: versions accrue across refresh cycles, but only
		// the recent ones (live, canary, rollback candidates) are ever
		// compared — drop the oldest windows beyond a small working set so
		// a long-lived sketch's monitoring state cannot grow without bound.
		for len(ns.windows) > maxVersionWindows {
			oldest := version
			for ver := range ns.windows {
				if ver < oldest {
					oldest = ver
				}
			}
			delete(ns.windows, oldest)
		}
	}
	return vw
}

// evaluateLocked checks the just-updated window against the q-error
// thresholds, honouring the cooldown; m.mu held. The caller fires the
// returned trigger once the lock is released.
func (m *Monitor) evaluateLocked(ns *nameState, version int, vw *versionWindow) (Reason, bool) {
	if m.cfg.MaxMedianQ <= 0 && m.cfg.MaxP95Q <= 0 {
		// Nothing armed: skip the window copy-and-sort Summary costs.
		return Reason{}, false
	}
	if vw.win.Len() < m.cfg.MinSamples {
		return Reason{}, false
	}
	if time.Since(ns.lastTrigger) < m.cfg.Cooldown {
		return Reason{}, false
	}
	s := vw.win.Summary()
	switch {
	case m.cfg.MaxMedianQ > 0 && s.Median > m.cfg.MaxMedianQ:
		return Reason{Kind: "median", Version: version, Value: s.Median, Threshold: m.cfg.MaxMedianQ}, true
	case m.cfg.MaxP95Q > 0 && s.P95 > m.cfg.MaxP95Q:
		return Reason{Kind: "p95", Version: version, Value: s.P95, Threshold: m.cfg.MaxP95Q}, true
	}
	return Reason{}, false
}

// CheckStaleness fires a staleness trigger for every monitored sketch
// whose refresh clock has expired. Drive it from a timer (the Controller's
// Tick does).
func (m *Monitor) CheckStaleness() {
	if m.cfg.MaxStaleness <= 0 {
		return
	}
	fires := map[string]Reason{}
	m.mu.Lock()
	m.names.Range(func(key, v any) bool {
		ns := v.(*nameState)
		age := time.Since(ns.lastRefresh)
		if age > m.cfg.MaxStaleness && time.Since(ns.lastTrigger) >= m.cfg.Cooldown {
			fires[key.(string)] = Reason{Kind: "staleness", Value: age.Seconds(), Threshold: m.cfg.MaxStaleness.Seconds()}
		}
		return true
	})
	m.mu.Unlock()
	for name, r := range fires {
		m.fire(name, r)
	}
}

// VersionStats is one version's windowed q-error record.
type VersionStats struct {
	Version int             `json:"version"`
	Samples uint64          `json:"samples"` // lifetime ground-truthed samples
	Window  metrics.Summary `json:"window"`  // rolling distribution
}

// Status is a sketch's monitoring snapshot, shaped for the daemon's drift
// endpoint.
type Status struct {
	Name        string         `json:"name"`
	Observed    uint64         `json:"observed"`
	Sampled     uint64         `json:"sampled"`
	Dropped     uint64         `json:"dropped"`               // monitor-wide queue-full drops
	TruthErrors uint64         `json:"truth_errors"`          // monitor-wide ground-truth failures
	Pending     int            `json:"pending"`               // parked observations awaiting an actual
	Unmatched   uint64         `json:"unmatched"`             // monitor-wide actuals with no parked match
	Evicted     uint64         `json:"evicted,omitempty"`     // monitor-wide pending evictions at capacity
	BadSamples  uint64         `json:"bad_samples,omitempty"` // monitor-wide non-finite q-errors dropped
	Versions    []VersionStats `json:"versions,omitempty"`
	LastTrigger *Reason        `json:"last_trigger,omitempty"`
	LastRefresh time.Time      `json:"last_refresh"`
}

// Status returns name's monitoring snapshot (zero-valued when the name has
// never been observed).
func (m *Monitor) Status(name string) Status {
	m.mu.Lock()
	defer m.mu.Unlock()
	st := Status{Name: name, Dropped: m.dropped.Load(), TruthErrors: m.truthErrs.Load(),
		Unmatched: m.unmatched.Load(), Evicted: m.pendingEvicted.Load(),
		BadSamples: m.badSamples.Load()}
	for key := range m.pending {
		if key.name == name {
			st.Pending++
		}
	}
	v, ok := m.names.Load(name)
	if !ok {
		return st
	}
	ns := v.(*nameState)
	st.Observed = ns.observed.Load()
	st.Sampled = ns.sampled.Load()
	st.LastRefresh = ns.lastRefresh
	if ns.hasFired {
		r := ns.lastFired
		st.LastTrigger = &r
	}
	for ver, vw := range ns.windows {
		st.Versions = append(st.Versions, VersionStats{Version: ver, Samples: vw.samples, Window: vw.win.Summary()})
	}
	slices.SortFunc(st.Versions, func(a, b VersionStats) int { return a.Version - b.Version })
	return st
}

// Summary returns the rolling q-error summary and lifetime sample count
// for one (sketch, version) window — the comparative inputs of the canary
// gate.
func (m *Monitor) Summary(name string, version int) (metrics.Summary, uint64, bool) {
	v, ok := m.names.Load(name)
	if !ok {
		return metrics.Summary{}, 0, false
	}
	ns := v.(*nameState)
	m.mu.Lock()
	defer m.mu.Unlock()
	vw, ok := ns.windows[version]
	if !ok {
		return metrics.Summary{}, 0, false
	}
	return vw.win.Summary(), vw.samples, true
}

// Observe returns middleware that reports every computed estimate flowing
// through it to the monitor and forwards results unchanged. Stack it
// between the cache and the backend (cache hits repeat known answers and
// must not be re-counted):
//
//	serving := serve.NewCache(drift.Observe(backend, mon), 1024)
func Observe(inner estimator.Estimator, m *Monitor) estimator.Estimator {
	return &observer{inner: inner, m: m}
}

type observer struct {
	inner estimator.Estimator
	m     *Monitor
}

func (o *observer) Name() string { return o.inner.Name() }

func (o *observer) Estimate(ctx context.Context, q db.Query) (estimator.Estimate, error) {
	est, err := o.inner.Estimate(ctx, q)
	if err == nil && !est.CacheHit {
		o.m.Observe(est.Source, est.Version, q, est.Cardinality)
	}
	return est, err
}

func (o *observer) EstimateBatch(ctx context.Context, qs []db.Query) ([]estimator.Estimate, error) {
	ests, err := o.inner.EstimateBatch(ctx, qs)
	if err == nil {
		for i, est := range ests {
			if !est.CacheHit {
				o.m.Observe(est.Source, est.Version, qs[i], est.Cardinality)
			}
		}
	}
	return ests, err
}
