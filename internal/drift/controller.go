package drift

import (
	"context"
	"fmt"
	"sync"
	"time"

	"deepsketch/internal/lifecycle"
	"deepsketch/internal/trainmon"
	"deepsketch/internal/workload"
)

// State is a controller cycle's phase.
type State string

// Cycle states: a cycle refreshes, the refreshed sketch either swaps in
// directly (ending the cycle) or canaries, and the gate ends a canarying
// cycle by promoting or aborting it.
const (
	StateIdle       State = "idle"
	StateRefreshing State = "refreshing"
	StateCanarying  State = "canarying"
)

// The two places a cycle's training workload can come from.
const (
	// SourceWAL is observed traffic: logged actuals (ControllerConfig.Observed).
	SourceWAL = "wal"
	// SourceSynthetic is generated and labeled (ControllerConfig.Synthetic,
	// or the CycleOptions.Workload of an operator-started cycle).
	SourceSynthetic = "synthetic"
)

const (
	// MinObserved is the fewest distinct observed actuals a triggered cycle
	// trains on; with fewer the synthetic generator covers the schema better.
	MinObserved = 32
	// deferDeadline bounds how long a trigger waits for MinObserved actuals
	// before the cycle runs on synthetic data instead. It equals the default
	// trigger cooldown: deferring never delays a repair longer than a
	// consumed trigger would have delayed the next one.
	deferDeadline = time.Minute
)

// Deferral records an observed source that is short of MinObserved: while a
// trigger is being declined for it (CycleStatus.Deferred), and on the cycle
// that gave up waiting and trained on synthetic data (WorkloadInfo.Shortfall).
type Deferral struct {
	Have  int       `json:"have"`
	Want  int       `json:"want"`
	Since time.Time `json:"since"`
}

// WorkloadInfo is the controller's workload-source decision for one cycle.
type WorkloadInfo struct {
	// Source is SourceWAL or SourceSynthetic.
	Source string `json:"workload_source,omitempty"`
	// Count is the number of labeled queries trained on (0 until a
	// synthetic workload has been generated).
	Count int `json:"workload_count,omitempty"`
	// Shortfall is set when an observed source was configured but still
	// short at the deferral deadline, so the cycle fell back to synthetic.
	Shortfall *Deferral `json:"shortfall,omitempty"`
}

// Event is one controller state transition, delivered to the OnEvent hook.
type Event struct {
	// Name is the sketch the transition concerns.
	Name string
	// Kind is "refresh_started", "swapped", "canary_started", "promoted",
	// "aborted", "pinned_rejected" or "error".
	Kind string
	// Version is the version the transition produced or judged (0 when not
	// applicable). For "pinned_rejected" it is the base version that stays
	// live — the rejected candidate never received a version number.
	Version int
	// Reason is what started the cycle. For "pinned_rejected" it is instead
	// the rail verdict (Kind "pinned_regress", Value the candidate's pinned
	// median, Threshold the tolerated limit).
	Reason Reason
	// Workload is the cycle's workload-source decision, on the events of
	// the refresh itself (not on the gate's "promoted"/"aborted").
	Workload WorkloadInfo
	// Pinned carries the full rail judgment for Kind "pinned_rejected"
	// (and is nil otherwise).
	Pinned *PinnedResult
	// Err carries the failure for Kind "error".
	Err error
}

// WorkloadSource produces a labeled workload to fine-tune name on.
type WorkloadSource func(ctx context.Context, name string) ([]workload.LabeledQuery, error)

// ControllerConfig parameterizes a Controller.
type ControllerConfig struct {
	// CanaryFraction is the traffic share a trigger-started refresh
	// canaries at before the gate judges it (default 0.1).
	CanaryFraction float64
	// PromoteAfter is the number of ground-truthed canary-split samples the
	// gate requires before judging (default 20).
	PromoteAfter int
	// MaxQRatio promotes the canary iff its windowed median q-error is at
	// most MaxQRatio times the primary's (default 1.1 — the canary may be
	// up to 10% worse and still promote, since it was refreshed for a
	// reason; set < 1 to require strict improvement).
	MaxQRatio float64
	// Epochs and StopAtValQ are the warm-start budget of a
	// trigger-started refresh (see lifecycle.RefreshOptions).
	Epochs     int
	StopAtValQ float64
	// Pinned, when non-nil, is the held-out pinned-benchmark rail: before
	// any refresh candidate is installed, it is evaluated on this frozen
	// labeled set against the live version, and the cycle ends
	// ("pinned_rejected") if it regresses beyond PinnedMaxRegress — even
	// when the live windows, which an adaptive feedback source can steer,
	// would later promote it.
	Pinned *PinnedBenchmark
	// PinnedMaxRegress is the rail tolerance: the candidate's pinned-set
	// median and p95 q-error may each be at most this ratio × the live
	// version's (<= 0: DefaultPinnedMaxRegress).
	PinnedMaxRegress float64
	// Observed returns name's recent observed traffic with its actual
	// cardinalities — the daemon reads the observation WAL. Nil means no
	// observed source exists and triggered cycles train on Synthetic.
	Observed func(name string) []workload.LabeledQuery
	// Synthetic generates and labels a fresh workload for name: what a
	// triggered cycle trains on when Observed is nil or still short at the
	// deferral deadline, and the default for Start.
	Synthetic WorkloadSource
	// OnEvent observes state transitions (nil for none). Called without
	// controller locks held.
	OnEvent func(Event)
	// Synchronous runs the refresh inline in Start instead of a background
	// goroutine — deterministic for tests; leave false in servers, where
	// triggers fire from the serving path.
	Synchronous bool
}

func (c ControllerConfig) withDefaults() ControllerConfig {
	if c.CanaryFraction <= 0 || c.CanaryFraction > 1 {
		c.CanaryFraction = 0.1
	}
	if c.PromoteAfter <= 0 {
		c.PromoteAfter = 20
	}
	if c.MaxQRatio <= 0 {
		c.MaxQRatio = 1.1
	}
	return c
}

// CycleOptions parameterizes one refresh cycle (Controller.Start). It says
// what to do, never who asks: an operator's refresh, an operator's canary
// and a drift trigger differ only in these values.
type CycleOptions struct {
	// Reason is recorded on the cycle and its events.
	Reason Reason
	// Workload produces the labeled workload to fine-tune on (nil: the
	// controller's Synthetic source).
	Workload WorkloadSource
	// CanaryFraction in (0, 1] installs the refreshed sketch as a canary at
	// that traffic share, to be promoted or aborted by the gate (or an
	// operator); 0 swaps it live directly.
	CanaryFraction float64
	// Epochs and StopAtValQ are the warm-start budget (see
	// lifecycle.RefreshOptions).
	Epochs     int
	StopAtValQ float64
	// Monitor receives the fine-tune's stage/epoch events (nil for none).
	Monitor *trainmon.Monitor
}

// cycle is one in-flight refresh cycle.
type cycle struct {
	state       State
	reason      Reason
	startedAt   time.Time
	baseVersion int
	canaryVer   int
}

// cycleState is what the controller remembers about one sketch; guarded by
// Controller.mu.
type cycleState struct {
	cur *cycle // nil when idle
	// workload, lastErr and lastPinned describe the running cycle, or the
	// most recent one when idle; Start resets workload and lastErr.
	workload   WorkloadInfo
	lastErr    string
	lastPinned *PinnedResult
	// deferred is set while triggers are being declined for short observed
	// evidence; deferredFor is the trigger that is waiting.
	deferred    *Deferral
	deferredFor Reason
}

// CycleStatus reports a sketch's controller state for the drift endpoint.
type CycleStatus struct {
	State       State     `json:"state"`
	Reason      *Reason   `json:"reason,omitempty"`
	StartedAt   time.Time `json:"started_at,omitzero"`
	BaseVersion int       `json:"base_version,omitempty"`
	CanaryVer   int       `json:"canary_version,omitempty"`
	// WorkloadInfo is the running cycle's workload decision, or the most
	// recent cycle's when idle.
	WorkloadInfo
	// Deferred is set while a trigger is being declined because the
	// observed source holds fewer than MinObserved actuals.
	Deferred *Deferral `json:"deferred,omitempty"`
	// LastError says why the most recent cycle did not land (a failure, a
	// pinned-rail rejection, a gate abort); it outlives the cycle and is
	// cleared when the next one starts.
	LastError string `json:"last_error,omitempty"`
	// Pinned is the most recent pinned-benchmark rail judgment for this
	// sketch (nil when the rail is off or has not run); it outlives the
	// cycle that produced it.
	Pinned *PinnedResult `json:"pinned,omitempty"`
}

// Controller runs every refresh cycle over a lifecycle registry: obtain a
// workload → warm-start refresh → pinned rail → swap directly or canary at
// a traffic fraction → comparative windowed q-error gate → promote or
// abort. Drift triggers, operator refreshes and operator canaries all
// enter through Start, so one cycle runs per sketch at a time whoever asks.
// For a trigger the controller also decides which workload to train on
// (observed traffic first, see handleTrigger) and records the decision.
type Controller struct {
	reg *lifecycle.Registry
	mon *Monitor
	cfg ControllerConfig

	mu     sync.Mutex
	names  map[string]*cycleState
	ctx    context.Context
	closed bool
	// observedCycles counts cycles that trained on observed traffic.
	observedCycles uint64
	// wg tracks the cycle goroutines Start launches; Close joins it.
	wg sync.WaitGroup
}

// NewController wires a controller to the registry and monitor and
// installs itself as the monitor's trigger handler.
//
//deepsketch:ctxorigin long-lived background actor; refresh cycles outlive any one caller
func NewController(reg *lifecycle.Registry, mon *Monitor, cfg ControllerConfig) *Controller {
	c := &Controller{
		reg: reg, mon: mon, cfg: cfg.withDefaults(),
		names: make(map[string]*cycleState),
		ctx:   context.Background(),
	}
	mon.OnTrigger(c.handleTrigger)
	return c
}

// stateLocked returns (creating if needed) name's state, first dropping a
// canarying cycle whose canary an operator promoted, aborted or swapped
// away directly on the registry — the cycle is moot. c.mu held.
func (c *Controller) stateLocked(name string) *cycleState {
	ns, ok := c.names[name]
	if !ok {
		ns = &cycleState{}
		c.names[name] = ns
	}
	if cy := ns.cur; cy != nil && cy.state == StateCanarying {
		if ci, active := c.reg.Canary(name); !active || ci.Version != cy.canaryVer {
			ns.cur = nil
		}
	}
	return ns
}

// handleTrigger is the monitor's trigger handler: it starts a repair cycle
// for name and reports whether it did. A declined trigger is not consumed —
// the monitor stamps no cooldown, so the still-exceeded threshold re-fires
// on the next resolved sample. Declined are: a name the registry does not
// manage, a window that is not the live version's (a canary window
// tripping a threshold is judged by the gate, not repaired again), a name
// with a cycle or canary already in flight, and an observed source that is
// still short of MinObserved before the deferral deadline.
func (c *Controller) handleTrigger(name string, r Reason) bool {
	_, live, err := c.reg.Live(name)
	if err != nil || (r.Version != 0 && r.Version != live) {
		return false
	}
	c.mu.Lock()
	busy := c.busyLocked(name) != nil
	c.mu.Unlock()
	if busy {
		return false
	}
	o := CycleOptions{
		Reason: r, CanaryFraction: c.cfg.CanaryFraction,
		Epochs: c.cfg.Epochs, StopAtValQ: c.cfg.StopAtValQ,
	}
	decided := WorkloadInfo{Source: SourceSynthetic}
	if c.cfg.Observed != nil {
		observed := c.cfg.Observed(name)
		if len(observed) >= MinObserved {
			decided = WorkloadInfo{Source: SourceWAL, Count: len(observed)}
			o.Workload = func(context.Context, string) ([]workload.LabeledQuery, error) { return observed, nil }
		} else if decided.Shortfall = c.deferTrigger(name, r, len(observed)); decided.Shortfall == nil {
			return false
		}
	}
	return c.start(name, o, decided) == nil
}

// deferTrigger notes that name's observed source holds only have actuals.
// The first call starts the name's deferral clock; until deferDeadline has
// passed it returns nil (decline the trigger), afterwards the shortfall the
// synthetic fallback must record.
func (c *Controller) deferTrigger(name string, r Reason, have int) *Deferral {
	c.mu.Lock()
	defer c.mu.Unlock()
	ns := c.stateLocked(name)
	if ns.deferred == nil {
		ns.deferred = &Deferral{Want: MinObserved, Since: time.Now()}
	}
	ns.deferred.Have, ns.deferredFor = have, r
	if time.Since(ns.deferred.Since) < deferDeadline {
		return nil
	}
	d := *ns.deferred
	return &d
}

// busyLocked reports why name cannot start a cycle now (nil when it can);
// c.mu held.
func (c *Controller) busyLocked(name string) error {
	if cy := c.stateLocked(name).cur; cy != nil {
		return fmt.Errorf("drift: %q already has a cycle in progress (%s)", name, cy.state)
	}
	if ci, active := c.reg.Canary(name); active {
		return fmt.Errorf("drift: %q has an active canary at version %d — promote or abort it first", name, ci.Version)
	}
	return nil
}

// Start begins a refresh cycle for name: obtain the workload, warm-start
// refresh the live version on it, judge the candidate against the pinned
// benchmark when one is configured, then swap it live (o.CanaryFraction 0)
// or install it as a canary for the gate to judge on Tick. It refuses when
// the registry does not manage name, when name already has a cycle or an
// active canary, and after Close. On success the cycle is registered —
// Cycle reports it refreshing — before Start returns, the name's last
// error is cleared and "refresh_started" has been emitted; the refresh
// itself runs in a goroutine Close joins (inline when Synchronous).
func (c *Controller) Start(name string, o CycleOptions) error {
	return c.start(name, o, WorkloadInfo{Source: SourceSynthetic})
}

// start is Start with the workload decision already made: a caller's cycle
// trains on o.Workload or the Synthetic source, a trigger's on whatever
// handleTrigger decided.
func (c *Controller) start(name string, o CycleOptions, decided WorkloadInfo) error {
	_, live, err := c.reg.Live(name)
	if err != nil {
		return err
	}
	cy := &cycle{state: StateRefreshing, reason: o.Reason, startedAt: time.Now(), baseVersion: live}
	c.mu.Lock()
	err = c.busyLocked(name)
	if c.closed {
		err = fmt.Errorf("drift: controller is closed")
	}
	if err != nil {
		c.mu.Unlock()
		return err
	}
	ns := c.stateLocked(name)
	ns.cur, ns.workload, ns.lastErr, ns.deferred = cy, decided, "", nil
	if decided.Source == SourceWAL {
		c.observedCycles++
	}
	ctx := c.ctx
	if !c.cfg.Synchronous {
		c.wg.Add(1)
	}
	c.mu.Unlock()

	c.emit(Event{Name: name, Kind: "refresh_started", Version: live, Reason: o.Reason, Workload: decided})
	if c.cfg.Synchronous {
		c.run(ctx, name, cy, o, decided)
		return nil
	}
	go func() {
		defer c.wg.Done()
		c.run(ctx, name, cy, o, decided)
	}()
	return nil
}

// end closes name's cycle cy; errMsg, when non-empty, is why it did not
// land. A cycle an operator's registry call already made moot is left
// alone.
func (c *Controller) end(name string, cy *cycle, errMsg string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	ns := c.stateLocked(name)
	if ns.cur == cy {
		ns.cur = nil
	}
	if errMsg != "" {
		ns.lastErr = errMsg
	}
}

// run is the one refresh executor: workload → candidate → pinned rail →
// install. Failures and rail rejections end the cycle with the live
// version untouched.
func (c *Controller) run(ctx context.Context, name string, cy *cycle, o CycleOptions, info WorkloadInfo) {
	fail := func(err error) {
		c.end(name, cy, err.Error())
		c.emit(Event{Name: name, Kind: "error", Reason: cy.reason, Workload: info, Err: err})
	}
	source := o.Workload
	if source == nil {
		source = c.cfg.Synthetic
	}
	if source == nil {
		fail(fmt.Errorf("drift: controller has no workload source configured"))
		return
	}
	labeled, err := source(ctx, name)
	if err != nil {
		fail(fmt.Errorf("drift: delta workload for %q: %w", name, err))
		return
	}
	info.Count = len(labeled)
	c.mu.Lock()
	c.stateLocked(name).workload = info
	c.mu.Unlock()
	cand, err := c.reg.RefreshCandidate(ctx, lifecycle.RefreshOptions{
		Name: name, Workload: labeled,
		Epochs: o.Epochs, StopAtValQ: o.StopAtValQ, Monitor: o.Monitor,
	})
	if err != nil {
		fail(fmt.Errorf("drift: refresh of %q: %w", name, err))
		return
	}
	c.mon.MarkRefreshed(name)
	// The pinned rail judges the candidate BEFORE it is installed: the
	// delta workload and the live windows both come from observed traffic,
	// the one channel an adaptive feedback source controls, so a candidate
	// that merely echoes poisoned feedback must be stopped here — the
	// comparative canary gate downstream would grade it against the same
	// poisoned windows and wave it through.
	if c.cfg.Pinned != nil && c.cfg.Pinned.Len() > 0 {
		liveSk, _, lerr := c.reg.Live(name)
		if lerr != nil {
			fail(fmt.Errorf("drift: pinned rail for %q: %w", name, lerr))
			return
		}
		res, jerr := c.cfg.Pinned.Judge(ctx, liveSk, cand, c.cfg.PinnedMaxRegress)
		if jerr != nil {
			fail(fmt.Errorf("drift: pinned rail for %q: %w", name, jerr))
			return
		}
		c.mu.Lock()
		c.stateLocked(name).lastPinned = &res
		c.mu.Unlock()
		if !res.Pass {
			c.end(name, cy, "refresh rejected: candidate regressed on the pinned benchmark")
			c.emit(Event{
				Name: name, Kind: "pinned_rejected", Version: cy.baseVersion,
				Reason:   Reason{Kind: "pinned_regress", Value: res.Candidate.Median, Threshold: res.Live.Median * res.MaxRegress},
				Workload: info, Pinned: &res,
			})
			return
		}
	}
	// The cycle stays "refreshing" until the install's event has been
	// delivered: whoever polls Cycle for the refresh to finish then also
	// finds whatever the event handler did (the daemon's store write).
	if o.CanaryFraction == 0 {
		ver, err := c.reg.Swap(name, cand)
		if err != nil {
			fail(fmt.Errorf("drift: swap of %q: %w", name, err))
			return
		}
		c.emit(Event{Name: name, Kind: "swapped", Version: ver, Reason: cy.reason, Workload: info})
		c.end(name, cy, "")
		return
	}
	ver, err := c.reg.StartCanary(name, cand, o.CanaryFraction)
	if err != nil {
		fail(fmt.Errorf("drift: canary of %q: %w", name, err))
		return
	}
	c.emit(Event{Name: name, Kind: "canary_started", Version: ver, Reason: cy.reason, Workload: info})
	c.mu.Lock()
	cy.state = StateCanarying
	cy.canaryVer = ver
	c.mu.Unlock()
}

// AdoptCanary registers an already-active registry canary (one resumed
// from a persistent store after a restart) as a canarying cycle, so the
// comparative q-error gate judges it on subsequent Ticks — without it, a
// daemon restarted mid-canary would serve the split forever, promoted by
// nobody. Reports whether a cycle was adopted; no-op when the name has no
// canary or already has a cycle.
func (c *Controller) AdoptCanary(name string) bool {
	ci, ok := c.reg.Canary(name)
	if !ok {
		return false
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	ns := c.stateLocked(name)
	if ns.cur != nil {
		return false
	}
	ns.cur = &cycle{
		state: StateCanarying, reason: Reason{Kind: "adopted"}, startedAt: time.Now(),
		baseVersion: ci.BaseVersion, canaryVer: ci.Version,
	}
	return true
}

// Tick drives the canary gates, the staleness clock and the deferral
// deadline; call it on a timer (Run does) or directly in tests. For every
// canarying sketch whose canary window has accumulated PromoteAfter
// ground-truthed samples, the gate compares windowed median q-errors and
// promotes or aborts. A deferred trigger whose deadline has passed is
// fired again, so its cycle starts even if no further sample arrives.
func (c *Controller) Tick() {
	c.mon.CheckStaleness()

	type judged struct {
		name    string
		cy      *cycle
		promote bool
	}
	var decisions []judged
	overdue := map[string]Reason{}
	c.mu.Lock()
	for name := range c.names {
		ns := c.stateLocked(name)
		if ns.deferred != nil && time.Since(ns.deferred.Since) >= deferDeadline {
			overdue[name] = ns.deferredFor
		}
		cy := ns.cur
		if cy == nil || cy.state != StateCanarying {
			continue
		}
		canarySum, canaryN, ok := c.mon.Summary(name, cy.canaryVer)
		if !ok || canaryN < uint64(c.cfg.PromoteAfter) {
			continue
		}
		primarySum, primaryN, ok := c.mon.Summary(name, cy.baseVersion)
		if !ok || primaryN == 0 {
			continue
		}
		ns.cur = nil
		decisions = append(decisions, judged{
			name: name, cy: cy,
			promote: canarySum.Median <= primarySum.Median*c.cfg.MaxQRatio,
		})
	}
	c.mu.Unlock()

	for _, d := range decisions {
		ev := Event{Name: d.name, Kind: "promoted", Reason: d.cy.reason}
		var err error
		if d.promote {
			ev.Version, err = c.reg.PromoteCanary(d.name)
		} else {
			ev.Kind, ev.Version = "aborted", d.cy.canaryVer
			if err = c.reg.AbortCanary(d.name); err == nil {
				c.end(d.name, d.cy, fmt.Sprintf("canary v%d aborted by the q-error gate", d.cy.canaryVer))
			}
		}
		if err != nil {
			c.end(d.name, d.cy, err.Error())
			ev = Event{Name: d.name, Kind: "error", Reason: d.cy.reason, Err: err}
		}
		c.emit(ev)
	}
	for name, r := range overdue {
		c.mon.fire(name, r)
	}
}

// emit delivers one event to the OnEvent hook, if any.
func (c *Controller) emit(ev Event) {
	if c.cfg.OnEvent != nil {
		c.cfg.OnEvent(ev)
	}
}

// Run drives the controller until ctx is done: monitor processing in the
// caller's charge (Monitor.Run), gates and staleness here, every interval.
// Cycles started while Run is active are cancelled with ctx.
func (c *Controller) Run(ctx context.Context, interval time.Duration) {
	c.mu.Lock()
	c.ctx = ctx
	c.mu.Unlock()
	if interval <= 0 {
		interval = 5 * time.Second
	}
	t := time.NewTicker(interval)
	defer t.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-t.C:
			c.Tick()
		}
	}
}

// Close refuses further cycles and waits for the running ones' goroutines:
// after it returns nothing the controller started is still training,
// touching the registry or delivering events.
func (c *Controller) Close() {
	c.mu.Lock()
	c.closed = true
	c.mu.Unlock()
	c.wg.Wait()
}

// ObservedCycles reports how many cycles trained on observed traffic
// (SourceWAL) rather than a synthetic workload.
func (c *Controller) ObservedCycles() uint64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.observedCycles
}

// Cycle reports name's controller state (StateIdle when no cycle runs).
func (c *Controller) Cycle(name string) CycleStatus {
	c.mu.Lock()
	defer c.mu.Unlock()
	ns := c.stateLocked(name)
	st := CycleStatus{
		State: StateIdle, WorkloadInfo: ns.workload,
		LastError: ns.lastErr, Pinned: ns.lastPinned,
	}
	if ns.deferred != nil {
		d := *ns.deferred
		st.Deferred = &d
	}
	if cy := ns.cur; cy != nil {
		r := cy.reason
		st.State = cy.state
		st.Reason = &r
		st.StartedAt = cy.startedAt
		st.BaseVersion = cy.baseVersion
		st.CanaryVer = cy.canaryVer
	}
	return st
}
