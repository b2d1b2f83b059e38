// Package pressure is the process-wide serving-pressure gauge. A serving
// handler brackets each request with Begin and End; background work that
// would take every core — training steps, labeling — reads the gauge and
// leaves one core to serving while requests are in flight (Width,
// Watch.Width). Nothing but the daemon's serving routes moves it, so a
// command-line build, a test or an idle daemon always reads it idle.
//
// The gauge only decides how many workers a piece of background work forks.
// Every caller's result is the same bits at any width, so a reading that
// races a request changes timing, never an answer.
package pressure

import "sync/atomic"

// state packs the gauge into one word so that Begin and End are one atomic
// add each: the low 32 bits count the requests in flight, the high 32 bits
// count Begin and End calls (mod 2³²). Two equal readings therefore mean no
// request began or ended in between.
var state atomic.Uint64

const (
	begin = 1<<32 + 1 // one more event, one more in flight
	end   = 1<<32 - 1 // one more event, one fewer in flight (no borrow: in flight ≥ 1)
)

// Begin marks a serving request in flight until the matching End.
func Begin() { state.Add(begin) }

// End ends what a Begin began.
func End() { state.Add(end) }

// narrow is the width background work of full workers takes beside serving.
func narrow(full int) int { return max(1, full-1) }

// Width returns the worker count for background work of full workers that
// starts now: max(1, full−1) while a serving request is in flight, full
// otherwise.
func Width(full int) int {
	if uint32(state.Load()) != 0 {
		return narrow(full)
	}
	return full
}

// A Watch reads the gauge for a run of steps: each Width call narrows if a
// serving request was in flight at any moment since the previous call (or
// since NewWatch), not only at the instant of the reading. A Watch is used
// by one goroutine at a time.
type Watch struct{ last uint64 }

// NewWatch returns a Watch whose first Width call looks back to now.
func NewWatch() *Watch { return &Watch{last: state.Load()} }

// Width returns the worker count for the next step of background work of
// full workers: max(1, full−1) if a serving request was in flight at any
// moment since the previous call, full otherwise.
func (w *Watch) Width(full int) int {
	s := state.Load()
	busy := s != w.last || uint32(s) != 0
	w.last = s
	if busy {
		return narrow(full)
	}
	return full
}
