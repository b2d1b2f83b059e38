// Package fixture seeds lockorder violations — a re-acquire, an
// inconsistent two-mutex ordering, and a call-propagated cycle — next to
// the consistent nesting the analyzer must stay quiet on.
package fixture

import "sync"

// consistent always nests inner under outer: one order, no cycle.
type consistent struct {
	outer sync.Mutex
	inner sync.Mutex
	n     int
}

func (c *consistent) first() {
	c.outer.Lock()
	defer c.outer.Unlock()
	c.inner.Lock()
	c.n++
	c.inner.Unlock()
}

func (c *consistent) second() {
	c.outer.Lock()
	c.inner.Lock()
	c.n--
	c.inner.Unlock()
	c.outer.Unlock()
}

// handoff releases before taking the other mutex: no ordering edge.
func (c *consistent) handoff() {
	c.inner.Lock()
	c.n++
	c.inner.Unlock()
	c.outer.Lock()
	c.n--
	c.outer.Unlock()
}

// rec re-acquires its own mutex, directly and through a call.
type rec struct {
	mu sync.Mutex
	n  int
}

func (r *rec) direct() {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.mu.Lock() // want "acquired while already held"
	r.n++
	r.mu.Unlock()
}

func (r *rec) helper() {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.n++
}

func (r *rec) viaCall() {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.helper() // want "already held at this call"
}

// ab is locked a-then-b in one method and b-then-a in another: the
// classic two-goroutine deadlock signature.
type ab struct {
	a sync.Mutex
	b sync.Mutex
}

func (p *ab) aThenB() {
	p.a.Lock()
	p.b.Lock() // want "potential deadlock: lock-acquisition cycle"
	p.b.Unlock()
	p.a.Unlock()
}

func (p *ab) bThenA() {
	p.b.Lock()
	p.a.Lock()
	p.a.Unlock()
	p.b.Unlock()
}

// cd closes its cycle through a call: cCallsD holds c and calls lockD.
type cd struct {
	c sync.Mutex
	d sync.Mutex
}

func (p *cd) lockD() {
	p.d.Lock()
	p.d.Unlock()
}

func (p *cd) cCallsD() {
	p.c.Lock()
	p.lockD() // want "potential deadlock: lock-acquisition cycle"
	p.c.Unlock()
}

func (p *cd) dThenC() {
	p.d.Lock()
	p.c.Lock()
	p.c.Unlock()
	p.d.Unlock()
}
