// Package fixture seeds lockguard violations: guarded fields accessed
// without their mutex, access after an early unlock, calls to methods that
// assume the mutex held made without it, and a guard naming a non-existent
// sibling — next to the compliant lock/defer-unlock, *Locked-suffix, and
// //deepsketch:locked shapes.
package fixture

import "sync"

type counter struct {
	mu   sync.Mutex
	n    int // guarded by mu
	name string
}

func (c *counter) incGood() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.n++
}

func (c *counter) incBad() {
	c.n++ // want "n is accessed without holding mu"
}

func (c *counter) readAfterUnlock() int {
	c.mu.Lock()
	v := c.n
	c.mu.Unlock()
	v += c.n // want "n is accessed without holding mu"
	return v
}

// bumpLocked's suffix marks it as called with mu held.
func (c *counter) bumpLocked() { c.n++ }

// bumpCallerHolds declares the same contract explicitly.
//
//deepsketch:locked mu
func (c *counter) bumpCallerHolds() { c.n++ }

// bumpTwice holds mu across both calls that assume it.
func (c *counter) bumpTwice() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.bumpLocked()
	c.bumpCallerHolds()
}

// bumpUnlocked calls both without mu: the callers are what is checked.
func (c *counter) bumpUnlocked() {
	c.bumpCallerHolds() // want "bumpCallerHolds is called without holding mu"
	c.bumpLocked()      // want "bumpLocked is called without holding mu"
}

// bumpAll assumes mu held itself, so its calls need no lock of their own.
//
//deepsketch:locked mu
func (c *counter) bumpAll() {
	c.bumpLocked()
	c.bumpCallerHolds()
}

// label is unguarded: free access is fine.
func (c *counter) rename(s string) { c.name = s }

// twoGuards has fields under two mutexes, so a *Locked name does not say
// which one its callers must hold; only the directive does.
type twoGuards struct {
	a, b sync.Mutex
	x    int // guarded by a
	y    int // guarded by b
}

func (t *twoGuards) resetLocked() { t.x, t.y = 0, 0 }

// reset is not reported: resetLocked's guard is ambiguous.
func (t *twoGuards) reset() { t.resetLocked() }

type badGuard struct {
	lock sync.Mutex
	// guarded by missing
	v int // want "field is 'guarded by missing' but missing is not a sibling mutex field"
}

func (b *badGuard) get() int {
	b.lock.Lock()
	defer b.lock.Unlock()
	return b.v
}
