// Package lockdiscipline exercises the lockdiscipline analyzer: fields
// annotated //hmn:guardedby may only be touched under the named mutex,
// inside an //hmn:locked function, or on a value still local to its
// constructor.
package lockdiscipline

import "sync"

// box owns its mutex.
type box struct {
	mu sync.Mutex
	n  int //hmn:guardedby mu
	ok bool
	// typo is what a misspelt annotation looks like: it guards nothing,
	// so the shared directive parser reports the name.
	typo int //hmn:gaurdedby mu // want `unknown directive //hmn:gaurdedby`
}

// readBare touches n with no lock.
func readBare(b *box) int {
	return b.n // want `b\.n is guarded by "mu" but no b\.mu\.Lock\(\)`
}

// writeBare writes n with no lock.
func writeBare(b *box) {
	b.n = 7 // want `b\.n is guarded by "mu"`
}

// readLocked holds the mutex: the defer-Unlock idiom qualifies.
func readLocked(b *box) int {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.n
}

// readHelper declares that its callers hold the lock.
//
//hmn:locked mu
func readHelper(b *box) int {
	return b.n
}

// newBox constructs an unpublished value: no lock needed.
func newBox() *box {
	b := &box{}
	b.n = 1
	return b
}

// unguarded fields stay free.
func readOK(b *box) bool { return b.ok }

// wrongLock holds a different value's mutex; the access is still bare.
func wrongLock(a, b *box) int {
	a.mu.Lock()
	defer a.mu.Unlock()
	return b.n // want `b\.n is guarded by "mu"`
}

// ledger has no lock of its own: its state is guarded by the external
// capability token "owner", so only //hmn:locked owner (or local
// construction) grants access.
type ledger struct {
	v int //hmn:guardedby owner
}

// touchBare inherits no obligation.
func touchBare(l *ledger) {
	l.v++ // want `l\.v is guarded by "owner"`
}

// touchLocked declares the obligation.
//
//hmn:locked owner
func touchLocked(l *ledger) {
	l.v++
}

// newLedger constructs locally.
func newLedger() *ledger {
	l := &ledger{}
	l.v = 1
	return l
}
