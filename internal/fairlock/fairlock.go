// Package fairlock implements a FIFO-fair mutual exclusion lock.
//
// The Java SE 5.0 SynchronousQueue's fair mode uses a fair-mode entry lock
// to ensure FIFO wait ordering, and the paper identifies precisely this
// lock as the reason fair mode is so much slower: strict FIFO handoff
// causes pileups that block the threads that would fulfill waiting threads.
// Go's sync.Mutex is deliberately not strictly fair (it admits barging), so
// reproducing the Java 5 fair queue's performance profile requires this
// substrate.
//
// A queued goroutine waits on a parker lent by the mutex's park.Table, as
// a Java thread brings its own permit to LockSupport.park, and returns it
// once Unlock's Unpark, the only one sent to it, has woken it.
package fairlock

import (
	"container/list"
	"sync"

	"synchq/internal/park"
)

// Mutex is a mutual exclusion lock that grants ownership to waiters in
// strict arrival order, handing the lock directly to the longest-waiting
// goroutine on unlock (no barging). The zero value is an unlocked Mutex.
// A Mutex must not be copied after first use.
type Mutex struct {
	mu      sync.Mutex
	locked  bool
	waiters list.List // of *park.Parker
	parkers park.Table
}

// Lock acquires the lock, queueing behind all earlier arrivals.
func (m *Mutex) Lock() {
	m.mu.Lock()
	if !m.locked {
		m.locked = true
		m.mu.Unlock()
		return
	}
	idx, p := m.parkers.Lend()
	m.waiters.PushBack(p)
	m.mu.Unlock()
	// Ownership is transferred directly by Unlock; when Park returns we
	// hold the lock.
	p.Park()
	m.parkers.Return(idx)
}

// TryLock acquires the lock only if it is free and no goroutine is queued.
func (m *Mutex) TryLock() bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	if !m.locked {
		m.locked = true
		return true
	}
	return false
}

// Unlock releases the lock, handing it to the longest-waiting goroutine if
// any. Unlocking an unheld Mutex panics, as with sync.Mutex.
func (m *Mutex) Unlock() {
	m.mu.Lock()
	if !m.locked {
		m.mu.Unlock()
		panic("fairlock: unlock of unlocked mutex")
	}
	if e := m.waiters.Front(); e != nil {
		p := m.waiters.Remove(e).(*park.Parker)
		// locked stays true: ownership passes to p's goroutine.
		m.mu.Unlock()
		p.Unpark()
		return
	}
	m.locked = false
	m.mu.Unlock()
}
