// Package park provides goroutine blocking with permit semantics, modeled on
// java.util.concurrent.locks.LockSupport, which the paper's implementations
// use to deschedule waiting threads.
//
// A Parker holds at most one permit. Unpark makes the permit available;
// Park consumes the permit, blocking until one is available. An Unpark that
// arrives before the corresponding Park is therefore never lost — exactly
// the property the synchronous queue algorithms rely on, because the
// fulfilling thread may call Unpark between the waiter's decision to block
// and the waiter actually blocking.
//
// The permit lives in a futex-style state word (empty → permit | parked) on
// an atomic.Uint32. The channel a parked goroutine actually blocks on, and
// the timer of a timed wait, belong to the Parker, as LockSupport's
// blocking state belongs to the thread: both are made on the first wait
// that needs them and reused by every later one. The state word is the
// single source of truth: notifier tokens are hints ("look at the state
// word again"), so a stale token left by a late Unpark is at worst a
// spurious wakeup, which every caller must tolerate anyway (see Wait).
// This makes the steady Park/Unpark cycle allocation-free, and lets a
// Table re-lend parkers that a late Unpark may still reach.
package park

import (
	"sync/atomic"
	"time"

	"synchq/internal/fault"
	"synchq/internal/metrics"
)

// Parker states. The owner moves empty→parked (before blocking) and
// permit→empty (consuming); unparkers move empty→permit and parked→permit.
const (
	pEmpty  uint32 = iota // no permit, owner not blocked
	pPermit               // a permit is available
	pParked               // the owner is blocked (or committing to block)
)

// notifier is a Parker's wake-up channel (capacity 1: tokens coalesce
// like permits) and the timer of its timed waits. The owner makes it on
// its first slow-path wait and the timer on its first timed one.
type notifier struct {
	ch chan struct{}
	t  *time.Timer
}

// Parker blocks and unblocks a single goroutine with one-permit semantics.
// A Parker must be created with New, or lent by a Table, whose parkers
// carry the structure's metrics handle and fault injector, and must not be
// copied after first use.
// Park, ParkTimeout, and the other waiting methods may only be called by
// one goroutine at a time (the owner); Unpark may be called by any
// goroutine.
type Parker struct {
	state atomic.Uint32
	n     *notifier // made before the first move to parked (see Table.Reserve)
	m     *metrics.Handle
	f     *fault.Injector
}

// New returns a Parker with no permit available.
func New() *Parker {
	return &Parker{}
}

// Unpark makes the permit available, unblocking a current or future Park.
// Multiple Unparks coalesce into a single permit; only the Unpark that
// deposits the permit counts as a delivery. It inlines into Table.Wake, so
// a resolver's wake-up costs one frame above the runtime's channel send: a
// fresh goroutine's first hand-off runs on its small starting stack.
func (p *Parker) Unpark() {
	// One swap covers every transition: empty→permit, parked→permit, and
	// permit→permit, which coalesces.
	if s := p.state.Swap(pPermit); s != pPermit {
		p.m.Inc(metrics.Unparks)
		// The owner made its notifier before it first moved to parked,
		// and the Swap saw parked, so the load of n is ordered after that
		// write. If the owner has stopped waiting meanwhile, the token is
		// a harmless stray.
		if s == pParked {
			select {
			case p.n.ch <- struct{}{}:
			default:
			}
		}
	}
}

// Park blocks until the permit is available and consumes it. Unlike the
// timed and cancelable waits, Park is exact even under fault injection: a
// return always consumed a real permit.
func (p *Parker) Park() {
	p.block(false)
}

// TryPark consumes the permit if one is immediately available and reports
// whether it did.
func (p *Parker) TryPark() bool {
	return p.state.CompareAndSwap(pPermit, pEmpty)
}

// ParkTimeout blocks until the permit is available or d elapses. It returns
// true if the permit was consumed, false on timeout. A non-positive d polls
// the permit without blocking. Under fault injection the wait may wake
// spuriously (returning true without a permit) or observe a skewed timer,
// so faulty callers must re-validate their wait condition.
func (p *Parker) ParkTimeout(d time.Duration) bool {
	if d <= 0 {
		return p.TryPark()
	}
	deadline := time.Now().Add(d)
	return p.wait(&deadline, nil, true) == Unparked
}

// ParkDeadline blocks until the permit is available or the deadline passes.
// A zero deadline means wait forever. It returns true if the permit was
// consumed (spuriously under fault injection, as with ParkTimeout).
func (p *Parker) ParkDeadline(deadline time.Time) bool {
	if deadline.IsZero() {
		p.Park()
		return true
	}
	return p.wait(&deadline, nil, true) == Unparked
}
