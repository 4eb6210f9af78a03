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
// an atomic.Uint32; the channel a parked goroutine actually blocks on is a
// pooled, resettable notifier attached only for the duration of a slow-path
// wait. The state word is the single source of truth: notifier tokens are
// hints ("look at the state word again"), so a stale token straying into a
// recycled notifier is at worst a spurious wakeup, which every caller must
// tolerate anyway (see Wait). This makes the steady Park/Unpark cycle
// allocation-free, and lets a Table recycle parkers that a late Unpark
// may still reach.
package park

import (
	"sync"
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

// notifier is a pooled wake-up channel. It is boxed in a struct so the
// Parker can hold it in an atomic.Pointer (Go has no atomic channel type):
// the owner attaches it before publishing the parked state and detaches it
// after the wait, and unparkers load it only after winning the
// parked→permit transition, so the pointer itself needs no further
// synchronization discipline from callers.
type notifier struct {
	ch chan struct{}
}

// sigPool recycles notifiers across all Parkers. A notifier fetched from
// the pool may carry a stale token from a previous life (an unparker may
// send after the owner has already detached and recycled the notifier);
// Get-side draining plus state-word revalidation makes that harmless.
var sigPool = sync.Pool{
	New: func() any { return &notifier{ch: make(chan struct{}, 1)} },
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
	sig   atomic.Pointer[notifier]
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
		// The owner attached its notifier before moving to parked, so a
		// non-nil load here is the channel it is blocked on (or about to
		// detach — then the token is a harmless stray). Non-blocking:
		// capacity 1 and tokens coalesce like permits.
		if n := p.sig.Load(); s == pParked && n != nil {
			select {
			case n.ch <- struct{}{}:
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

// timerPool recycles timers across timed waits. Timed waits are on the hot
// path of poll/offer with patience, so avoiding a timer allocation per wait
// matters.
var timerPool = sync.Pool{
	New: func() any {
		t := time.NewTimer(time.Hour)
		if !t.Stop() {
			<-t.C
		}
		return t
	},
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
