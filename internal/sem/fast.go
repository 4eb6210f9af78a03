package sem

import (
	"container/list"
	"runtime"
	"sync"
	"sync/atomic"

	"synchq/internal/park"
)

// Fast is a counting semaphore with a Lamport-style fast path: an
// uncontended Acquire or Release is a single atomic add with no lock and
// no blocking. The paper (§3.1) notes that exactly this streamlining — "a
// fast-path acquire sequence [Lamport 1987]" — was applied to the
// semaphores of early dl.util.concurrent releases to reduce the cost of
// Hanson-style queues; baseline.HansonFast reproduces that configuration.
//
// The counter encodes permits when non-negative and the number of waiting
// acquirers when negative. Fast deliberately offers no timed acquire: with
// the counter and the wait list updated separately, a timeout would have
// to withdraw a wait that a releaser may already have committed a wake-up
// to, and the two bookkeeping sites cannot be reconciled atomically
// without giving up the lock-free fast path. This mirrors the paper's
// observation that Hanson-style queues offer "no simple way" to support
// timeout; use Semaphore for timed acquisition. Use NewFast to create one.
type Fast struct {
	state   atomic.Int64
	mu      sync.Mutex
	waiters list.List // of *park.Parker
	parkers park.Table
}

// NewFast returns a fast-path semaphore with the given permits.
func NewFast(permits int) *Fast {
	f := &Fast{}
	f.state.Store(int64(permits))
	return f
}

// Acquire obtains one permit; the uncontended case is a single atomic add.
func (f *Fast) Acquire() {
	if f.state.Add(-1) >= 0 {
		return // fast path: permit was available
	}
	// Slow path: register and park. Release has already (or will have)
	// committed one wake-up for us.
	idx, p := f.parkers.Lend()
	f.mu.Lock()
	f.waiters.PushBack(p)
	f.mu.Unlock()
	p.Park()
	f.parkers.Return(idx)
}

// TryAcquire obtains a permit only if one is immediately available.
func (f *Fast) TryAcquire() bool {
	for {
		s := f.state.Load()
		if s <= 0 {
			return false
		}
		if f.state.CompareAndSwap(s, s-1) {
			return true
		}
	}
}

// Release returns one permit; the uncontended case is a single atomic add.
func (f *Fast) Release() {
	if f.state.Add(1) > 0 {
		return // fast path: nobody was waiting
	}
	// A waiter is committed to this permit but may not have finished
	// registering; spin briefly until it appears.
	for i := 0; ; i++ {
		f.mu.Lock()
		if e := f.waiters.Front(); e != nil {
			p := f.waiters.Remove(e).(*park.Parker)
			f.mu.Unlock()
			p.Unpark()
			return
		}
		f.mu.Unlock()
		if i&7 == 7 {
			runtime.Gosched()
		}
	}
}

// Permits returns the number of currently available permits (non-negative
// part of the state). Intended for tests and monitoring.
func (f *Fast) Permits() int {
	s := f.state.Load()
	if s < 0 {
		return 0
	}
	return int(s)
}
