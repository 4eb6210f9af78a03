// Package sem implements counting semaphores with scheduler-based blocking.
//
// Semaphores are the substrate of Hanson's synchronous queue (Listing 1 of
// the paper). The paper's footnote defines them precisely: each semaphore
// contains a counter and a list of waiting threads; acquire decrements the
// counter and waits for it to be nonnegative; release increments it and
// unblocks a waiting thread if the result is nonpositive. In effect a
// semaphore is a non-synchronous concurrent queue transferring null.
//
// Two variants are provided. Semaphore wakes waiters in strict FIFO order
// (like a Java fair Semaphore); Fast (fast.go) acquires and releases an
// uncontended permit with one atomic add, the dl.util.concurrent
// streamlining the paper's §3.1 describes.
//
// A blocked acquirer waits on a parker lent by its semaphore's park.Table
// and returns it once its wait is over, as a Java thread brings its own
// permit to LockSupport.park: the steady blocking path allocates only its
// wait-list element. Every Unpark a semaphore sends is consumed by the
// wait it was sent to before that wait returns its parker, so no stray
// permit reaches the parker's next borrower.
package sem

import (
	"container/list"
	"sync"

	"synchq/internal/park"
)

// Semaphore is a FIFO-fair counting semaphore. The zero value is a semaphore
// with zero permits; use New to start with a different count. A Semaphore
// must not be copied after first use.
type Semaphore struct {
	mu      sync.Mutex
	permits int
	waiters list.List // of *park.Parker
	parkers park.Table
}

// New returns a semaphore initialized with the given number of permits.
// Negative initial counts are allowed (the paper's Hanson queue does not
// need them, but classic semaphore semantics permit starting in debt).
func New(permits int) *Semaphore {
	return &Semaphore{permits: permits}
}

// Acquire obtains one permit, blocking until one is available. Waiters are
// served in arrival order.
func (s *Semaphore) Acquire() {
	s.mu.Lock()
	if s.permits > 0 && s.waiters.Len() == 0 {
		s.permits--
		s.mu.Unlock()
		return
	}
	idx, p := s.parkers.Lend()
	s.waiters.PushBack(p)
	s.mu.Unlock()
	p.Park()
	s.parkers.Return(idx)
}

// TryAcquire obtains one permit only if one is immediately available and no
// earlier waiter is queued. It reports whether the permit was obtained.
func (s *Semaphore) TryAcquire() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.permits > 0 && s.waiters.Len() == 0 {
		s.permits--
		return true
	}
	return false
}

// Release returns one permit, unblocking the longest-waiting acquirer if any.
func (s *Semaphore) Release() {
	s.mu.Lock()
	if e := s.waiters.Front(); e != nil {
		p := s.waiters.Remove(e).(*park.Parker)
		s.mu.Unlock()
		p.Unpark()
		return
	}
	s.permits++
	s.mu.Unlock()
}

// Permits returns the number of currently available permits. It is intended
// for tests and monitoring; the value may be stale by the time it is read.
func (s *Semaphore) Permits() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.permits
}

// Waiters returns the number of queued acquirers. Intended for tests.
func (s *Semaphore) Waiters() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.waiters.Len()
}
