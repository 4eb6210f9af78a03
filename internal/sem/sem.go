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
// (like a Java fair Semaphore); BargingSemaphore allows a releasing thread's
// permit to be seized by a newly arriving acquirer (like Java's default
// nonfair Semaphore), which trades fairness for throughput.
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
	"time"

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

// AcquireTimeout obtains one permit, waiting at most d. It reports whether
// the permit was obtained. On timeout the waiter removes itself from the
// queue; a permit handed to it in the race window is returned to the pool.
func (s *Semaphore) AcquireTimeout(d time.Duration) bool {
	s.mu.Lock()
	if s.permits > 0 && s.waiters.Len() == 0 {
		s.permits--
		s.mu.Unlock()
		return true
	}
	if d <= 0 {
		s.mu.Unlock()
		return false
	}
	idx, p := s.parkers.Lend()
	defer s.parkers.Return(idx)
	elem := s.waiters.PushBack(p)
	s.mu.Unlock()

	if p.ParkTimeout(d) {
		return true
	}
	// Timed out. Remove ourselves; if Release already granted us the
	// permit (removed our element and unparked), consume that late permit
	// and hand it onward instead of losing it.
	s.mu.Lock()
	for e := s.waiters.Front(); e != nil; e = e.Next() {
		if e == elem {
			s.waiters.Remove(e)
			s.mu.Unlock()
			return false
		}
	}
	// Already dequeued by Release: the unpark is in flight (or landed
	// between our timeout and taking the lock). Absorb it and re-release.
	s.mu.Unlock()
	p.Park() // cannot block long: permit is committed to us
	s.Release()
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

// BargingSemaphore is an unfair counting semaphore: a permit released while
// acquirers race may be taken by a thread that never queued. This matches
// the default (nonfair) mode of Java's Semaphore and is the variant Hanson's
// algorithm was measured with.
type BargingSemaphore struct {
	mu      sync.Mutex
	permits int
	waiters list.List // of *bsWaiter
	parkers park.Table
}

type bsWaiter struct {
	p     *park.Parker
	taken bool // set under mu when a permit is assigned
}

// NewBarging returns an unfair semaphore with the given permits.
func NewBarging(permits int) *BargingSemaphore {
	return &BargingSemaphore{permits: permits}
}

// Acquire obtains one permit, blocking until available. Arriving threads may
// barge ahead of queued waiters when a permit is free.
func (s *BargingSemaphore) Acquire() {
	s.mu.Lock()
	if s.permits > 0 {
		s.permits--
		s.mu.Unlock()
		return
	}
	idx, p := s.parkers.Lend()
	w := &bsWaiter{p: p}
	elem := s.waiters.PushBack(w)
	s.mu.Unlock()
	for {
		w.p.Park()
		s.mu.Lock()
		if w.taken {
			s.waiters.Remove(elem)
			s.mu.Unlock()
			s.parkers.Return(idx)
			return
		}
		// Spurious wake relative to permit assignment cannot happen
		// with this parker, but retry defensively.
		s.mu.Unlock()
	}
}

// TryAcquire obtains a permit only if immediately available.
func (s *BargingSemaphore) TryAcquire() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.permits > 0 {
		s.permits--
		return true
	}
	return false
}

// Release returns one permit. If waiters are queued, the front waiter is
// granted the permit directly (it cannot be barged once granted).
func (s *BargingSemaphore) Release() {
	s.mu.Lock()
	for e := s.waiters.Front(); e != nil; e = e.Next() {
		w := e.Value.(*bsWaiter)
		if !w.taken {
			w.taken = true
			s.mu.Unlock()
			w.p.Unpark()
			return
		}
	}
	s.permits++
	s.mu.Unlock()
}

// Permits returns the number of available permits (tests/monitoring).
func (s *BargingSemaphore) Permits() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.permits
}
