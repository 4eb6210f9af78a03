package segq

import (
	"time"

	"synchq/internal/core"
	"synchq/internal/metrics"
	"synchq/internal/park"
)

// Reservation tickets: the request half of a split transfer, mirroring
// internal/core's QueueTicket/StackTicket so the segmented core satisfies
// the same composition surfaces (the shard fabric's pinned reservations,
// the public SynchronousQueue reservation API).
//
// A reservation is just an installed cell whose owner walked away instead
// of waiting: arrive hands the ticket out, and a transfer that has to wait
// awaits the very same ticket on the spot.

// Ticket tracks one pending reservation on a segmented queue.
type Ticket[T any] struct {
	q         *Queue[T]
	s         *segment[T]
	c         *cell[T]
	i         uint64
	installed uint32
	isPut     bool
	t0        int64
	done      bool
}

// reserve claims an index and installs this side in its cell without
// waiting. Unlike transfer it never poisons: a reservation's patience is
// decided later, by Await or Abort.
func (q *Queue[T]) reserve(isPut bool, v T) (T, *Ticket[T], bool, Status) {
	v, tk, st := q.arrive(isPut, v, time.Time{})
	if st != core.OK {
		return v, nil, false, st
	}
	if tk.c == nil {
		return v, nil, true, core.OK
	}
	t := tk // only a pending reservation pays for a heap ticket
	return v, &t, false, core.OK
}

// waiter is the reservation's cell as the shared wait loop sees it.
func (t *Ticket[T]) waiter() cellWait[T] {
	return cellWait[T]{q: t.q, s: t.s, c: t.c, installed: t.installed}
}

// collect takes the delivered value out of a fulfilled take reservation's
// cell; a put reservation has nothing to collect.
func (t *Ticket[T]) collect() T {
	var v T
	if !t.isPut {
		v = t.c.v
		t.c.v = *new(T)
	}
	return v
}

// TryFollowup checks, without blocking, whether the reservation has been
// fulfilled. A closed or aborted reservation never reports true; collect
// the status with Await, which returns immediately.
func (t *Ticket[T]) TryFollowup() (T, bool) {
	if t.done {
		panic("segq: follow-up on a spent ticket")
	}
	if t.c.state.Load() != cDone {
		return *new(T), false
	}
	t.done = true
	t.q.m.Since(metrics.HandoffNs, t.t0)
	return t.collect(), true
}

// Await blocks until fulfillment, the deadline (zero: never), or cancel
// (nil: never). The ticket is spent afterward whatever the outcome.
func (t *Ticket[T]) Await(deadline time.Time, cancel <-chan struct{}) (T, Status) {
	if t.done {
		panic("segq: await on a spent ticket")
	}
	t.done = true
	w := t.waiter()
	// Spins are granted only once the counterpart has committed an index
	// past ours — it is on its way to this very cell; deeper waiters park
	// immediately, mirroring the paper's "spin only at the head" rule. The
	// counter only grows, so this is sampled once, when the wait begins.
	_, other, _ := t.q.side(t.isPut)
	w.committed = other.Load() > t.i
	o, why := park.Await(w, park.Policy{Cal: t.q.cal, M: t.q.m, Grace: true}, deadline, cancel, t.t0)
	if p := t.c.w.Load(); p != nil {
		t.q.giveBack(p) // the wait is over; a late Unpark is a stray permit
	}
	if o == park.Fulfilled {
		return t.collect(), core.OK
	}
	var zero T
	if t.isPut {
		t.c.v = zero // the value was never delivered: reclaim it
	}
	return zero, core.StatusOf(o, why)
}

// Abort cancels the reservation; false means it was fulfilled first and
// TryFollowup must collect the outcome. A reservation evicted by Close
// aborts successfully (there is nothing to collect).
func (t *Ticket[T]) Abort() bool {
	if t.done {
		panic("segq: abort on a spent ticket")
	}
	// Only the owner breaks its own cell, so a lost withdrawal means the
	// cell is DONE (fulfilled first) or CLOSED (evicted: nothing to collect).
	if t.withdraw() || t.c.state.Load() == cClosed {
		t.done = true
		return true
	}
	return false
}

// withdraw breaks the reservation's cell if nobody resolved it yet,
// reclaiming an undelivered value — the arc Abort and a declined commit
// step share. It reports false when a resolver or Close got to the cell
// first.
func (t *Ticket[T]) withdraw() bool {
	if !t.waiter().Abort() {
		return false
	}
	if t.isPut {
		t.c.v = *new(T)
	}
	t.q.m.Inc(metrics.Cancellations)
	return true
}

// ReserveTake registers a request for a value; if a producer was already
// waiting its value is returned at once with ok true and a nil ticket. It
// panics if the queue is closed, like the demand operations.
func (q *Queue[T]) ReserveTake() (T, core.Ticket[T], bool) {
	v, tk, ok, st := q.reserve(false, *new(T))
	if st == core.Closed {
		panic(errClosedDemand)
	}
	if tk == nil {
		return v, nil, ok
	}
	return v, tk, ok
}

// ReservePut offers v to a future consumer; if a consumer was already
// waiting, v is delivered at once with ok true and a nil ticket. It
// panics if the queue is closed.
func (q *Queue[T]) ReservePut(v T) (core.Ticket[T], bool) {
	_, tk, ok, st := q.reserve(true, v)
	if st == core.Closed {
		panic(errClosedDemand)
	}
	if tk == nil {
		return nil, ok
	}
	return tk, ok
}
