package segq

import (
	"time"

	"synchq/internal/core"
	"synchq/internal/fault"
	"synchq/internal/metrics"
)

// Reservation tickets: the request half of a split transfer, mirroring
// internal/core's QueueTicket/StackTicket so the segmented core satisfies
// the same composition surfaces (the shard fabric's pinned reservations,
// the public SynchronousQueue reservation API).
//
// A reservation is just an installed cell whose owner walked away instead
// of waiting: the ticket remembers the cell, and TryFollowup/Await/Abort
// play the same state-machine arcs awaitCell plays inline.

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
	t0 := q.m.Start()
	var zero T
	if q.closed.Load() {
		return zero, nil, false, core.Closed
	}
	ctr, _, hint := q.side(isPut)
	for {
		i := ctr.Add(1) - 1
		s := q.findSeg(hint, i>>segShift)
		if s.id != i>>segShift {
			q.m.Inc(metrics.CleanSweeps)
			q.skipTo(ctr, s.id<<segShift)
			continue
		}
		c := &s.cells[i&segMask]
	resolve:
		for {
			switch st := c.state.Load(); st {
			case cEmpty:
				// Value first; never touch the shared parker — it was
				// armed at segment birth, and a reset by an install-CAS
				// loser would wipe a parked counterpart's state (see
				// resolveArrival).
				if isPut {
					c.v = v
				}
				installed := cWaiter
				if isPut {
					installed = cItem
				}
				q.f.Preempt(fault.SegCloseRacePause)
				if q.f.FailCAS(fault.SegInstallCAS) || !c.state.CompareAndSwap(cEmpty, installed) {
					q.m.Inc(metrics.CASFailEnqueue)
					continue
				}
				if q.closed.Load() {
					// Same install-vs-sweep window as transfer: self-
					// evict so the reservation is never stranded. If a
					// fulfiller got here first the CAS fails and the
					// ticket completes normally; otherwise Await
					// reports Closed and Abort succeeds.
					if c.state.CompareAndSwap(installed, cClosed) {
						q.resolveCell(s)
						if isPut {
							c.v = zero
						}
					}
				}
				return zero, &Ticket[T]{q: q, s: s, c: c, i: i, installed: installed, isPut: isPut, t0: t0}, false, core.OK

			case cItem:
				if isPut {
					panic("segq: producer cell claimed twice")
				}
				if q.f.FailCAS(fault.SegResolveCAS) || !c.state.CompareAndSwap(cItem, cDone) {
					q.m.Inc(metrics.CASFailFulfill)
					continue
				}
				q.resolveCell(s)
				val := c.v
				c.v = zero
				q.m.Inc(metrics.Fulfillments)
				q.f.Preempt(fault.SegResolvePause)
				c.wp.Unpark()
				q.m.Since(metrics.HandoffNs, t0)
				return val, nil, true, core.OK

			case cWaiter:
				if !isPut {
					panic("segq: consumer cell claimed twice")
				}
				c.v = v
				if q.f.FailCAS(fault.SegResolveCAS) || !c.state.CompareAndSwap(cWaiter, cDone) {
					q.m.Inc(metrics.CASFailFulfill)
					if st := c.state.Load(); st == cBroken || st == cClosed {
						c.v = zero
					}
					continue
				}
				q.resolveCell(s)
				q.m.Inc(metrics.Fulfillments)
				q.f.Preempt(fault.SegResolvePause)
				c.wp.Unpark()
				q.m.Since(metrics.HandoffNs, t0)
				return zero, nil, true, core.OK

			case cBroken:
				break resolve // fresh index

			case cDone:
				panic("segq: cell resolved twice")

			default: // cClosed
				return zero, nil, false, core.Closed
			}
		}
	}
}

// TryFollowup checks, without blocking, whether the reservation has been
// fulfilled. A closed or aborted reservation never reports true; collect
// the status with Await, which returns immediately.
func (t *Ticket[T]) TryFollowup() (T, bool) {
	var zero T
	if t.done {
		panic("segq: follow-up on a spent ticket")
	}
	if t.c.state.Load() != cDone {
		return zero, false
	}
	t.done = true
	t.q.m.Since(metrics.HandoffNs, t.t0)
	if t.isPut {
		return zero, true
	}
	v := t.c.v
	t.c.v = zero
	return v, true
}

// Await blocks until fulfillment, the deadline (zero: never), or cancel
// (nil: never). The ticket is spent afterward whatever the outcome.
func (t *Ticket[T]) Await(deadline time.Time, cancel <-chan struct{}) (T, Status) {
	if t.done {
		panic("segq: await on a spent ticket")
	}
	t.done = true
	_, other, _ := t.q.side(t.isPut)
	return t.q.awaitCell(t.s, t.c, t.i, t.installed, t.isPut, deadline, cancel, t.t0, other)
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
	if t.q.withdraw(t.s, t.c, t.installed, t.isPut) || t.c.state.Load() == cClosed {
		t.done = true
		return true
	}
	return false
}

// withdraw breaks a cell this operation installed and nobody resolved yet,
// reclaiming an undelivered value — the arc a reservation's Abort and a
// declined commit step share. It reports false when a resolver or Close
// got to the cell first.
func (q *Queue[T]) withdraw(s *segment[T], c *cell[T], installed uint32, isPut bool) bool {
	if !c.state.CompareAndSwap(installed, cBroken) {
		return false
	}
	q.resolveCell(s)
	if isPut {
		var zero T
		c.v = zero
	}
	q.m.Inc(metrics.Cancellations)
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
