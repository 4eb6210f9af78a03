package core

import (
	"time"

	"synchq/internal/metrics"
	"synchq/internal/park"
)

// This file exposes the paper's §2.2 dual-data-structure interface as
// first-class operations: partial methods split into a request that
// registers a reservation and follow-ups that check it (Listing 2).
//
//	reservation r = Q.dequeue_reserve();     ->  v, tk, ok := q.ReserveTake()
//	d = Q.dequeue_followup(r);               ->  v, ok := tk.TryFollowup()
//	Q.dequeue_abort(r);                      ->  tk.Abort()
//
// The decisive property is contention freedom: an unsuccessful
// TryFollowup reads only the reservation's own node (a location no other
// thread writes until fulfillment), so polling a reservation performs a
// constant number of remote memory accesses across all unsuccessful
// follow-ups — unlike retrying a totalized operation, which hammers the
// structure's head on every attempt.
//
// A Ticket is owned by the goroutine that created it and must not be used
// concurrently; this matches the paper's model, in which the requester
// itself performs the follow-ups.

// QueueTicket is a pending reservation on a DualQueue — either a request
// for a value (from ReserveTake) or an offered value awaiting a consumer
// (from ReservePut).
type QueueTicket[T any] struct {
	q    *DualQueue[T]
	node *qnode
	pred *qnode
	e    uint32 // the node's initial item word
	t0   int64  // reservation arrival, for the latency histograms
	done bool   // a follow-up already consumed the outcome
}

// ReserveTake registers a request for a value (the request operation,
// which linearizes the caller's place in line). If a producer was already
// waiting, its value is returned at once with ok true and a nil ticket;
// otherwise ok is false and the ticket tracks the pending reservation. It
// panics if the queue is closed, like the demand operations.
func (q *DualQueue[T]) ReserveTake() (T, Ticket[T], bool) {
	t0 := q.m.Start()
	imm, s, pred, st := q.engage(noItem, &never, false)
	if s == nil {
		if pred != nil {
			q.parkers.Wake(pred.parker())
		}
		q.arrived(t0, noItem, st, false)
		if st == Closed {
			panic(errClosedDemand)
		}
		// Consume the delivered value out of the producer's box.
		return q.unbox(imm), nil, true
	}
	var zero T
	return zero, &QueueTicket[T]{q: q, node: s, pred: pred, e: noItem, t0: t0}, false
}

// ReservePut offers v to a future consumer (the request operation). If a
// consumer was already waiting, v is delivered at once and ok is true with
// a nil ticket; otherwise ok is false and the ticket tracks the pending
// offer. It panics if the queue is closed.
func (q *DualQueue[T]) ReservePut(v T) (Ticket[T], bool) {
	t0 := q.m.Start()
	e := q.getBox(v)
	_, s, pred, st := q.engage(e, &never, false)
	if s == nil {
		if pred != nil {
			q.parkers.Wake(pred.parker())
		}
		q.arrived(t0, e, st, false)
		if st == Closed {
			panic(errClosedDemand)
		}
		return nil, true
	}
	return &QueueTicket[T]{q: q, node: s, pred: pred, e: e, t0: t0}, false
}

// waiter is the reservation's node as the shared wait loop sees it.
func (t *QueueTicket[T]) waiter() qwait { return qwait{s: t.node, e: t.e} }

// TryFollowup checks, without blocking, whether the reservation has been
// fulfilled. For a take ticket the fulfilled value is returned; for a put
// ticket the returned value is the zero value and ok simply reports
// delivery. An unsuccessful TryFollowup touches no shared state beyond
// the ticket's own node. After a successful TryFollowup the ticket is
// spent.
func (t *QueueTicket[T]) TryFollowup() (T, bool) {
	if t.done {
		panic("core: follow-up on a spent ticket")
	}
	if t.waiter().Settled() != park.Fulfilled {
		// Still pending, aborted, or evicted by Close. A closed
		// reservation never reports true; collect the Closed status
		// with Await, which returns immediately.
		var zero T
		return zero, false
	}
	t.done = true
	t.q.m.Since(metrics.HandoffNs, t.t0)
	return t.q.collect(t.node, t.pred, t.node.item.Load()), true
}

// Await blocks until the reservation is fulfilled, the deadline passes
// (zero deadline: never), or cancel fires (nil: never) — the "demand"
// completion built from spin-then-park waiting. On Timeout/Canceled the
// reservation has been aborted and the ticket is spent.
func (t *QueueTicket[T]) Await(deadline time.Time, cancel <-chan struct{}) (T, Status) {
	if t.done {
		panic("core: await on a spent ticket")
	}
	t.done = true
	return t.q.await(t.node, t.pred, t.e, t.t0, &deadline, cancel)
}

// Abort attempts to cancel the reservation. It returns true if the
// reservation was canceled (the ticket is spent) and false if a
// counterpart fulfilled it first — in which case the outcome must still be
// collected with TryFollowup, exactly as in the paper's Listing 2, whose
// abort path re-runs the follow-up. A reservation evicted by Close also
// aborts successfully: no value was transferred.
func (t *QueueTicket[T]) Abort() bool {
	if t.done {
		panic("core: abort of a spent ticket")
	}
	if w := t.waiter(); w.Abort() || w.Settled() == park.Evicted {
		t.done = true
		t.q.drop(t.node, t.pred, t.e)
		return true
	}
	return false
}

// StackTicket is a pending reservation on a DualStack.
type StackTicket[T any] struct {
	q    *DualStack[T]
	node *snode[T]
	t0   int64 // reservation arrival, for the latency histograms
	done bool
}

// ReserveTake registers a request for a value on the stack. If a producer
// was already waiting (or a fulfillment completed during the attempt), the
// value is returned at once with ok true and a nil ticket. It panics if
// the stack is closed.
func (q *DualStack[T]) ReserveTake() (T, Ticket[T], bool) {
	imm, tk, st := q.arrive(*new(T), modeRequest, time.Time{})
	if st == Closed {
		panic(errClosedDemand)
	}
	if tk.node == nil {
		return imm, nil, true
	}
	t := tk // only a pending reservation pays for a heap ticket
	return imm, &t, false
}

// ReservePut offers v on the stack. If a consumer was already waiting, v
// is delivered at once and ok is true with a nil ticket. It panics if the
// stack is closed.
func (q *DualStack[T]) ReservePut(v T) (Ticket[T], bool) {
	_, tk, st := q.arrive(v, modeData, time.Time{})
	if st == Closed {
		panic(errClosedDemand)
	}
	if tk.node == nil {
		return nil, true
	}
	t := tk
	return &t, false
}

// waiter is the reservation's node as the shared wait loop sees it.
func (t *StackTicket[T]) waiter() swait[T] { return swait[T]{q: t.q, s: t.node} }

// collect completes a matched reservation: help the fulfiller pop the
// pair, then — for a request — read the fulfiller's datum.
func (t *StackTicket[T]) collect() T {
	t.q.finishMatch(t.node)
	var v T
	if t.node.mode == modeRequest {
		v = t.node.match.Load().v
	}
	return v
}

// TryFollowup checks, without blocking, whether the reservation has been
// annihilated with a counterpart. Unsuccessful follow-ups read only the
// ticket's own node's match word.
func (t *StackTicket[T]) TryFollowup() (T, bool) {
	if t.done {
		panic("core: follow-up on a spent ticket")
	}
	if t.waiter().Settled() != park.Fulfilled {
		// Pending, aborted, or evicted by Close; a closed reservation
		// reports its Closed status through Await.
		var zero T
		return zero, false
	}
	t.done = true
	t.q.m.Since(metrics.HandoffNs, t.t0)
	return t.collect(), true
}

// Await blocks until the reservation is matched, the deadline passes, or
// cancel fires. On Timeout/Canceled the reservation has been aborted and
// the ticket is spent.
func (t *StackTicket[T]) Await(deadline time.Time, cancel <-chan struct{}) (T, Status) {
	if t.done {
		panic("core: await on a spent ticket")
	}
	t.done = true
	if o, why := park.Await(t.waiter(), &t.q.pol, &deadline, cancel, t.t0); o != park.Fulfilled {
		t.q.clean(t.node)
		var zero T
		return zero, StatusOf(o, why)
	}
	return t.collect(), OK
}

// Abort attempts to cancel the reservation; false means a counterpart
// matched it first and TryFollowup must be used to collect the outcome. A
// reservation evicted by Close also aborts successfully: no value was
// transferred.
func (t *StackTicket[T]) Abort() bool {
	if t.done {
		panic("core: abort of a spent ticket")
	}
	if w := t.waiter(); w.Abort() || w.Settled() == park.Evicted {
		t.done = true
		t.q.clean(t.node)
		return true
	}
	return false
}

// Ticket is the interface satisfied by both structures' reservation
// tickets, so callers can be written against either pairing discipline.
type Ticket[T any] interface {
	// TryFollowup checks for fulfillment without blocking; an
	// unsuccessful call is contention-free.
	TryFollowup() (T, bool)
	// Await blocks until fulfillment, the deadline (zero: never), or
	// cancel (nil: never).
	Await(deadline time.Time, cancel <-chan struct{}) (T, Status)
	// Abort cancels the reservation; false means it was fulfilled first
	// and TryFollowup must collect the outcome.
	Abort() bool
}
