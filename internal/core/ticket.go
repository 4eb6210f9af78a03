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
//	reservation r = Q.dequeue_reserve();     ->  v, tk, ok := q.TakeReserve()
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
// for a value (from TakeReserve) or an offered value awaiting a consumer
// (from PutReserve).
type QueueTicket[T any] struct {
	q    *DualQueue[T]
	node *qnode[T]
	pred *qnode[T]
	e    *qitem[T] // the node's initial item state
	t0   int64     // reservation arrival, for the latency histograms
	done bool      // a follow-up already consumed the outcome
}

// TakeReserve registers a request for a value (the request operation,
// which linearizes the caller's place in line). If a producer was already
// waiting, its value is returned at once with ok true and a nil ticket;
// otherwise ok is false and the ticket tracks the pending reservation. It
// panics if the queue is closed, like the demand operations.
func (q *DualQueue[T]) TakeReserve() (T, *QueueTicket[T], bool) {
	t0 := q.m.Start()
	imm, s, pred, st := q.engage(nil, time.Time{}, false)
	tk := q.arrive(t0, nil, s, pred, st, false)
	if st == Closed {
		panic(errClosedDemand)
	}
	if tk.node == nil {
		// Consume the delivered value and recycle the fulfiller's box.
		v := imm.v
		q.putBox(imm)
		return v, nil, true
	}
	var zero T
	t := tk // only a pending reservation pays for a heap ticket
	return zero, &t, false
}

// PutReserve offers v to a future consumer (the request operation). If a
// consumer was already waiting, v is delivered at once and ok is true with
// a nil ticket; otherwise ok is false and the ticket tracks the pending
// offer. It panics if the queue is closed.
func (q *DualQueue[T]) PutReserve(v T) (*QueueTicket[T], bool) {
	t0 := q.m.Start()
	e := q.getBox(v)
	_, s, pred, st := q.engage(e, time.Time{}, false)
	tk := q.arrive(t0, e, s, pred, st, false)
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
func (t *QueueTicket[T]) waiter() qwait[T] { return qwait[T]{q: t.q, s: t.node, e: t.e} }

// collect completes a fulfilled reservation whose item word reads x: help
// dequeue the node, then — for a take — consume and recycle the producer's
// box (a put's box belongs to its taker).
func (t *QueueTicket[T]) collect(x *qitem[T]) T {
	t.q.finish(t.node, t.pred, x)
	var v T
	if x != nil {
		v = x.v
		t.q.putBox(x)
	}
	return v
}

// drop disposes of an abandoned reservation: unlink its dead node and
// reclaim the datum, which never transferred.
func (t *QueueTicket[T]) drop() {
	t.q.clean(t.pred, t.node)
	t.q.putBox(t.e)
}

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
	return t.collect(t.node.item.Load()), true
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
	w := t.waiter()
	// Only the node next in line for fulfillment spins; deeper nodes park
	// immediately (§Pragmatics). A node next in line stays so until it is
	// resolved, so this is sampled once rather than re-read from the
	// contended head on every spin.
	w.front = t.q.head.Load().next.Load() == t.node
	if o, why := park.Await(w, park.Policy{Cal: t.q.cal, M: t.q.m}, deadline, cancel, t.t0); o != park.Fulfilled {
		t.drop()
		var zero T
		return zero, StatusOf(o, why)
	}
	return t.collect(t.node.item.Load()), OK
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
		t.drop()
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

// TakeReserve registers a request for a value on the stack. If a producer
// was already waiting (or a fulfillment completed during the attempt), the
// value is returned at once with ok true and a nil ticket. It panics if
// the stack is closed.
func (q *DualStack[T]) TakeReserve() (T, *StackTicket[T], bool) {
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

// PutReserve offers v on the stack. If a consumer was already waiting, v
// is delivered at once and ok is true with a nil ticket. It panics if the
// stack is closed.
func (q *DualStack[T]) PutReserve(v T) (*StackTicket[T], bool) {
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
		v = t.node.match.Load().item.Load().v
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
	if o, why := park.Await(t.waiter(), park.Policy{Cal: t.q.cal, M: t.q.m}, deadline, cancel, t.t0); o != park.Fulfilled {
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

// ReserveTake is TakeReserve with the ticket as the shared Ticket
// interface (nil ticket when ok is true).
func (q *DualQueue[T]) ReserveTake() (T, Ticket[T], bool) {
	v, tk, ok := q.TakeReserve()
	if tk == nil {
		return v, nil, ok
	}
	return v, tk, ok
}

// ReservePut is PutReserve with the ticket as the shared Ticket interface.
func (q *DualQueue[T]) ReservePut(v T) (Ticket[T], bool) {
	tk, ok := q.PutReserve(v)
	if tk == nil {
		return nil, ok
	}
	return tk, ok
}

// ReserveTake is TakeReserve with the ticket as the shared Ticket
// interface (nil ticket when ok is true).
func (q *DualStack[T]) ReserveTake() (T, Ticket[T], bool) {
	v, tk, ok := q.TakeReserve()
	if tk == nil {
		return v, nil, ok
	}
	return v, tk, ok
}

// ReservePut is PutReserve with the ticket as the shared Ticket interface.
func (q *DualStack[T]) ReservePut(v T) (Ticket[T], bool) {
	tk, ok := q.PutReserve(v)
	if tk == nil {
		return nil, ok
	}
	return tk, ok
}
