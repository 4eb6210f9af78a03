package synchq

import (
	"context"
	"time"

	"synchq/internal/core"
)

// Ticket is a pending reservation: the paper's first-class split of a
// partial operation into a request (TakeReserve/PutReserve, which
// linearizes the caller's place in line) and follow-ups (Listing 2 of the
// paper). An unsuccessful TryFollowup reads only the reservation's own
// node, so polling a ticket is contention-free — it never interferes with
// other threads' progress, unlike retrying a failed Offer/Poll, which
// contends on the structure's head every attempt.
//
// A Ticket belongs to the goroutine that created it and must not be used
// concurrently. Every ticket must be resolved exactly once: by a
// successful TryFollowup, by Await, or by Abort (collecting with
// TryFollowup if Abort reports the reservation was fulfilled first).
type Ticket[T any] struct {
	t core.Ticket[T]
}

// TryFollowup checks, without blocking, whether the reservation has been
// fulfilled. For a take ticket the received value is returned; for a put
// ticket ok simply reports that a consumer took the value. A successful
// follow-up spends the ticket.
func (t *Ticket[T]) TryFollowup() (T, bool) { return t.t.TryFollowup() }

// Await blocks until the reservation is fulfilled or ctx is done. On error
// the reservation has been aborted and the ticket is spent; errors follow
// the SynchronousQueue.PutContext contract (ErrClosed when the queue was
// closed under the reservation, ErrTimeout when the context's deadline
// expired, and the context's cancellation cause otherwise).
func (t *Ticket[T]) Await(ctx context.Context) (T, error) {
	deadline, _ := ctx.Deadline()
	v, st := t.t.Await(deadline, ctx.Done())
	if st == core.OK {
		return v, nil
	}
	var zero T
	return zero, ctxError(ctx, st)
}

// AwaitTimeout blocks until the reservation is fulfilled, waiting at most
// d. On false the reservation has been aborted and the ticket is spent.
func (t *Ticket[T]) AwaitTimeout(d time.Duration) (T, bool) {
	v, st := t.t.Await(time.Now().Add(d), nil)
	return v, st == core.OK
}

// Abort cancels the reservation. It returns false if a counterpart
// fulfilled the reservation first, in which case the outcome must still be
// collected with TryFollowup.
func (t *Ticket[T]) Abort() bool { return t.t.Abort() }

// TakeReserve registers a request for a value. If a producer is already
// waiting its value is returned immediately (ok true, nil ticket);
// otherwise a Ticket for the pending reservation is returned (ok false).
func (q *SynchronousQueue[T]) TakeReserve() (T, *Ticket[T], bool) {
	v, tk, ok := q.impl.ReserveTake()
	if tk == nil {
		return v, nil, ok
	}
	return v, &Ticket[T]{t: tk}, ok
}

// PutReserve offers v to a future consumer. If a consumer is already
// waiting, v is delivered immediately (ok true, nil ticket); otherwise a
// Ticket for the pending offer is returned (ok false).
func (q *SynchronousQueue[T]) PutReserve(v T) (*Ticket[T], bool) {
	tk, ok := q.impl.ReservePut(v)
	if tk == nil {
		return nil, ok
	}
	return &Ticket[T]{t: tk}, ok
}
