package synchq

import (
	"context"
	"time"

	"synchq/internal/core"
)

// Batched operations. A k-item burst through the single-item API pays k
// full arrivals — k clock reads, k claims, k cache-line transfers. The
// batched entry points amortize that: the segmented core reserves a whole
// run of hand-off cells with one fetch-and-add, the sharded fabric
// dispatches a burst with one home draw and one summary sweep, and the
// transfer queue links a privately built chain of deposits with a single
// tail splice. On the linked dual structures, where every hand-off is one
// CAS-visible node, the batch entry points are a documented
// loop-with-single-arrival fallback — the same contract, without the
// amortization.
//
// The shared contract, on every core:
//
//   - An empty slice (or max <= 0) is a no-op.
//   - Items transfer in slice order. On fair (FIFO) unsharded cores the
//     order is preserved within the batch end to end; a sharded queue keeps
//     it only per shard ("per-shard FIFO, globally none").
//   - Status-reporting forms return the partial fill alongside the error:
//     items delivered before a timeout, cancellation, or close stay
//     delivered, and the count (or the filled buffer) says how many. After
//     a partial put of n items, items[n:] holds exactly the undelivered
//     items in order — that is the retry slice — and the contents of
//     items[:n] are unspecified (the segmented core compacts undelivered
//     values into the tail when a later run position outruns an earlier
//     abort).
//   - Conservation is exact: an item is either delivered to exactly one
//     consumer or still owned by the caller — a batch abort reclaims every
//     undelivered item and never strands a waiter.

// PutAll transfers every item to consumers, in order, waiting as long as
// necessary for each. It panics if the queue is closed (items handed off
// before the close stay delivered), mirroring Put.
func (q *SynchronousQueue[T]) PutAll(items []T) {
	if _, st := q.impl.PutBatch(items, time.Time{}, nil); st == core.Closed {
		panic(errClosedText)
	}
}

// PutAllContext transfers items in order until ctx is done. It returns the
// number delivered and nil when that is all of them; otherwise the partial
// fill and an error following the PutContext contract (ErrClosed,
// ErrTimeout, or the context's cancellation cause).
func (q *SynchronousQueue[T]) PutAllContext(ctx context.Context, items []T) (int, error) {
	deadline, _ := ctx.Deadline()
	n, st := q.impl.PutBatch(items, deadline, ctx.Done())
	if st == core.OK {
		return n, nil
	}
	return n, ctxError(ctx, st)
}

// TakeBatch receives up to max values: it waits as long as necessary for
// the first, then fills the rest from producers already committed, without
// waiting. It returns at least one value; it panics if the queue is closed
// before the first value arrives (values received when the close lands
// mid-fill are returned, not lost).
func (q *SynchronousQueue[T]) TakeBatch(max int) []T {
	buf, st := q.impl.TakeBatch(nil, max, time.Time{}, nil)
	if st == core.Closed && len(buf) == 0 {
		panic(errClosedText)
	}
	return buf
}

// TakeBatchContext receives up to max values, waiting for the first until
// ctx is done and filling the rest without waiting. On success the error is
// nil and the slice holds at least one value. ErrClosed may accompany a
// non-empty partial fill (the close landed mid-batch); timeout and
// cancellation errors always come empty-handed, since only the first value
// is ever waited for.
func (q *SynchronousQueue[T]) TakeBatchContext(ctx context.Context, max int) ([]T, error) {
	deadline, _ := ctx.Deadline()
	buf, st := q.impl.TakeBatch(nil, max, deadline, ctx.Done())
	if st == core.OK {
		return buf, nil
	}
	return buf, ctxError(ctx, st)
}

// DrainTo appends up to max immediately available values to buf without
// waiting — the bulk form of Poll: it claims producers already committed
// (and, when sharded, sweeps every flagged shard in one pass) and returns
// buf however many that yielded, zero included. A closed queue yields
// nothing; DrainTo never panics.
func (q *SynchronousQueue[T]) DrainTo(buf []T, max int) []T {
	buf, _ = q.impl.TakeBatch(buf, max, core.Expired, nil)
	return buf
}

// PutAll deposits items asynchronously as one burst: consumers already
// waiting are served in order from the front of the batch, and the
// remainder is buffered with a single tail splice — one linearization
// point for the whole burst instead of one per item. Like Put, it panics
// if the queue is closed (items handed to consumers before the close stay
// delivered, and nothing is buffered into a closed queue); use PutAllErr
// when racing a shutdown.
func (t *TransferQueue[T]) PutAll(items []T) {
	if _, st := t.q.PutAllAsync(items); st == core.Closed {
		panic(errClosedText)
	}
}

// PutAllErr is PutAll with the closed state reported as ErrClosed instead
// of a panic. It returns the number of items accepted (delivered or
// buffered) — on nil error that is len(items).
func (t *TransferQueue[T]) PutAllErr(items []T) (int, error) {
	n, st := t.q.PutAllAsync(items)
	if st == core.Closed {
		return n, ErrClosed
	}
	return n, nil
}

// TransferAllContext hands items to consumers synchronously, in order,
// under one shared context: every item waits for its own taker. It returns
// the count transferred and nil when that is all of items, otherwise the
// partial fill and an error following the TransferContext contract.
func (t *TransferQueue[T]) TransferAllContext(ctx context.Context, items []T) (int, error) {
	deadline, _ := ctx.Deadline()
	n, st := t.q.PutBatch(items, deadline, ctx.Done())
	if st == core.OK {
		return n, nil
	}
	return n, ctxError(ctx, st)
}

// TakeBatch receives up to max values: it waits as long as necessary for
// the first, then fills the rest from whatever is immediately available
// (buffered deposits and waiting synchronous producers, FIFO). Like Take,
// it keeps returning buffered deposits after Close and panics only once a
// closed queue's buffer is empty before the first value.
func (t *TransferQueue[T]) TakeBatch(max int) []T {
	buf, st := t.q.TakeBatch(nil, max, time.Time{}, nil)
	if st == core.Closed && len(buf) == 0 {
		panic(errClosedText)
	}
	return buf
}

// TakeBatchContext receives up to max values, waiting for the first until
// ctx is done. The error contract matches the synchronous queue's
// TakeBatchContext, with the transfer queue's closed-drain guarantee:
// buffered deposits keep arriving after Close, and ErrClosed (possibly
// alongside a partial fill) means the buffer truly ran dry.
func (t *TransferQueue[T]) TakeBatchContext(ctx context.Context, max int) ([]T, error) {
	deadline, _ := ctx.Deadline()
	buf, st := t.q.TakeBatch(nil, max, deadline, ctx.Done())
	if st == core.OK {
		return buf, nil
	}
	return buf, ctxError(ctx, st)
}

// DrainTo appends up to max immediately available values to buf without
// waiting — the bounded form of Drain. The error is nil when the queue
// simply had nothing more to give, and ErrClosed only once a closed
// queue's buffered deposits have all been drained: an accepted deposit is
// a promise the close keeps, so DrainTo never reports ErrClosed while one
// remains (the same contract as Take and Poll).
func (t *TransferQueue[T]) DrainTo(buf []T, max int) ([]T, error) {
	// A zero-patience batch: Timeout only means "nothing more to give".
	buf, st := t.q.TakeBatch(buf, max, core.Expired, nil)
	if st == core.Closed {
		return buf, ErrClosed
	}
	return buf, nil
}
