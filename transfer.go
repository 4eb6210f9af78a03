package synchq

import (
	"context"
	"time"

	"synchq/internal/core"
)

// TransferQueue extends the fair synchronous queue so that producers may
// choose, per call, whether to hand off synchronously (Transfer: wait for a
// consumer to take the element) or asynchronously (Put: deposit the element
// and return immediately). Consumers always wait for data. This is the
// paper's §5 TransferQueue extension, the ancestor of
// java.util.concurrent.LinkedTransferQueue, useful for messaging frameworks
// that mix synchronous and asynchronous messages.
//
// Construct one with NewTransferQueue; a TransferQueue must not be copied
// after first use.
type TransferQueue[T any] struct {
	// q is the fair dual queue itself: the transfer queue adds only the
	// asynchronous deposit (PutAsync, PutAllAsync) to its contract.
	q    *core.DualQueue[T]
	inst *Metrics
}

// NewTransferQueue returns an empty transfer queue with default options.
func NewTransferQueue[T any](opts ...Option) *TransferQueue[T] {
	c := buildConfig(opts)
	return &TransferQueue[T]{q: core.NewDualQueue[T](c.wait), inst: c.inst}
}

// Metrics returns the instrumentation set attached with the Instrument
// option, or nil for an uninstrumented queue.
func (t *TransferQueue[T]) Metrics() *Metrics { return t.inst }

// Put deposits v asynchronously: a waiting consumer receives it directly,
// otherwise it is buffered in FIFO order. Put never blocks. Like a send on
// a closed channel, Put panics if the queue is closed; use PutErr when the
// queue may be shut down concurrently.
func (t *TransferQueue[T]) Put(v T) {
	if t.q.PutAsync(v) == core.Closed {
		panic(errClosedText)
	}
}

// PutErr is Put with the closed state reported as ErrClosed instead of a
// panic, for producers racing a shutdown.
func (t *TransferQueue[T]) PutErr(v T) error {
	if t.q.PutAsync(v) == core.Closed {
		return ErrClosed
	}
	return nil
}

// Transfer hands v to a consumer synchronously, waiting as long as
// necessary for one to take it. Buffered elements deposited earlier with
// Put are taken first (FIFO).
func (t *TransferQueue[T]) Transfer(v T) { put(t.q, v) }

// TryTransfer hands v to a consumer only if one is already waiting.
func (t *TransferQueue[T]) TryTransfer(v T) bool { return offer(t.q, v, core.Expired) }

// TransferTimeout hands v to a consumer, waiting up to d for one.
func (t *TransferQueue[T]) TransferTimeout(v T, d time.Duration) bool {
	return offer(t.q, v, core.DeadlineFor(d))
}

// TransferContext hands v to a consumer, abandoning the attempt when ctx is
// done. It returns nil on success, ErrClosed if the queue is closed,
// ErrTimeout when the context's own deadline expired, and otherwise the
// context's cancellation cause (context.Canceled for a plain cancel).
func (t *TransferQueue[T]) TransferContext(ctx context.Context, v T) error {
	deadline, _ := ctx.Deadline()
	st := t.q.PutDeadline(v, deadline, ctx.Done())
	if st == core.OK {
		return nil
	}
	return ctxError(ctx, st)
}

// Take receives a value, waiting as long as necessary for one.
func (t *TransferQueue[T]) Take() T { return take(t.q) }

// TakeContext receives a value, abandoning the attempt when ctx is done.
// Errors follow the TransferContext contract: ErrClosed on a closed queue,
// ErrTimeout on deadline expiry, the cancellation cause otherwise. Like
// Take and Poll, TakeContext still returns elements deposited with Put
// before Close — an accepted deposit is a promise the close keeps — and
// reports ErrClosed only once the buffer is empty.
func (t *TransferQueue[T]) TakeContext(ctx context.Context) (T, error) {
	var zero T
	deadline, _ := ctx.Deadline()
	v, st := t.q.TakeDeadline(deadline, ctx.Done())
	if st == core.OK {
		return v, nil
	}
	return zero, ctxError(ctx, st)
}

// Poll receives a value only if one is immediately available (a waiting
// synchronous producer or a buffered asynchronous element).
func (t *TransferQueue[T]) Poll() (T, bool) { return poll(t.q, core.Expired) }

// PollTimeout receives a value, waiting up to d for one.
func (t *TransferQueue[T]) PollTimeout(d time.Duration) (T, bool) {
	return poll(t.q, core.DeadlineFor(d))
}

// Offer is TryTransfer under the TimedQueue interface: with no buffering
// requested, an offer succeeds only if a consumer is waiting.
func (t *TransferQueue[T]) Offer(v T) bool { return offer(t.q, v, core.Expired) }

// OfferTimeout is TransferTimeout under the TimedQueue interface.
func (t *TransferQueue[T]) OfferTimeout(v T, d time.Duration) bool {
	return offer(t.q, v, core.DeadlineFor(d))
}

// Drain removes and returns every immediately available element (buffered
// asynchronous deposits and waiting synchronous producers) in FIFO order.
// It is the bulk form of Poll, useful at shutdown to recover undelivered
// messages.
func (t *TransferQueue[T]) Drain() []T {
	var out []T
	for {
		v, ok := t.Poll()
		if !ok {
			return out
		}
		out = append(out, v)
	}
}

// HasWaitingConsumer reports whether a consumer was observed waiting.
func (t *TransferQueue[T]) HasWaitingConsumer() bool { return t.q.HasWaitingConsumer() }

// HasBufferedData reports whether asynchronously deposited elements were
// observed waiting to be taken.
func (t *TransferQueue[T]) HasBufferedData() bool { return t.q.HasWaitingProducer() }

// Close shuts the queue down: waiting synchronous producers and consumers
// are woken and observe the closed state, and subsequent operations are
// rejected with ErrClosed (or a panic, for the demand operations without an
// error return). Elements already deposited asynchronously with Put are
// retained — Poll and Drain still return them after Close, so no accepted
// element is ever lost to a shutdown. Close is idempotent, lock-free, and
// safe to call concurrently with any operation.
func (t *TransferQueue[T]) Close() { t.q.Close() }

// Closed reports whether Close has been called.
func (t *TransferQueue[T]) Closed() bool { return t.q.Closed() }
