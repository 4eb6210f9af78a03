package synchq

import (
	"context"
	"errors"
	"time"

	"synchq/internal/core"
	"synchq/internal/segq"
	"synchq/internal/shard"
)

// ErrTimeout is returned by deadline-bounded operations whose patience
// interval expired before a counterpart arrived. It is distinct from
// external cancellation: a context operation returns ErrTimeout only when
// the context's own deadline ran out, and the context's cancellation cause
// (context.Cause) otherwise.
var ErrTimeout = errors.New("synchq: operation timed out")

// ErrClosed is returned by error-reporting operations invoked on (or
// waiting in) a queue that was shut down with Close. Demand operations
// without an error return (Put, Take) panic instead, mirroring Go's
// closed-channel semantics.
var ErrClosed = errors.New("synchq: queue closed")

// ctxError maps a non-OK status from a context-bounded operation to its
// error, keeping deadline expiry and external cancellation distinct:
// ErrTimeout means the patience ran out, while a canceled context reports
// its cancellation cause (context.Cause: context.Canceled for a plain
// cancel, or the cause handed to a CancelCauseFunc).
func ctxError(ctx context.Context, st core.Status) error {
	if st == core.Closed {
		return ErrClosed
	}
	// Timeout and Canceled both mean the wait ended without a transfer,
	// and the context's Done channel closes for deadline expiry just as
	// for an explicit cancel — so the status alone cannot separate the
	// two. The cause can: deadline expiry yields context.DeadlineExceeded,
	// while an external cancel carries context.Canceled or the cause
	// handed to the CancelCauseFunc.
	if cause := context.Cause(ctx); cause != nil && !errors.Is(cause, context.DeadlineExceeded) {
		return cause
	}
	return ErrTimeout
}

// Queue is the minimal synchronous hand-off interface: both operations
// block until a counterpart arrives. Every implementation in this module
// satisfies it, including the timeout-free classics (Naive, Hanson).
type Queue[T any] interface {
	// Put transfers v to a consumer, waiting for one to arrive.
	Put(v T)
	// Take receives a value from a producer, waiting for one to arrive.
	Take() T
}

// TimedQueue is the paper's rich interface: demand operations plus
// poll/offer with zero or bounded patience.
type TimedQueue[T any] interface {
	Queue[T]
	// Offer transfers v only if a consumer is already waiting.
	Offer(v T) bool
	// OfferTimeout transfers v, waiting up to d for a consumer.
	OfferTimeout(v T, d time.Duration) bool
	// Poll receives a value only if a producer is already waiting.
	Poll() (T, bool)
	// PollTimeout receives a value, waiting up to d for a producer.
	PollTimeout(d time.Duration) (T, bool)
}

// impl is the method set every queue core provides — and the elimination
// front-end, which wraps one.
type impl[T any] interface {
	Put(T)
	Take() T
	PutDeadline(T, time.Time, <-chan struct{}) core.Status
	TakeDeadline(time.Time, <-chan struct{}) (T, core.Status)
	Offer(T) bool
	OfferTimeout(T, time.Duration) bool
	Poll() (T, bool)
	PollTimeout(time.Duration) (T, bool)
	HasWaitingConsumer() bool
	HasWaitingProducer() bool
	IsEmpty() bool
	ReserveTake() (T, core.Ticket[T], bool)
	ReservePut(T) (core.Ticket[T], bool)
	PutBatch([]T, time.Time, <-chan struct{}) (int, core.Status)
	TakeBatch([]T, int, time.Time, <-chan struct{}) ([]T, core.Status)
	Close()
	Closed() bool
}

// SynchronousQueue is a nonblocking, contention-free synchronous queue. It
// pairs producers and consumers with no buffering: each Put waits for a
// Take and vice versa. Construct one with New (see the Fair, Sharded,
// AutoShard, Segmented, EliminatingAdaptive and Instrument options).
type SynchronousQueue[T any] struct {
	impl impl[T]
	fair bool
	// fab is the sharding introspection surface, nil on unsharded queues.
	// The hooks close over the fabric without making SynchronousQueue
	// depend on its element type parameterization.
	fab  *fabricHooks
	inst *Metrics
}

// fabricHooks adapts a shard fabric's introspection surface (effective
// width, ceiling, stats snapshot) for the queue and Metrics accessors.
type fabricHooks struct {
	width func() int
	max   func() int
	stats func() FabricStats
}

var (
	_ TimedQueue[int] = (*SynchronousQueue[int])(nil)
	_ TimedQueue[int] = (*TransferQueue[int])(nil)
)

// Option configures a queue built by New.
type Option func(*config)

type config struct {
	fair      bool
	sharded   bool
	autoShard bool
	segmented bool
	shards    int
	elim      bool
	wait      core.WaitConfig
	inst      *Metrics
}

// buildConfig folds opts into a config.
func buildConfig(opts []Option) config {
	var c config
	for _, o := range opts {
		o(&c)
	}
	return c
}

// Fair selects FIFO (dual queue) pairing when true, LIFO (dual stack)
// pairing when false. The default is unfair, matching
// java.util.concurrent.SynchronousQueue.
func Fair(fair bool) Option {
	return func(c *config) { c.fair = fair }
}

// Segmented selects the segment-backed hand-off core: waiters live in
// fixed-size segments of half-cache-line hand-off cells claimed by a
// single fetch-and-add per side and resolved by a single CAS per cell,
// instead of the dual structures' per-waiter linked nodes. Arrival order
// still decides pairing — each side's counter is FIFO by construction —
// so a segmented queue reports Fair() true; what changes is the memory
// system's view: one 576-byte allocation amortizes over a whole segment
// of 16 transfers (36 bytes each, against the dual queue's 64-byte node
// per waiter), hot-path pointer chasing disappears, and fully consumed or
// aborted segments are unlinked so cancellation storms cannot grow the
// structure (see DESIGN.md "Segmented core").
//
// Segmented composes with Sharded (each shard becomes a segmented core)
// and Instrument; it overrides Fair's choice of implementation.
func Segmented() Option {
	return func(c *config) { c.segmented = true }
}

// Sharded stripes the queue across n independent dual structures (n is
// rounded up to a power of two and capped at 64, since the fabric's
// presence summaries are single 64-bit words), trading
// global ordering for multi-core scalability: instead of every hand-off
// contending on one head/tail word, operations are spread across n cache-
// independent structures, with a work-stealing sweep guaranteeing that a
// waiter on one shard is still found by counterparts dispatched to any
// other. Sharded(n) with n > 0 is the fixed-width escape hatch — the
// width never changes; n <= 0 is equivalent to AutoShard, the
// self-scaling fabric. The queue's Shards method reports the current
// effective width, MaxShards the ceiling.
//
// The ordering contract is relaxed accordingly: with Fair(true), FIFO
// pairing holds only among waiters on the same shard — two producers
// waiting on different shards may be fulfilled in either order. Synchrony
// is NOT relaxed: every transfer still pairs exactly one producer with one
// consumer, with no buffering. Choose sharding when throughput under heavy
// multi-core contention matters more than a global arrival order; see
// DESIGN.md for the steal protocol, its fairness bounds, and the
// self-scaling width controller.
func Sharded(n int) Option {
	return func(c *config) { c.sharded, c.shards, c.autoShard = true, n, n <= 0 }
}

// AutoShard selects the self-scaling sharded fabric: the queue is striped
// like Sharded, but the effective width — how many shards new operations
// route to — is re-picked continuously from observed contention, between
// 1 and a GOMAXPROCS-sized ceiling (MaxShards). A quiet queue collapses
// to effective width 1 and hands off at near-unsharded cost; a contended
// one activates shards as lost probe races accumulate. Deactivated
// shards are swept clean through the ordinary commit path, so the
// synchrony and conservation contracts hold at every width; the ordering
// relaxation is the same as Sharded's. Equivalent to Sharded(0).
func AutoShard() Option {
	return func(c *config) { c.sharded, c.shards, c.autoShard = true, 0, true }
}

// New returns a synchronous queue configured by opts; with no options it is
// the paper's unfair queue (nonblocking dual stack).
func New[T any](opts ...Option) *SynchronousQueue[T] {
	return newFromConfig[T](buildConfig(opts))
}

// newFromConfig builds the queue a config describes: the backing core the
// structural options select, behind the elimination front-end when
// EliminatingAdaptive asked for one.
func newFromConfig[T any](c config) *SynchronousQueue[T] {
	q := &SynchronousQueue[T]{fair: c.fair || c.segmented, inst: c.inst}
	switch {
	case c.sharded:
		mk := func(i int) shard.Dual[T] {
			w := c.wait
			if c.inst != nil {
				// Each shard records into its own child handle so
				// Metrics.ShardStats can expose per-shard behavior;
				// Metrics.Stats merges them back together.
				w.Metrics = c.inst.shardHandle(i)
			}
			if c.segmented {
				return segq.New[T](w)
			}
			if c.fair {
				return core.NewDualQueue[T](w)
			}
			return core.NewDualStack[T](w)
		}
		var fab *shard.Fabric[T]
		if c.autoShard {
			fab = shard.NewAuto(c.shards, mk)
		} else {
			fab = shard.New(c.shards, mk)
		}
		// Fabric-level events — steal counts, steal latency, width
		// changes — go to the root handle, not to any one shard.
		fab.SetMetrics(c.wait.Metrics)
		fab.SetFault(c.wait.Fault)
		q.impl = fab
		q.fab = &fabricHooks{
			width: fab.Shards,
			max:   fab.MaxShards,
			stats: func() FabricStats { return fabricStatsFrom(fab.Stats()) },
		}
		if c.inst != nil {
			c.inst.setFabric(q.fab)
		}
	case c.segmented:
		q.impl = segq.New[T](c.wait)
	case c.fair:
		q.impl = core.NewDualQueue[T](c.wait)
	default:
		q.impl = core.NewDualStack[T](c.wait)
	}
	if c.elim {
		q.impl = newElimFront(q.impl, c.wait.Metrics)
	}
	return q
}

// Fair reports whether this queue pairs waiters in FIFO order (per shard,
// when sharded — see Sharded for the relaxed global contract).
func (q *SynchronousQueue[T]) Fair() bool { return q.fair }

// Shards returns the current effective width: the number of independent
// structures new operations are routed across. It is 1 for an unsharded
// queue, the constructed (power-of-two) count for Sharded(n) with n > 0,
// and moves between 1 and MaxShards with observed contention for an
// AutoShard / Sharded(0) queue.
func (q *SynchronousQueue[T]) Shards() int {
	if q.fab == nil {
		return 1
	}
	return q.fab.width()
}

// MaxShards returns the width ceiling: the number of constructed shards
// (1 for an unsharded queue). For a fixed-width queue MaxShards equals
// Shards forever; for a self-scaling one it is the largest width the
// controller may activate.
func (q *SynchronousQueue[T]) MaxShards() int {
	if q.fab == nil {
		return 1
	}
	return q.fab.max()
}

// FabricStats snapshots the sharded fabric's introspection surface —
// effective width, width-change count, per-shard depth and steal
// breakdown. ok is false for an unsharded queue (the zero Stats carries
// no information there). The same snapshot is reachable from
// Metrics().FabricStats() on an instrumented queue.
func (q *SynchronousQueue[T]) FabricStats() (FabricStats, bool) {
	if q.fab == nil {
		return FabricStats{}, false
	}
	return q.fab.stats(), true
}

// Metrics returns the instrumentation set attached with the Instrument
// option, or nil for an uninstrumented queue. Nil is safe to use: every
// *Metrics method (Stats, Reset, …) works on a nil receiver.
func (q *SynchronousQueue[T]) Metrics() *Metrics { return q.inst }

// Put transfers v to a consumer, waiting as long as necessary for one to
// arrive.
func (q *SynchronousQueue[T]) Put(v T) { q.impl.Put(v) }

// Take receives a value from a producer, waiting as long as necessary for
// one to arrive.
func (q *SynchronousQueue[T]) Take() T { return q.impl.Take() }

// Offer transfers v only if a consumer is already waiting; it reports
// whether the transfer happened. Offer never blocks.
func (q *SynchronousQueue[T]) Offer(v T) bool { return q.impl.Offer(v) }

// OfferTimeout transfers v, waiting up to d for a consumer. A non-positive
// d is equivalent to Offer.
func (q *SynchronousQueue[T]) OfferTimeout(v T, d time.Duration) bool {
	return q.impl.OfferTimeout(v, d)
}

// Poll receives a value only if a producer is already waiting. Poll never
// blocks.
func (q *SynchronousQueue[T]) Poll() (T, bool) { return q.impl.Poll() }

// PollTimeout receives a value, waiting up to d for a producer. A
// non-positive d is equivalent to Poll.
func (q *SynchronousQueue[T]) PollTimeout(d time.Duration) (T, bool) {
	return q.impl.PollTimeout(d)
}

// PutContext transfers v to a consumer, abandoning the attempt if ctx is
// done first. It returns nil on success, ErrClosed if the queue is (or
// becomes) closed, ErrTimeout if the context's own deadline expired, and
// otherwise the context's cancellation cause (context.Cause: this is
// context.Canceled for a plain cancel) — so callers can distinguish "ran
// out of patience" from "told to stop" with errors.Is.
func (q *SynchronousQueue[T]) PutContext(ctx context.Context, v T) error {
	deadline, _ := ctx.Deadline()
	st := q.impl.PutDeadline(v, deadline, ctx.Done())
	if st == core.OK {
		return nil
	}
	return ctxError(ctx, st)
}

// TakeContext receives a value, abandoning the attempt if ctx is done
// first. Errors follow the PutContext contract: ErrClosed on a closed
// queue, ErrTimeout when the context's deadline expired, and the context's
// cancellation cause when it was canceled externally.
func (q *SynchronousQueue[T]) TakeContext(ctx context.Context) (T, error) {
	var zero T
	deadline, _ := ctx.Deadline()
	v, st := q.impl.TakeDeadline(deadline, ctx.Done())
	if st == core.OK {
		return v, nil
	}
	return zero, ctxError(ctx, st)
}

// PollWait receives a value, waiting until a producer arrives, the deadline
// passes (zero deadline: no deadline) or cancel fires (nil: never). It is
// the low-level primitive beneath PollTimeout and TakeContext, exposed for
// integrations — such as thread pools — that manage their own deadlines.
func (q *SynchronousQueue[T]) PollWait(deadline time.Time, cancel <-chan struct{}) (T, bool) {
	v, st := q.impl.TakeDeadline(deadline, cancel)
	if st != core.OK {
		var zero T
		return zero, false
	}
	return v, true
}

// OfferWait transfers v, waiting until a consumer arrives, the deadline
// passes (zero: no deadline) or cancel fires (nil: never).
func (q *SynchronousQueue[T]) OfferWait(v T, deadline time.Time, cancel <-chan struct{}) bool {
	return q.impl.PutDeadline(v, deadline, cancel) == core.OK
}

// HasWaitingConsumer reports whether a consumer was observed waiting. The
// answer may be stale by the time it is returned; it is a heuristic (for
// example, for deciding whether submitting work will require a new
// worker).
func (q *SynchronousQueue[T]) HasWaitingConsumer() bool { return q.impl.HasWaitingConsumer() }

// HasWaitingProducer reports whether a producer was observed waiting.
func (q *SynchronousQueue[T]) HasWaitingProducer() bool { return q.impl.HasWaitingProducer() }

// IsEmpty reports whether the queue was observed with no waiting producers
// or consumers.
func (q *SynchronousQueue[T]) IsEmpty() bool { return q.impl.IsEmpty() }

// Close shuts the queue down: every parked or spinning waiter is woken and
// observes the closed state (blocking demand operations panic with
// ErrClosed's message, exactly as a send on a closed channel panics;
// status-reporting operations such as PutContext return ErrClosed), and
// all subsequent operations are rejected the same way. Close is
// idempotent, lock-free, and safe to call concurrently with any operation:
// each in-flight hand-off either completes in both parties or in neither.
func (q *SynchronousQueue[T]) Close() { q.impl.Close() }

// Closed reports whether Close has been called.
func (q *SynchronousQueue[T]) Closed() bool { return q.impl.Closed() }
