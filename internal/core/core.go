// Package core implements the paper's primary contribution: two
// nonblocking, contention-free synchronous queues built as dual data
// structures.
//
//   - DualQueue is the fair (FIFO) algorithm of §3.3 "The synchronous dual
//     queue": a Michael&Scott-style linked list that holds either data
//     nodes or reservation nodes, never both, with producers now waiting in
//     the structure just as consumers do.
//   - DualStack is the unfair (LIFO) algorithm of §3.3 "The synchronous dual
//     stack": a Treiber-style stack in which a fulfilling node is pushed on
//     top of a complementary node and the adjacent pair "annihilates".
//
// Both support the full rich interface the paper calls for: demand
// operations (block until paired), poll/offer (succeed only if a
// counterpart is already waiting), timed operations with a patience
// interval, and asynchronous cancellation (the Go analogue of thread
// interruption), plus the pragmatics the paper describes — spin-then-park
// waiting, reference forgetting for the garbage collector, and cleaning of
// canceled nodes (lazy cleanMe unlinking in the queue, traversal unlinking
// in the stack).
//
// The implementations are ports of the algorithms as adopted into Java 6
// (java.util.concurrent.SynchronousQueue), adapted to Go: goroutines park
// on a three-state atomic permit word (internal/park) instead of
// LockSupport, every wait runs the shared spin-then-park loop park.Await,
// and since Go generics preclude the JDK's "item == this" self-sentinels,
// each structure carries typed sentinel pointers with identical roles.
package core

import (
	"time"

	"synchq/internal/fault"
	"synchq/internal/metrics"
	"synchq/internal/park"
)

// Status is the outcome of a transfer attempt.
type Status int

const (
	// OK means the operation paired up and transferred a value.
	OK Status = iota
	// Timeout means the patience interval expired (for zero patience:
	// no counterpart was waiting).
	Timeout
	// Canceled means the operation was abandoned because its cancel
	// channel fired.
	Canceled
	// Closed means the structure was shut down with Close: either the
	// operation arrived after the close, or the caller was waiting in
	// the structure when the close happened.
	Closed
	// Withdrawn means a commit step declined (see PutCommit): the waiter
	// was taken back out before anything transferred, and the caller may
	// retry. Only composing callers that pass a commit step see it.
	Withdrawn
)

// A commit step is the hook PutCommit and TakeCommit run inside a waiting
// operation, for composing callers such as the shard fabric, whose Dekker
// commit must announce a waiter only once it is linked. The step runs
// exactly once, after the operation has linked its waiter and passed the
// post-link close re-check, and before it spins or parks; an operation
// that completes or fails without linking never runs it. Returning true
// lets the wait proceed as PutDeadline/TakeDeadline would. Returning false
// withdraws the waiter with the same CAS a reservation's Abort uses, and
// the call reports Withdrawn — unless a fulfiller or Close resolved the
// waiter first, in which case the call completes as that ordinary OK or
// Closed transfer. The step may itself operate on the structure.

// String returns a human-readable form of s.
func (s Status) String() string {
	switch s {
	case OK:
		return "ok"
	case Timeout:
		return "timeout"
	case Canceled:
		return "canceled"
	case Closed:
		return "closed"
	case Withdrawn:
		return "withdrawn"
	default:
		return "invalid"
	}
}

// errClosedDemand is the panic value for demand operations (Put, Take, the
// reservation request operations) invoked on a closed structure, which
// have no status channel to report Closed through — the analogue of Go's
// "send on closed channel" panic. Status-returning operations report
// Closed instead of panicking. The text deliberately matches the public
// package's ErrClosed message so every closed-queue panic reads the same.
const errClosedDemand = "synchq: queue closed"

// WaitConfig tunes the waiting policy of a synchronous queue. The zero
// value selects the paper's defaults: spin briefly before parking on
// multiprocessors, park immediately on uniprocessors.
type WaitConfig struct {
	// Spins sets the structure's spin calibrator (spin.NewCalibrator): zero
	// adapts the spin-before-park budget at runtime within the platform
	// defaults, a negative value never spins, and n > 0 pins unbounded
	// waits at n spins and deadline waits at n>>4.
	Spins int
	// Metrics, if non-nil, receives the queue's event counters (CAS
	// failures per loop site, spins, parks, unparks, fulfillments,
	// timeouts, cancellations, cleaning sweeps). Nil disables
	// instrumentation at the cost of one branch per hook.
	Metrics *metrics.Handle
	// Fault, if non-nil, injects deterministic faults (forced CAS
	// failures, preemption at linearization-critical points, spurious
	// unparks, timer skew) at the same sites the metrics counters name.
	// Nil disables injection at the cost of one branch per hook.
	Fault *fault.Injector
}

// StatusOf maps how a shared-loop wait (park.Await) ended onto the
// operation's status; why matters only for an aborted wait.
func StatusOf(o park.Outcome, why park.WaitResult) Status {
	switch {
	case o == park.Fulfilled:
		return OK
	case o == park.Evicted:
		return Closed
	case why == park.Canceled:
		return Canceled
	}
	return Timeout
}

// DeadlineFor converts a patience duration into an absolute deadline with
// the poll/offer convention shared by every core: zero patience yields an
// already-expired deadline (pure poll/offer), negative patience is treated
// as zero.
func DeadlineFor(d time.Duration) time.Time { return deadlineFor(d) }

// deadlineFor converts a patience duration into an absolute deadline; zero
// patience yields an already-expired deadline (pure poll/offer), negative
// patience is treated as zero.
func deadlineFor(d time.Duration) time.Time {
	if d <= 0 {
		// Any non-zero time in the past: expired immediately.
		return time.Unix(0, 1)
	}
	return time.Now().Add(d)
}
