package pool

import (
	"time"

	"synchq/internal/core"
)

// buffered adapts the paper's transfer queue (§5) as an unbounded FIFO
// task queue: Offer deposits with the dual queue's asynchronous PutAsync,
// which never waits for a worker, and idle workers wait as reservations
// that are fulfilled in arrival order. This is the nonsynchronous dual queue of
// Scherer & Scott (2004) that the synchronous configuration extends, so
// the same structure backs both pool shapes, differing only in whether
// producers wait. A worker's poll is an ordinary cancelable reservation:
// a canceled or expired wait withdraws its node, which the queue cleans.
type buffered struct {
	q *core.DualQueue[Task]
}

// NewBuffered returns an unbounded buffered task queue for use with New —
// the work-queue configuration of a fixed pool, as opposed to the
// synchronous hand-off of a cached pool. The returned queue implements
// WaitQueue, so pools built on it get cancelable idle polls (prompt,
// poison-free shutdown wake-ups).
func NewBuffered() Queue {
	return buffered{q: core.NewDualQueue[Task](core.WaitConfig{})}
}

// Offer deposits t; it always succeeds (the buffer is unbounded).
func (b buffered) Offer(t Task) bool { return b.q.PutAsync(t) == core.OK }

// PollTimeout receives the oldest buffered task, waiting up to d for one
// to arrive.
func (b buffered) PollTimeout(d time.Duration) (Task, bool) {
	return b.PollWait(core.DeadlineFor(d), nil)
}

// OfferWait deposits t; an unbounded buffer never makes producers wait,
// so the deadline and cancel channel are irrelevant.
func (b buffered) OfferWait(t Task, _ time.Time, _ <-chan struct{}) bool {
	return b.q.PutAsync(t) == core.OK
}

// PollWait receives the oldest buffered task, waiting until the deadline
// (zero = forever) or the cancel channel (nil = never) fires.
func (b buffered) PollWait(deadline time.Time, cancel <-chan struct{}) (Task, bool) {
	t, st := b.q.TakeDeadline(deadline, cancel)
	return t, st == core.OK
}

// DrainTo appends up to max immediately available buffered tasks to buf
// without waiting — the BatchQueue facet that lets a pool worker claim a
// small burst of backlog in one wakeup.
func (b buffered) DrainTo(buf []Task, max int) []Task {
	buf, _ = b.q.TakeBatch(buf, max, core.Expired, nil)
	return buf
}
