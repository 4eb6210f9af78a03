package segq

import (
	"testing"
	"time"

	"synchq/internal/core"
)

// Single-goroutine pins of the commit step's three outcomes on the
// segmented core (the dual structures' twins live in internal/core): a
// decline with no counterpart breaks the installed cell, a decline that
// loses to the step's own fulfillment completes as OK, and a decline that
// loses to Close completes as Closed.

func TestCommitDeclineWithdraws(t *testing.T) {
	t.Run("put", func(t *testing.T) {
		q := New[*int](core.WaitConfig{})
		var c *cell[*int]
		st := q.PutCommit(new(int), time.Time{}, nil, func() bool {
			c = q.head.Load().at(0)
			return false
		})
		if st != core.Withdrawn {
			t.Fatalf("PutCommit = %v, want Withdrawn", st)
		}
		if !isEmpty(q) {
			t.Error("queue not empty after the withdrawal")
		}
		if _, ok := poll(q); ok {
			t.Error("withdrawn datum delivered to a later Poll")
		}
		if c.state.Load() != cBroken || c.v != nil {
			t.Errorf("withdrawn cell: state %d, value %p; want BROKEN and scrubbed", c.state.Load(), c.v)
		}
	})
	t.Run("take", func(t *testing.T) {
		q := New[*int](core.WaitConfig{})
		if _, st := q.TakeCommit(time.Time{}, nil, func() bool { return false }); st != core.Withdrawn {
			t.Fatalf("TakeCommit = %v, want Withdrawn", st)
		}
		if !isEmpty(q) {
			t.Error("queue not empty after the withdrawal")
		}
		if offer(q, new(int)) {
			t.Error("Offer paired with a withdrawn consumer")
		}
	})
}

func TestCommitDeclineLosesToFulfillment(t *testing.T) {
	t.Run("put", func(t *testing.T) {
		q := New[*int](core.WaitConfig{})
		v := new(int)
		var got *int
		calls := 0
		st := q.PutCommit(v, time.Time{}, nil, func() bool {
			calls++
			var ok bool
			if got, ok = poll(q); !ok {
				t.Error("Poll inside the step missed the installed producer")
			}
			return false
		})
		if st != core.OK || calls != 1 || got != v {
			t.Fatalf("PutCommit = %v after %d steps, Poll got %p; want OK, 1, %p", st, calls, got, v)
		}
	})
	t.Run("take", func(t *testing.T) {
		q := New[*int](core.WaitConfig{})
		v := new(int)
		got, st := q.TakeCommit(time.Time{}, nil, func() bool {
			if !offer(q, v) {
				t.Error("Offer inside the step missed the installed consumer")
			}
			return false
		})
		if st != core.OK || got != v {
			t.Fatalf("TakeCommit = (%p, %v), want (%p, OK)", got, st, v)
		}
		if offer(q, v) {
			t.Error("the consumer was fulfilled twice")
		}
	})
}

func TestCommitDeclineLosesToClose(t *testing.T) {
	t.Run("put", func(t *testing.T) {
		q := New[*int](core.WaitConfig{})
		if st := q.PutCommit(new(int), time.Time{}, nil, func() bool { q.Close(); return false }); st != core.Closed {
			t.Fatalf("PutCommit = %v, want Closed", st)
		}
		if q.Len() != 0 {
			t.Error("closed producer's cell stranded in the queue")
		}
	})
	t.Run("take", func(t *testing.T) {
		q := New[*int](core.WaitConfig{})
		if _, st := q.TakeCommit(time.Time{}, nil, func() bool { q.Close(); return false }); st != core.Closed {
			t.Fatalf("TakeCommit = %v, want Closed", st)
		}
		if q.Len() != 0 {
			t.Error("closed consumer's cell stranded in the queue")
		}
	})
}
