package core

import (
	"testing"
	"time"
)

// These single-goroutine tests pin the commit step's three outcomes on
// both structures: a decline with no counterpart withdraws the waiter, a
// decline that loses to the step's own fulfillment completes as OK, and a
// decline that loses to Close completes as Closed. They are the coverage
// of the withdraw race the shard fabric relies on.

// commitCore is the surface the tests drive; scrubbed, called from inside
// a commit step, captures the just-linked waiter and returns a check that
// its datum slot no longer pins the value.
type commitCore struct {
	q interface {
		Handoff[*int]
		PutCommit(*int, time.Time, <-chan struct{}, func() bool) Status
		TakeCommit(time.Time, <-chan struct{}, func() bool) (*int, Status)
		vacant() bool
	}
	scrubbed func() func() bool
	// reservePut links a waiting producer without blocking.
	reservePut func(*int)
}

func commitCores() map[string]func() commitCore {
	return map[string]func() commitCore{
		"queue": func() commitCore {
			q := NewDualQueue[*int](WaitConfig{})
			return commitCore{q, func() func() bool {
				box := q.boxes.At(q.tail.Load().item.Load() - 1)
				return func() bool { return *box == nil }
			}, func(v *int) { q.ReservePut(v) }}
		},
		"stack": func() commitCore {
			q := NewDualStack[*int](WaitConfig{})
			return commitCore{q, func() func() bool {
				n := q.head.Load()
				return func() bool { return n.v == nil }
			}, func(v *int) { q.ReservePut(v) }}
		},
	}
}

func TestCommitDeclineWithdraws(t *testing.T) {
	for name, mk := range commitCores() {
		t.Run(name+"/put", func(t *testing.T) {
			c := mk()
			var scrubbed func() bool
			st := c.q.PutCommit(new(int), time.Time{}, nil, func() bool {
				scrubbed = c.scrubbed()
				return false
			})
			if st != Withdrawn {
				t.Fatalf("PutCommit = %v, want Withdrawn", st)
			}
			if !c.q.vacant() {
				t.Error("structure not empty after the withdrawal")
			}
			if _, ok := poll(c.q); ok {
				t.Error("withdrawn datum delivered to a later Poll")
			}
			if !scrubbed() {
				t.Error("withdrawn datum still referenced by its box")
			}
		})
		t.Run(name+"/take", func(t *testing.T) {
			c := mk()
			if _, st := c.q.TakeCommit(time.Time{}, nil, func() bool { return false }); st != Withdrawn {
				t.Fatalf("TakeCommit = %v, want Withdrawn", st)
			}
			if !c.q.vacant() {
				t.Error("structure not empty after the withdrawal")
			}
			if offer(c.q, new(int)) {
				t.Error("Offer paired with a withdrawn consumer")
			}
		})
	}
}

func TestCommitDeclineLosesToFulfillment(t *testing.T) {
	for name, mk := range commitCores() {
		t.Run(name+"/put", func(t *testing.T) {
			c := mk()
			v := new(int)
			var got *int
			calls := 0
			st := c.q.PutCommit(v, time.Time{}, nil, func() bool {
				calls++
				var ok bool
				if got, ok = poll(c.q); !ok {
					t.Error("Poll inside the step missed the linked producer")
				}
				return false
			})
			if st != OK || calls != 1 || got != v {
				t.Fatalf("PutCommit = %v after %d steps, Poll got %p; want OK, 1, %p", st, calls, got, v)
			}
			if !c.q.vacant() {
				t.Error("structure not empty after the hand-off")
			}
		})
		t.Run(name+"/take", func(t *testing.T) {
			c := mk()
			v := new(int)
			got, st := c.q.TakeCommit(time.Time{}, nil, func() bool {
				if !offer(c.q, v) {
					t.Error("Offer inside the step missed the linked consumer")
				}
				return false
			})
			if st != OK || got != v {
				t.Fatalf("TakeCommit = (%p, %v), want (%p, OK)", got, st, v)
			}
			if offer(c.q, v) {
				t.Error("the consumer was fulfilled twice")
			}
		})
	}
}

func TestCommitDeclineLosesToClose(t *testing.T) {
	for name, mk := range commitCores() {
		t.Run(name+"/put", func(t *testing.T) {
			c := mk()
			st := c.q.PutCommit(new(int), time.Time{}, nil, func() bool { c.q.Close(); return false })
			if st != Closed {
				t.Fatalf("PutCommit = %v, want Closed", st)
			}
			if !c.q.vacant() {
				t.Error("closed producer's node stranded in the structure")
			}
		})
		t.Run(name+"/take", func(t *testing.T) {
			c := mk()
			if _, st := c.q.TakeCommit(time.Time{}, nil, func() bool { c.q.Close(); return false }); st != Closed {
				t.Fatalf("TakeCommit = %v, want Closed", st)
			}
			if !c.q.vacant() {
				t.Error("closed consumer's node stranded in the structure")
			}
		})
	}
}

// TestCommitStepSkippedWithoutLink: an operation that pairs at once or
// gives up before linking never runs the step.
func TestCommitStepSkippedWithoutLink(t *testing.T) {
	step := func() bool { t.Error("commit step ran without a linked waiter"); return true }
	for name, mk := range commitCores() {
		t.Run(name, func(t *testing.T) {
			c := mk()
			if st := c.q.PutCommit(new(int), DeadlineFor(0), nil, step); st != Timeout {
				t.Errorf("expired PutCommit = %v, want Timeout", st)
			}
			v := new(int)
			c.reservePut(v)
			if got, st := c.q.TakeCommit(time.Time{}, nil, step); st != OK || got != v {
				t.Errorf("TakeCommit against a waiting producer = (%p, %v), want (%p, OK)", got, st, v)
			}
		})
	}
}
