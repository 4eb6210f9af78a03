package core

import "time"

// The derived forms, spelled the way the synchq facade derives them from
// the hand-off contract, so these tests drive the cores through exactly
// the calls the public queues make.

func offer[T any](h Handoff[T], v T) bool { return offerTimeout(h, v, 0) }

func offerTimeout[T any](h Handoff[T], v T, d time.Duration) bool {
	return h.PutDeadline(v, DeadlineFor(d), nil) == OK
}

func poll[T any](h Handoff[T]) (T, bool) { return pollTimeout(h, 0) }

func pollTimeout[T any](h Handoff[T], d time.Duration) (T, bool) {
	v, st := h.TakeDeadline(DeadlineFor(d), nil)
	return v, st == OK
}

// drain polls until nothing is immediately available: the transfer
// queue's Drain.
func drain[T any](h Handoff[T]) []T {
	var out []T
	for {
		v, ok := poll(h)
		if !ok {
			return out
		}
		out = append(out, v)
	}
}

// vacant reports whether the queue holds no node at all, live or dead —
// the structural emptiness the cleaning tests check, which is stronger
// than the facade's derived IsEmpty (no live waiter on either side).
func (q *DualQueue[T]) vacant() bool {
	h := q.head.Load()
	return h == q.tail.Load() && h.next.Load() == nil
}

// vacant reports whether the stack holds no node at all.
func (q *DualStack[T]) vacant() bool { return q.head.Load() == nil }
