package segq

import (
	"time"

	"synchq/internal/core"
)

// The derived forms, spelled the way the synchq facade derives them from
// the hand-off contract, so these tests drive the structure through
// exactly the calls the public queues make.

func offer[T any](h core.Handoff[T], v T) bool { return offerTimeout(h, v, 0) }

func offerTimeout[T any](h core.Handoff[T], v T, d time.Duration) bool {
	return h.PutDeadline(v, core.DeadlineFor(d), nil) == core.OK
}

func poll[T any](h core.Handoff[T]) (T, bool) { return pollTimeout(h, 0) }

func pollTimeout[T any](h core.Handoff[T], d time.Duration) (T, bool) {
	v, st := h.TakeDeadline(core.DeadlineFor(d), nil)
	return v, st == core.OK
}

func isEmpty[T any](h core.Handoff[T]) bool {
	return !h.HasWaitingConsumer() && !h.HasWaitingProducer()
}
