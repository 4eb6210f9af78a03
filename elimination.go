package synchq

import (
	"time"

	"synchq/internal/core"
	"synchq/internal/exchanger"
	"synchq/internal/metrics"
)

// EliminatingAdaptive puts a self-tuning elimination front-end before the
// queue New builds: every waiting operation (Put, Take, the timed and
// context forms, OfferWait/PollWait) first tries to meet a counterpart in
// an arena of cache-padded slots, and waits on the backing queue only on a
// miss. The arena's active width and per-attempt patience adapt online to
// the observed contention, and the arena collapses to direct hand-off — no
// detour beyond a periodic re-probe — when the queue is quiet. Operations
// that never wait (Offer, Poll, DrainTo), batches and reservations go
// straight to the backing queue.
//
// This is the paper's §5 future-work experiment; as the paper anticipates,
// it pays off only under extreme contention (see Ablation C in
// EXPERIMENTS.md). Arena hits relax FIFO pairing, as Sharded does: two
// parties that meet in the arena pair regardless of who has waited longest
// on the backing queue, even with Fair(true). Synchrony is not relaxed: a
// hit pairs exactly one producer with one consumer, and a miss buffers
// nothing. Close does not wake arena waiters — an arena attempt lasts
// microseconds, after which the party falls through to the backing queue
// and observes the closed state there.
//
// EliminatingAdaptive composes with every other option. With Instrument,
// arena hits show up as ElimHits and the "elim" histogram, and arena
// misses that complete on the backing queue as the "fallback" histogram.
func EliminatingAdaptive() Option {
	return func(c *config) { c.elim = true }
}

// NewEliminatingQueue returns New(opts..., EliminatingAdaptive()).
//
// Deprecated: use New with the EliminatingAdaptive option.
func NewEliminatingQueue[T any](opts ...Option) *SynchronousQueue[T] {
	return New[T](append(opts[:len(opts):len(opts)], EliminatingAdaptive())...)
}

// elimFront is the front-end EliminatingAdaptive installs over any backing
// core, sharded or not. It embeds the core, so batches, reservations, the
// probes and Close reach it unchanged, and overrides only the contract's
// two transfers to try the arena first. Every waiting form the facade
// derives (Put, Take, the timed and context forms, OfferWait/PollWait)
// runs through those two; Offer and Poll, at zero patience, leave no room
// for an arena attempt and go straight to the core.
type elimFront[T any] struct {
	core.Handoff[T]
	arena *exchanger.Arena[T]
	m     *metrics.Handle // for FallbackNs; nil when uninstrumented
}

func newElimFront[T any](backing core.Handoff[T], m *metrics.Handle) *elimFront[T] {
	return &elimFront[T]{
		Handoff: backing,
		arena:   exchanger.NewArenaAdaptive[T](0).SetMetrics(m),
		m:       m,
	}
}

// detour reports whether a wait bounded by deadline (zero: unbounded)
// leaves room for an arena attempt at the current patience.
func (e *elimFront[T]) detour(deadline time.Time) bool {
	return deadline.IsZero() || time.Until(deadline) > e.arena.Patience()
}

func (e *elimFront[T]) PutDeadline(v T, deadline time.Time, cancel <-chan struct{}) core.Status {
	if !e.detour(deadline) {
		return e.Handoff.PutDeadline(v, deadline, cancel)
	}
	t0 := e.m.Start()
	if e.arena.TryGiveAdaptive(v) {
		return core.OK
	}
	st := e.Handoff.PutDeadline(v, deadline, cancel)
	if st == core.OK {
		e.m.Since(metrics.FallbackNs, t0)
	}
	return st
}

func (e *elimFront[T]) TakeDeadline(deadline time.Time, cancel <-chan struct{}) (T, core.Status) {
	if !e.detour(deadline) {
		return e.Handoff.TakeDeadline(deadline, cancel)
	}
	t0 := e.m.Start()
	if v, ok := e.arena.TryTakeAdaptive(); ok {
		return v, core.OK
	}
	v, st := e.Handoff.TakeDeadline(deadline, cancel)
	if st == core.OK {
		e.m.Since(metrics.FallbackNs, t0)
	}
	return v, st
}
