package exchanger

import (
	"time"

	"synchq/internal/fault"
	"synchq/internal/metrics"
)

// Arena is an elimination front-end for a synchronous queue: producers and
// consumers first try, with bounded patience, to meet in the arena; only on
// failure do they fall back to the queue proper. Two threads that meet here
// cancel each other out without ever touching the queue's head/tail words —
// the contention-reduction idea the paper sketches in §5.
//
// An Arena never buffers: a producer that fails to meet a consumer within
// its patience withdraws, preserving synchronous semantics.
//
// An arena is either static (NewArena: fixed slot count, caller-chosen
// patience per attempt) or adaptive (NewArenaAdaptive: the active slot
// range and per-attempt patience self-tune from the observed contention,
// collapsing to direct hand-off — no arena detour at all — when the
// structure is quiet).
type Arena[T any] struct {
	e *Exchanger[T]
}

// NewArena returns an elimination arena with the given number of slots
// (minimum 1; pass 0 for the platform default).
func NewArena[T any](slots int) *Arena[T] {
	var e *Exchanger[T]
	if slots <= 0 {
		e = New[T]()
	} else {
		e = NewSize[T](slots)
	}
	e.asArena = true
	return &Arena[T]{e: e}
}

// NewArenaAdaptive returns a self-tuning elimination arena: maxSlots caps
// the arena width (0 for the platform default, sized from GOMAXPROCS), and
// the active width and per-attempt patience adapt online to the observed
// CAS-failure rate. Use TryGiveAdaptive/TryTakeAdaptive, which supply
// their own patience.
func NewArenaAdaptive[T any](maxSlots int) *Arena[T] {
	if maxSlots <= 0 {
		maxSlots = adaptiveMaxWidth()
	}
	e := NewSize[T](maxSlots)
	e.asArena = true
	e.ad = newAdaptor(len(e.arena))
	return &Arena[T]{e: e}
}

// SetMetrics attaches an instrumentation handle (nil disables) and returns
// a for chaining. Call before the arena is shared between goroutines.
func (a *Arena[T]) SetMetrics(h *metrics.Handle) *Arena[T] {
	a.e.SetMetrics(h)
	return a
}

// SetFault attaches a fault injector (nil disables) and returns a for
// chaining. Call before the arena is shared between goroutines.
func (a *Arena[T]) SetFault(f *fault.Injector) *Arena[T] {
	a.e.SetFault(f)
	return a
}

// Metrics returns the arena's instrumentation handle (nil when disabled).
func (a *Arena[T]) Metrics() *metrics.Handle { return a.e.m }

// Adaptive reports whether the arena self-tunes.
func (a *Arena[T]) Adaptive() bool { return a.e.ad != nil }

// Width returns the arena's active slot count: the full arena under the
// static policy, the adaptor's current width otherwise.
func (a *Arena[T]) Width() int {
	if a.e.ad != nil {
		return a.e.ad.Width()
	}
	return len(a.e.arena)
}

// Patience returns the adaptive per-attempt patience (zero when collapsed
// to direct hand-off, or when the arena is static and the caller supplies
// patience explicitly).
func (a *Arena[T]) Patience() time.Duration {
	if a.e.ad != nil {
		return a.e.ad.Patience()
	}
	return 0
}

// TryGive attempts to hand v to a consumer via the arena, waiting at most
// patience. It reports whether the hand-off happened.
func (a *Arena[T]) TryGive(v T, patience time.Duration) bool {
	if _, st := a.e.exchange(v, true, time.Now().Add(patience), nil); st != OK {
		a.e.m.Inc(metrics.ElimMisses)
		return false
	}
	a.e.m.Inc(metrics.ElimHits)
	return true
}

// TryTake attempts to receive a value from a producer via the arena,
// waiting at most patience.
func (a *Arena[T]) TryTake(patience time.Duration) (T, bool) {
	v, st := a.e.exchange(*new(T), false, time.Now().Add(patience), nil)
	if st != OK {
		a.e.m.Inc(metrics.ElimMisses)
		return v, false
	}
	a.e.m.Inc(metrics.ElimHits)
	return v, true
}

// TryGiveAdaptive is TryGive with self-tuned patience: in collapsed mode
// (uncontended) it declines immediately except for the periodic re-probe,
// so the caller goes straight to the backing structure.
func (a *Arena[T]) TryGiveAdaptive(v T) bool {
	p, try := a.adaptiveAttempt()
	if !try {
		a.e.m.Inc(metrics.ElimMisses)
		return false
	}
	return a.TryGive(v, p)
}

// TryTakeAdaptive is TryTake with self-tuned patience.
func (a *Arena[T]) TryTakeAdaptive() (T, bool) {
	p, try := a.adaptiveAttempt()
	if !try {
		a.e.m.Inc(metrics.ElimMisses)
		var zero T
		return zero, false
	}
	return a.TryTake(p)
}

// adaptiveAttempt resolves the patience for one adaptive attempt; a static
// arena (no adaptor) falls back to a small fixed patience so the adaptive
// entry points remain usable on any arena.
func (a *Arena[T]) adaptiveAttempt() (time.Duration, bool) {
	if a.e.ad == nil {
		return 5 * time.Microsecond, true
	}
	return a.e.ad.attempt()
}
