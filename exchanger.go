package synchq

import (
	"context"
	"time"

	"synchq/internal/core"
	"synchq/internal/exchanger"
)

// Exchanger is a synchronization point at which pairs of goroutines swap
// values: each party presents a value to Exchange and receives its
// partner's. It is the elimination-based swap channel of Scherer, Lea &
// Scott (2005) that the paper's §5 elimination discussion builds on; under
// high contention, meetings are spread across an arena of cache-padded
// slots rather than funneling through one word.
//
// Construct one with NewExchanger; an Exchanger must not be copied after
// first use.
type Exchanger[T any] struct {
	e    *exchanger.Exchanger[T]
	inst *Metrics
}

// NewExchanger returns an Exchanger with a platform-sized elimination
// arena. Of the options, only Instrument applies; the queue-shaping options
// (Fair, Sharded, EliminatingAdaptive, …) are ignored.
func NewExchanger[T any](opts ...Option) *Exchanger[T] {
	c := buildConfig(opts)
	return &Exchanger[T]{
		e:    exchanger.New[T]().SetMetrics(c.wait.Metrics),
		inst: c.inst,
	}
}

// Metrics returns the instrumentation set attached with the Instrument
// option, or nil for an uninstrumented exchanger.
func (x *Exchanger[T]) Metrics() *Metrics { return x.inst }

// Exchange presents v, waits for a partner, and returns the partner's
// value.
func (x *Exchanger[T]) Exchange(v T) T { return x.e.Exchange(v) }

// ExchangeTimeout is Exchange with patience d; ok is false if no partner
// arrived in time.
func (x *Exchanger[T]) ExchangeTimeout(v T, d time.Duration) (T, bool) {
	got, st := x.e.ExchangeDeadline(v, time.Now().Add(d), nil)
	return got, st == exchanger.OK
}

// ExchangeContext is Exchange abandoned when ctx is done. Errors follow the
// SynchronousQueue.PutContext contract: ErrTimeout when the context's own
// deadline expired, and the context's cancellation cause otherwise.
func (x *Exchanger[T]) ExchangeContext(ctx context.Context, v T) (T, error) {
	deadline, _ := ctx.Deadline()
	got, st := x.e.ExchangeDeadline(v, deadline, ctx.Done())
	if st == exchanger.OK {
		return got, nil
	}
	var zero T
	// An exchanger never closes, so any miss is a timeout or a cancel.
	return zero, ctxError(ctx, core.Timeout)
}
