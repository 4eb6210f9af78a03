// Package exchanger implements elimination-based pairing: an arena of slots
// in which two threads meet, swap values, and leave without touching a
// central data structure.
//
// Elimination (Shavit & Touitou) spreads the contention that the paper
// identifies as the remaining bottleneck of its synchronous queues — all
// threads CASing one head/tail word — across multiple memory locations. The
// paper's authors applied the technique to the java.util.concurrent
// Exchanger (Scherer, Lea & Scott 2005) and report, in §5, preliminary
// experiments using elimination as a front-end to the synchronous queues;
// this package provides both: a standalone Exchanger and an Arena usable as
// an elimination front-end (benchmarked as Ablation C).
package exchanger

import (
	"math/rand/v2"
	"runtime"
	"sync/atomic"
	"time"

	"synchq/internal/fault"
	"synchq/internal/metrics"
	"synchq/internal/park"
	"synchq/internal/spin"
)

// Status is the outcome of a bounded exchange attempt.
type Status int

const (
	// OK means a partner was found and values were swapped.
	OK Status = iota
	// Timeout means no partner arrived within the patience interval.
	Timeout
	// Canceled means the cancel channel fired first.
	Canceled
)

// xnode is one party at an arena slot: mine is the value it brings (the
// zero value for a pure consumer in elimination mode), hole receives the
// fulfilling partner's own node, whose mine is the partner's value, or
// the canceled sentinel, and waiter names the parker the party borrowed
// from the exchanger's parker table when its spin phase ended (index+1, 0
// until then) — 24 bytes for word-sized T.
//
// Nodes are reclaimed only by the garbage collector. A slot word is CASed
// against a node's address, so an address must not come back while a
// stale claimant may hold it; a hole is CASed only from nil, so the node
// a fulfiller deposits needs no scrub (see DESIGN.md "Node and parker
// lifecycle"). The deposited node is never in a slot at that moment: a
// party that withdrew from an excursion slot continues with a fresh node.
type xnode[T any] struct {
	hole   atomic.Pointer[xnode[T]]
	waiter atomic.Uint32
	isData bool
	mine   T
}

// slot is a padded arena cell, spacing the CAS targets so threads meeting
// in different slots do not collide on a cache line — the entire point of
// elimination.
type slot[T any] struct {
	_ [64]byte
	n atomic.Pointer[xnode[T]]
	_ [64]byte
}

// Exchanger lets pairs of goroutines swap values: each party presents a
// value and receives its partner's. Meetings are spread over an arena
// sized to the machine. Use New to create one; an Exchanger must not be
// copied after first use.
type Exchanger[T any] struct {
	arena    []slot[T]
	canceled *xnode[T] // hole sentinel: party canceled
	// asArena restricts meetings to complementary parties (data with
	// request); a standalone exchanger lets any two parties meet.
	asArena bool
	// ad, when non-nil, adapts the active slot range and per-attempt
	// patience to observed contention (see adaptor); nil pins the static
	// full-width policy.
	ad *adaptor
	// wait is the main-slot wait's policy, its spin budget pinned at the
	// platform defaults (MaxUntimedSpins untimed, MaxTimedSpins timed; none
	// on a uniprocessor). brief is an outer-slot excursion's, which is
	// timed, pinned at MaxUntimedSpins spins on any host.
	wait, brief park.Policy
	// m receives the instrumentation counters; nil disables them.
	m *metrics.Handle
	// f injects deterministic faults at the CAS sites; nil disables.
	f *fault.Injector
	// parkers lends waiting parties their parkers (see park.Table).
	parkers park.Table
}

// SetMetrics attaches an instrumentation handle (nil disables) and returns
// e for chaining. Call before the exchanger is shared between goroutines.
func (e *Exchanger[T]) SetMetrics(h *metrics.Handle) *Exchanger[T] {
	e.m, e.parkers.M, e.wait.M, e.brief.M = h, h, h, h
	if e.ad != nil {
		h.Set(metrics.ArenaWidth, int64(e.ad.Width()))
	}
	return e
}

// SetFault attaches a fault injector (nil disables) and returns e for
// chaining. Call before the exchanger is shared between goroutines.
func (e *Exchanger[T]) SetFault(f *fault.Injector) *Exchanger[T] {
	e.f, e.parkers.F = f, f
	return e
}

// Metrics returns the exchanger's instrumentation handle (nil when
// disabled).
func (e *Exchanger[T]) Metrics() *metrics.Handle { return e.m }

// arenaSize picks the number of slots: one is enough at low parallelism;
// contention spreading only pays with many hardware threads.
func arenaSize() int {
	n := runtime.GOMAXPROCS(0) / 2
	if n < 1 {
		n = 1
	}
	if n > 32 {
		n = 32
	}
	return n
}

// New returns an Exchanger with a platform-sized arena.
func New[T any]() *Exchanger[T] { return NewSize[T](arenaSize()) }

// NewSize returns an Exchanger with the given number of arena slots
// (minimum 1). Exposed so benchmarks can ablate the arena size.
func NewSize[T any](slots int) *Exchanger[T] {
	if slots < 1 {
		slots = 1
	}
	e := &Exchanger[T]{arena: make([]slot[T], slots), canceled: new(xnode[T])}
	e.wait = park.Policy{Cal: spin.NewCalibrator(spin.UntimedSpins()), Parkers: &e.parkers, SpinPhaseOnly: true}
	e.brief = park.Policy{Cal: spin.NewCalibrator(spin.MaxUntimedSpins << 4), Parkers: &e.parkers, Grace: true}
	return e
}

// Exchange presents v and blocks until a partner presents its own value,
// then returns the partner's value.
func (e *Exchanger[T]) Exchange(v T) T {
	x, _ := e.exchange(v, true, time.Time{}, nil)
	return x
}

// ExchangeDeadline is Exchange abandoned when the deadline passes (zero:
// no deadline) or cancel fires (nil: never), whichever comes first. The
// status says which ended an unsuccessful wait, and the value is then the
// zero value.
func (e *Exchanger[T]) ExchangeDeadline(v T, deadline time.Time, cancel <-chan struct{}) (T, Status) {
	return e.exchange(v, true, deadline, cancel)
}

// exchange is the engine shared by the standalone Exchanger and the Arena.
// Slot 0 is the main location: only there does a party wait with its full
// patience (or forever). Excursions to outer slots — taken after collisions
// on the main slot — are strictly spin-bounded, after which the party falls
// back to slot 0, the paper's "fall back to the main location" rule. This
// guarantees that two unbounded parties eventually meet.
//
// When an adaptor is attached, every attempt reports its outcome and how
// many CAS races it lost, feeding the contention EWMA that reshapes the
// active slot range and the arena patience.
func (e *Exchanger[T]) exchange(v T, isData bool, deadline time.Time, cancel <-chan struct{}) (T, Status) {
	t0 := e.m.Start()
	fails := 0
	x, st := e.exchangeCounting(v, isData, deadline, cancel, &fails, t0)
	if t0 != 0 {
		d := time.Duration(metrics.Nanos() - t0)
		switch {
		case st != OK:
			// An arena miss is not wasted wait from the caller's view:
			// the operation falls back to the backing structure, and the
			// eliminating layer records the full detour as FallbackNs.
			if !e.asArena {
				e.m.Record(metrics.WastedNs, d)
			}
		case e.asArena:
			e.m.Record(metrics.ElimNs, d)
		default:
			e.m.Record(metrics.HandoffNs, d)
		}
	}
	if e.ad != nil {
		e.ad.observe(st == OK, fails, e.m)
	}
	return x, st
}

func (e *Exchanger[T]) exchangeCounting(v T, isData bool, deadline time.Time, cancel <-chan struct{}, fails *int, t0 int64) (T, Status) {
	var zero T
	me := &xnode[T]{mine: v, isData: isData}
	idx := 0
	for {
		if !deadline.IsZero() && !time.Now().Before(deadline) {
			e.m.Inc(metrics.Timeouts)
			return zero, Timeout
		}
		if cancel != nil {
			select {
			case <-cancel:
				e.m.Inc(metrics.Cancellations)
				return zero, Canceled
			default:
			}
		}
		s := &e.arena[idx]
		cur := s.n.Load()
		switch {
		case cur == nil && idx == 0:
			if e.f.FailCAS(fault.XSlotCAS) {
				// Injected collision on the main slot: take the
				// excursion arc a real lost claim would take.
				e.m.Inc(metrics.CASFailEnqueue)
				*fails++
				e.f.Preempt(fault.XArenaPause)
				idx = e.outerSlot()
				continue
			}
			if s.n.CompareAndSwap(nil, me) {
				return e.await(me, s, &e.wait, deadline, cancel, t0)
			}
			// Collision on the main slot: brief excursion. The pause
			// site holds this window — collision observed, excursion
			// not yet taken — open for the chaos schedules.
			e.m.Inc(metrics.CASFailEnqueue)
			*fails++
			e.f.Preempt(fault.XArenaPause)
			idx = e.outerSlot()
		case cur == nil:
			if s.n.CompareAndSwap(nil, me) {
				// An excursion never parks: its deadline has passed on
				// arrival, so its whole patience is the grace an unspent
				// spin budget gets.
				if x, st := e.await(me, s, &e.brief, time.Unix(0, 1), nil, 0); st == OK {
					return x, OK
				}
				// Withdrew; the node's hole is poisoned, so
				// a fresh node is needed.
				me = &xnode[T]{mine: v, isData: isData}
			} else {
				e.m.Inc(metrics.CASFailEnqueue)
				*fails++
			}
			idx = 0
		case !e.asArena || cur.isData != isData:
			// Eligible partner: claim it and fulfill.
			if e.f.FailCAS(fault.XFulfillCAS) {
				// Injected lost claim: retry from a fresh look at
				// the slot, as after a real loss.
				e.m.Inc(metrics.CASFailFulfill)
				*fails++
				continue
			}
			if s.n.CompareAndSwap(cur, nil) {
				e.f.Preempt(fault.XFulfillPause)
				if cur.hole.CompareAndSwap(nil, me) {
					e.m.Inc(metrics.Fulfillments)
					e.parkers.Wake(cur.waiter.Load())
					return cur.mine, OK
				}
				// Partner canceled between claim and
				// fulfill; keep looking.
				e.m.Inc(metrics.CASFailFulfill)
				*fails++
			} else {
				e.m.Inc(metrics.CASFailFulfill)
				*fails++
			}
		default:
			// Same-mode occupant (arena mode): look elsewhere,
			// alternating between the main and an outer slot.
			if idx == 0 {
				idx = e.outerSlot()
			} else {
				idx = 0
			}
		}
	}
}

// outerSlot picks a random non-main slot within the active width (the full
// arena under the static policy, the adaptor's current width otherwise),
// or the main slot if only one slot is active.
func (e *Exchanger[T]) outerSlot() int {
	w := len(e.arena)
	if e.ad != nil {
		if aw := e.ad.Width(); aw < w {
			w = aw
		}
	}
	if w <= 1 {
		return 0
	}
	return 1 + rand.IntN(w-1)
}

// await waits for our hole to be filled through the shared spin-then-park
// loop, under the main slot's or an excursion's policy, cancelling on
// deadline/cancel. On cancellation it also withdraws the node from its
// slot so later arrivals do not claim a dead node. t0 is the exchange's
// arrival timestamp for the spin-vs-park breakdown (zero when
// uninstrumented); the end-to-end outcome is recorded by exchange.
func (e *Exchanger[T]) await(me *xnode[T], s *slot[T], p *park.Policy, deadline time.Time, cancel <-chan struct{}, t0 int64) (T, Status) {
	o, why := park.Await(xwait[T]{e: e, me: me}, p, &deadline, cancel, t0)
	if o != park.Fulfilled {
		s.n.CompareAndSwap(me, nil) // withdraw
		var zero T
		if why == park.Canceled {
			return zero, Canceled
		}
		return zero, Timeout
	}
	// The partner's value; a pure consumer's node brings the zero value,
	// which the producer it matched ignores.
	return me.hole.Load().mine, OK
}

// xwait is a main-slot party's wait as park.Await drives it: pending while
// the hole is empty; a partner fills it, and the owner's abort poisons it
// with the canceled sentinel. Any party at the main slot may spin.
type xwait[T any] struct {
	e  *Exchanger[T]
	me *xnode[T]
}

func (w xwait[T]) Settled() park.Outcome {
	switch w.me.hole.Load() {
	case nil:
		return park.Pending
	case w.e.canceled:
		return park.Aborted
	}
	return park.Fulfilled
}

func (w xwait[T]) Abort() bool { return w.me.hole.CompareAndSwap(nil, w.e.canceled) }

func (w xwait[T]) SpinOK() bool { return true }

func (w xwait[T]) Arm(idx uint32) { w.me.waiter.Store(idx + 1) }
