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
	"sync"
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

// xnode is one party waiting in an arena slot: mine is the value it brings
// (nil for a pure consumer in elimination mode), hole receives the
// partner's value or a sentinel (canceled / taken-by-pure-consumer), and
// waiter names the parker the party borrowed from the exchanger's parker
// table when its spin phase ended (index+1, 0 until then) — 24 bytes in
// all.
type xnode[T any] struct {
	mine   *xbox[T]
	hole   atomic.Pointer[xbox[T]]
	waiter atomic.Uint32
	isData bool
}

// slot is a padded arena cell, spacing the CAS targets so threads meeting
// in different slots do not collide on a cache line — the entire point of
// elimination.
type slot[T any] struct {
	_ [64]byte
	n atomic.Pointer[xnode[T]]
	_ [64]byte
}

// xbox boxes an exchanged value. The pooled flag doubles as the padding
// byte that guarantees every allocation a unique address even when T is
// zero-sized, so pointer identity against the hole sentinels is always
// meaningful.
//
// Boxes with pooled set circulate through the exchanger's box pool under
// the scrub-before-pool doctrine: a box is recycled only by the single
// party that read its value (ownership transfers at the hole CAS, and the
// winner of that CAS is the only reader), or by its owner when the value
// never transferred (the owner's hole was poisoned first, so no fulfiller
// can reach the box). Hole CASes always compare against nil, never against
// a box address, so recycling boxes cannot reintroduce ABA; the waiter
// nodes, whose addresses ARE CAS compare values in the slot words, stay
// GC-only (see DESIGN.md "Node and parker lifecycle").
type xbox[T any] struct {
	v      T
	pooled bool
}

// Exchanger lets pairs of goroutines swap values: each party presents a
// value and receives its partner's. Meetings are spread over an arena
// sized to the machine. Use New to create one; an Exchanger must not be
// copied after first use.
type Exchanger[T any] struct {
	arena    []slot[T]
	canceled *xbox[T] // hole sentinel: party canceled
	taken    *xbox[T] // hole sentinel: matched by a pure consumer
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
	// bpool recycles pooled value boxes (see xbox).
	bpool sync.Pool
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
	e := &Exchanger[T]{arena: make([]slot[T], slots), canceled: new(xbox[T]), taken: new(xbox[T])}
	e.wait = park.Policy{Cal: spin.NewCalibrator(spin.UntimedSpins()), Parkers: &e.parkers, SpinPhaseOnly: true}
	e.brief = park.Policy{Cal: spin.NewCalibrator(spin.MaxUntimedSpins << 4), Parkers: &e.parkers, Grace: true}
	return e
}

// getBox returns a value box holding v, recycled from the box pool when
// possible.
func (e *Exchanger[T]) getBox(v T) *xbox[T] {
	if x, _ := e.bpool.Get().(*xbox[T]); x != nil {
		e.m.Inc(metrics.NodeReuses)
		x.v = v
		return x
	}
	e.m.Inc(metrics.NodeAllocs)
	return &xbox[T]{v: v, pooled: true}
}

// putBox recycles a box whose value has been consumed (or never
// transferred). Only boxes the exchanger itself issued are pooled — the
// pooled flag excludes the sentinels and caller-built boxes — and the
// value is scrubbed first so the pool never retains user data.
func (e *Exchanger[T]) putBox(x *xbox[T]) {
	if x == nil || !x.pooled {
		return
	}
	var zero T
	x.v = zero
	e.bpool.Put(x)
}

// Exchange presents v and blocks until a partner presents its own value,
// then returns the partner's value.
func (e *Exchanger[T]) Exchange(v T) T {
	x, _ := e.exchange(e.getBox(v), true, time.Time{}, nil)
	out := x.v
	e.putBox(x) // we are the box's sole reader: consume and recycle
	return out
}

// ExchangeDeadline is Exchange abandoned when the deadline passes (zero:
// no deadline) or cancel fires (nil: never), whichever comes first. The
// status says which ended an unsuccessful wait.
func (e *Exchanger[T]) ExchangeDeadline(v T, deadline time.Time, cancel <-chan struct{}) (T, Status) {
	b := e.getBox(v)
	x, st := e.exchange(b, true, deadline, cancel)
	if st != OK {
		// The hole was poisoned before any fulfiller could deposit, so
		// our datum never transferred and the box is still ours.
		e.putBox(b)
		var zero T
		return zero, st
	}
	out := x.v
	e.putBox(x)
	return out, OK
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
func (e *Exchanger[T]) exchange(v *xbox[T], isData bool, deadline time.Time, cancel <-chan struct{}) (*xbox[T], Status) {
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

func (e *Exchanger[T]) exchangeCounting(v *xbox[T], isData bool, deadline time.Time, cancel <-chan struct{}, fails *int, t0 int64) (*xbox[T], Status) {
	me := &xnode[T]{mine: v, isData: isData}
	idx := 0
	for {
		if !deadline.IsZero() && !time.Now().Before(deadline) {
			e.m.Inc(metrics.Timeouts)
			return nil, Timeout
		}
		if cancel != nil {
			select {
			case <-cancel:
				e.m.Inc(metrics.Cancellations)
				return nil, Canceled
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
				if cur.hole.CompareAndSwap(nil, e.fulfillValue(v)) {
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

// fulfillValue is what we deposit into the partner's hole: our value, or —
// for a pure consumer bringing no value — the "taken" sentinel.
func (e *Exchanger[T]) fulfillValue(v *xbox[T]) *xbox[T] {
	if v != nil {
		return v
	}
	return e.taken
}

// await waits for our hole to be filled through the shared spin-then-park
// loop, under the main slot's or an excursion's policy, cancelling on
// deadline/cancel. On cancellation it also withdraws the node from its
// slot so later arrivals do not claim a dead node. t0 is the exchange's
// arrival timestamp for the spin-vs-park breakdown (zero when
// uninstrumented); the end-to-end outcome is recorded by exchange.
func (e *Exchanger[T]) await(me *xnode[T], s *slot[T], p *park.Policy, deadline time.Time, cancel <-chan struct{}, t0 int64) (*xbox[T], Status) {
	o, why := park.Await(xwait[T]{e: e, me: me}, p, &deadline, cancel, t0)
	if o != park.Fulfilled {
		s.n.CompareAndSwap(me, nil) // withdraw
		if why == park.Canceled {
			return nil, Canceled
		}
		return nil, Timeout
	}
	if x := me.hole.Load(); x != e.taken {
		return x, OK
	}
	return nil, OK // matched by a pure consumer
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
