package core

import (
	"sync"
	"sync/atomic"
	"time"

	"synchq/internal/fault"
	"synchq/internal/metrics"
	"synchq/internal/park"
	"synchq/internal/spin"
)

// Node modes for the dual stack. A node is a request, a datum, or a
// fulfilling node pushed on top of a complementary node to "annihilate"
// with it. The paper notes Java cannot set flag bits in pointers, so the
// mode lives in a word of its own in the node — the same choice made here.
const (
	modeRequest    uint8 = 0
	modeData       uint8 = 1
	modeFulfilling uint8 = 2
)

// snode is a node of the synchronous dual stack. match is the annihilation
// pointer: a fulfiller CASes it from nil to itself; a waiter that times out
// CASes it from nil to the node itself (self-match means canceled), and a
// close sweep CASes it from nil to the stack's closed sentinel. item is
// boxed (qitem) so the ticket API can share value plumbing with the queue;
// unlike the queue's circulating boxes, a stack node's datum rides in the
// node's own embedded box, stored into item before the publishing push.
//
// wp is the embedded parker, initialized in place when the wait arms, and box
// the embedded item box, so a push-and-wait allocates only the node itself.
// A node that has been linked into the stack (its push CAS succeeded) is
// reclaimed only by the garbage collector — never pooled — because stale
// traversers (helpers, cleaners, losing fulfillers, the close sweep) may
// still hold its address for head/next/match CASes, and address reuse would
// reintroduce exactly the ABA those CASes rely on pointer identity to avoid
// (see DESIGN.md "Node and parker lifecycle").
type snode[T any] struct {
	next   atomic.Pointer[snode[T]]
	match  atomic.Pointer[snode[T]]
	waiter atomic.Pointer[park.Parker]
	item   atomic.Pointer[qitem[T]]
	wp     park.Parker
	box    qitem[T]
	mode   uint8
	// Pad to the next cache-line multiple (88 → 128 bytes for word-sized
	// T): at 88 the allocator's 96-byte size class leaves consecutive
	// nodes straddling shared lines, so one waiter's match CAS invalidates
	// its neighbor's spin on a different node.
	_ [47]byte
}

// tryMatch attempts to match node m with fulfiller f, waking m's waiter on
// success. It also returns true if m was already matched with f by a
// helping thread.
func tryMatch[T any](m, f *snode[T]) bool {
	if m.match.CompareAndSwap(nil, f) {
		if p := m.waiter.Load(); p != nil {
			p.Unpark()
		}
		return true
	}
	return m.match.Load() == f
}

// casNext replaces m with mn in n's next pointer.
func (n *snode[T]) casNext(m, mn *snode[T]) bool {
	return n.next.Load() == m && n.next.CompareAndSwap(m, mn)
}

// DualStack is the paper's unfair synchronous queue: a nonblocking,
// contention-free dual stack derived from the Treiber stack, in which the
// most recently arrived waiter is paired first (LIFO). Use NewDualStack to
// create one; a DualStack must not be copied after first use.
type DualStack[T any] struct {
	// head owns its cache line: it is the single CAS target every push,
	// annihilation, and unlink fights over, and the fields below it are
	// read in those same loops.
	head atomic.Pointer[snode[T]]
	_    [56]byte

	// closedMark is the shutdown sentinel: a waiter whose node's match is
	// swung here was evicted by Close and reports the Closed status. It
	// plays the role self-matching plays for cancellation, but from the
	// outside — only the waiter itself may self-match, so Close needs a
	// third party every fulfiller already treats as "not my match".
	closedMark *snode[T]
	// closed is set by Close; the push arm of engageWait refuses to add
	// waiters once it is set.
	closed atomic.Bool

	// npool recycles spare nodes that lost their push race and were never
	// linked — the only nodes whose address provably reached no other
	// thread.
	npool sync.Pool

	// cal sets every wait's spin budget (WaitConfig.Spins).
	cal *spin.Calibrator
	// m receives the instrumentation counters; nil disables them.
	m *metrics.Handle
	// f injects deterministic faults at the labeled sites; nil disables.
	f *fault.Injector
}

// NewDualStack returns an empty unfair synchronous queue with the given
// wait policy (use the zero WaitConfig for the paper's defaults).
func NewDualStack[T any](cfg WaitConfig) *DualStack[T] {
	return &DualStack[T]{closedMark: &snode[T]{}, cal: spin.NewCalibrator(cfg.Spins), m: cfg.Metrics, f: cfg.Fault}
}

// Metrics returns the stack's instrumentation handle (nil when disabled).
func (q *DualStack[T]) Metrics() *metrics.Handle { return q.m }

// getNode returns a fresh or recycled node with the given mode, its datum
// box empty. Pooled nodes are spares that were never linked (see putSpare),
// so their match, waiter and parker words are pristine.
func (q *DualStack[T]) getNode(mode uint8) *snode[T] {
	if n, _ := q.npool.Get().(*snode[T]); n != nil {
		q.m.Inc(metrics.NodeReuses)
		n.mode = mode
		return n
	}
	q.m.Inc(metrics.NodeAllocs)
	return &snode[T]{mode: mode}
}

// putSpare recycles a node that was NEVER linked into the stack — its push
// CAS failed, or the engage loop completed through another arm before
// attempting it. Such a node's address was never published, so no other
// thread can hold a stale pointer to it and reuse is ABA-free; linked nodes
// must never come here. The link word and the embedded box are scrubbed so
// the pool retains neither stack references nor user values. Nil-safe, so
// call sites can hand over a maybe-built spare unconditionally.
func (q *DualStack[T]) putSpare(s *snode[T]) {
	if s == nil {
		return
	}
	s.next.Store(nil)
	s.item.Store(nil)
	var zero T
	s.box.v = zero
	q.npool.Put(s)
}

// isDead reports whether node n has been abandoned — canceled
// (self-matched) or evicted by Close (matched with the closed sentinel) —
// and should be unlinked rather than fulfilled.
func (q *DualStack[T]) isDead(n *snode[T]) bool {
	m := n.match.Load()
	return m == n || m == q.closedMark
}

// transfer is the shared engine for put and take (Listing 6): isData true
// pushes the datum v, isData false pushes a request. A zero deadline waits
// forever; an expired deadline makes the operation a pure offer/poll. On
// success the returned value is the transferred datum for takes (the zero
// value for puts). The datum rides in the waiting or fulfilling node's
// embedded box, so no separate box circulates. commit, if non-nil, is the
// commit step (see Withdrawn). A transfer that has to wait is a
// reservation awaited on the spot, as in the queue.
func (q *DualStack[T]) transfer(isData bool, v T, deadline time.Time, cancel <-chan struct{}, commit func() bool) (T, Status) {
	mode := modeRequest
	if isData {
		mode = modeData
	}
	imm, tk, st := q.arrive(v, mode, deadline)
	if tk.node == nil {
		return imm, st // completed, or refused, at arrival
	}
	if commit != nil && !commit() && tk.waiter().Abort() {
		// Declined: withdraw as a reservation abort does; a lost CAS
		// leaves the match for Await to collect at once.
		q.clean(tk.node)
		var zero T
		return zero, Withdrawn
	}
	return tk.Await(deadline, cancel)
}

// arrive is the first half of every operation: engageWait, then — for a
// node that was pushed — the post-push close re-check. It returns the
// counterpart's datum for a take that annihilated directly, or the pending
// reservation (tk.node non-nil) for the caller to await or hand out.
func (q *DualStack[T]) arrive(v T, mode uint8, deadline time.Time) (imm T, tk StackTicket[T], st Status) {
	t0 := q.m.Start() // arrival timestamp (zero — no clock read — when uninstrumented)
	imm, s, st := q.engageWait(v, mode, deadline)
	switch {
	case st != OK:
		q.m.Since(metrics.WastedNs, t0)
	case s == nil:
		q.m.Since(metrics.HandoffNs, t0) // fulfilled a waiting counterpart directly
	default:
		if q.closed.Load() {
			// Close may have raced our push and finished its eviction
			// sweep before our node was visible; self-evict so the waiter
			// is never stranded. If a fulfiller matched us first the CAS
			// fails and the wait completes normally.
			s.match.CompareAndSwap(nil, q.closedMark)
		}
		tk = StackTicket[T]{q: q, node: s, t0: t0}
	}
	return imm, tk, st
}

// engageWait is the lock-free half of a transfer: it either completes
// immediately by annihilating with a complementary node (returning the
// exchanged value, node nil) or pushes a waiting node s for the caller to
// await. The deadline (zero: none) is consulted at the moment pushing
// becomes necessary.
//
// The waiting node s and the fulfilling node f are each built at most once
// and carried across retry laps. Either may be recycled through the spare
// pool at any exit where it was never linked; f, however, is abandoned to
// the garbage collector the moment its push succeeds — helpers observed its
// address, so reusing it could match a later wait against a stale helper's
// CAS (the same position ABA the queue's doctrine forbids).
func (q *DualStack[T]) engageWait(v T, mode uint8, deadline time.Time) (T, *snode[T], Status) {
	var zero T
	var s, f *snode[T] // hoisted spares; never linked while held here

	for {
		h := q.head.Load()

		switch {
		case h == nil || h.mode == mode:
			// Empty or same-mode: push and wait (lines 07–16).
			if q.closed.Load() {
				// Shut down: nothing may wait. Checked before
				// the deadline so a poll on a closed empty stack
				// reports Closed, not Timeout.
				q.putSpare(s)
				q.putSpare(f)
				return zero, nil, Closed
			}
			if !deadline.IsZero() && !time.Now().Before(deadline) {
				if h != nil && q.isDead(h) {
					if q.head.CompareAndSwap(h, h.next.Load()) {
						q.m.Inc(metrics.CleanSweeps)
					}
					continue // retire canceled top, retry
				}
				q.m.Inc(metrics.Timeouts)
				q.putSpare(s)
				q.putSpare(f)
				return zero, nil, Timeout // can't wait
			}
			if s == nil {
				s = q.getNode(mode)
				if mode == modeData {
					s.box.v = v
					s.item.Store(&s.box)
				}
			}
			s.next.Store(h)
			// The closed check above and the push CAS below bracket the
			// push-vs-sweep race: Close may run entirely in between, and
			// only the caller's post-push re-check can then evict s.
			q.f.Preempt(fault.SCloseRacePause)
			if q.f.FailCAS(fault.SPushCAS) || !q.head.CompareAndSwap(h, s) {
				q.m.Inc(metrics.CASFailEnqueue)
				continue // lost push race
			}
			q.putSpare(f) // fulfill spare from an earlier lap, never linked
			return zero, s, OK

		case h.mode&modeFulfilling == 0:
			// Complementary node on top: push a fulfilling node
			// above it (lines 17–25).
			if q.isDead(h) {
				if q.head.CompareAndSwap(h, h.next.Load()) {
					q.m.Inc(metrics.CleanSweeps)
				}
				continue
			}
			if f == nil {
				f = q.getNode(mode | modeFulfilling)
				if mode == modeData {
					f.box.v = v
					f.item.Store(&f.box)
				}
			}
			f.next.Store(h)
			if q.f.FailCAS(fault.SFulfillCAS) || !q.head.CompareAndSwap(h, f) {
				q.m.Inc(metrics.CASFailFulfill)
				continue
			}
			q.f.Preempt(fault.SFulfillPause)
			for {
				m := f.next.Load() // the node we are fulfilling
				if m == nil {
					// All waiters vanished (canceled and
					// cleaned): pop our fulfilling node
					// and restart.
					q.head.CompareAndSwap(f, nil)
					break
				}
				mn := m.next.Load()
				if tryMatch(m, f) {
					q.m.Inc(metrics.Fulfillments)
					q.head.CompareAndSwap(f, mn) // pop both
					q.putSpare(s)                // push spare, never linked
					if mode == modeRequest {
						return m.item.Load().v, nil, OK
					}
					return zero, nil, OK
				}
				// m was canceled under us: unlink it and try
				// the next waiter down.
				q.m.Inc(metrics.CASFailFulfill)
				if f.casNext(m, mn) {
					q.m.Inc(metrics.CleanSweeps)
				}
			}
			// f was published at the top of the stack: helpers may
			// hold its address, so it is tainted for reuse — leave
			// it to the garbage collector and build a fresh one if
			// another fulfill lap is needed.
			f = nil

		default:
			// Top is another thread's fulfilling node: help it
			// complete the annihilation before proceeding with
			// our own work (lines 26–31).
			q.m.Inc(metrics.HelpCollisions)
			q.f.Preempt(fault.SHelpPause)
			m := h.next.Load()
			if m == nil {
				q.head.CompareAndSwap(h, nil)
			} else {
				mn := m.next.Load()
				if tryMatch(m, h) {
					q.head.CompareAndSwap(h, mn)
				} else {
					h.casNext(m, mn)
				}
			}
		}
	}
}

// finishMatch performs the post-annihilation bookkeeping for a node we
// waited on: help our fulfiller pop the pair (Figure 2, step D) and forget
// the waiter reference.
func (q *DualStack[T]) finishMatch(s *snode[T]) {
	if h := q.head.Load(); h != nil && h.next.Load() == s {
		q.head.CompareAndSwap(h, s.next.Load())
	}
	s.waiter.Store(nil)
}

// swait is a pushed node's wait as park.Await drives it: the node is
// pending while its match word is nil; a fulfiller installs itself there,
// the owner's abort self-matches, and Close installs the closed sentinel.
type swait[T any] struct {
	q *DualStack[T]
	s *snode[T]
}

func (w swait[T]) Settled() park.Outcome {
	switch w.s.match.Load() {
	case nil:
		return park.Pending
	case w.s:
		return park.Aborted
	case w.q.closedMark:
		return park.Evicted
	}
	return park.Fulfilled
}

func (w swait[T]) Abort() bool { return w.s.match.CompareAndSwap(nil, w.s) }

// SpinOK reports whether the node is at or adjacent to the top of the
// stack, i.e. likely to be fulfilled imminently.
func (w swait[T]) SpinOK() bool {
	h := w.q.head.Load()
	return h == w.s || h == nil || h.mode&modeFulfilling != 0
}

// Arm initializes the node's own parker in place and publishes it through
// the waiter word, so entering the slow path allocates nothing.
func (w swait[T]) Arm() *park.Parker {
	w.s.wp.Init(w.q.m, w.q.f)
	w.s.waiter.Store(&w.s.wp)
	return &w.s.wp
}

// clean unlinks the canceled node s from the stack. Unlike the queue there
// is no tail obstruction: we simply sweep from the top down to s's
// (approximate) successor, unsplicing canceled nodes along the way. The
// successor is recorded first so the sweep is bounded even while other
// threads push above us.
func (q *DualStack[T]) clean(s *snode[T]) {
	s.item.Store(nil)
	s.waiter.Store(nil)
	// Scrub the abandoned datum so the dead node, which may linger linked
	// until a later sweep, does not pin the caller's value. Safe because
	// the self-match (or eviction) CAS already won: no fulfiller will
	// read this box.
	var zero T
	s.box.v = zero

	past := s.next.Load()
	if past != nil && q.isDead(past) {
		past = past.next.Load()
	}

	// Absorb canceled nodes at the head.
	p := q.head.Load()
	for p != nil && p != past && q.isDead(p) {
		if q.head.CompareAndSwap(p, p.next.Load()) {
			q.m.Inc(metrics.CleanSweeps)
		}
		p = q.head.Load()
	}
	// Unsplice embedded canceled nodes between the head and past.
	for p != nil && p != past {
		n := p.next.Load()
		if n != nil && q.isDead(n) {
			if q.f.FailCAS(fault.SCleanCAS) || !p.casNext(n, n.next.Load()) {
				q.m.Inc(metrics.CASFailClean)
			} else {
				q.m.Inc(metrics.CleanSweeps)
			}
		} else {
			p = n
		}
	}
}

// Close shuts the stack down gracefully: every waiter parked or spinning
// in the structure is woken and returns the Closed status, and every
// subsequent operation observes Closed (status-returning operations
// report it; demand operations panic). Close is idempotent and safe to
// call concurrently with any operation; it does not block on waiters.
//
// Close linearizes against in-flight annihilations without locking: both
// a fulfiller and the close sweep resolve a waiter with a single CAS on
// the node's match word (the fulfiller installs itself, the sweep
// installs the closed sentinel), so each waiter is either transferred or
// evicted, never both.
func (q *DualStack[T]) Close() {
	q.closed.Store(true)
	// Eviction sweep. No new waiters can be pushed once closed is set
	// (the push arm re-checks it, and transfer self-evicts nodes that
	// raced the sweep). Popped nodes keep their next pointers, so one
	// walk reaches every node that was ever below the observed head.
	for n := q.head.Load(); n != nil; n = n.next.Load() {
		if n.mode&modeFulfilling != 0 {
			continue // an in-flight fulfiller; its own thread completes or retries
		}
		if n.match.CompareAndSwap(nil, q.closedMark) {
			if p := n.waiter.Load(); p != nil {
				p.Unpark()
			}
		}
	}
}

// Closed reports whether Close has been called.
func (q *DualStack[T]) Closed() bool { return q.closed.Load() }

// Put transfers v to a consumer, waiting as long as necessary for one to
// arrive. Put panics if the stack is closed while waiting (or was already
// closed), since it has no status channel to report Closed through.
func (q *DualStack[T]) Put(v T) {
	if _, st := q.transfer(true, v, time.Time{}, nil, nil); st == Closed {
		panic(errClosedDemand)
	}
}

// PutDeadline transfers v to a consumer, giving up at the deadline (zero
// means never) or when cancel fires (nil means never).
func (q *DualStack[T]) PutDeadline(v T, deadline time.Time, cancel <-chan struct{}) Status {
	_, st := q.transfer(true, v, deadline, cancel, nil)
	return st
}

// PutCommit is PutDeadline with a commit step run once the producer has
// been pushed (see Withdrawn).
func (q *DualStack[T]) PutCommit(v T, deadline time.Time, cancel <-chan struct{}, commit func() bool) Status {
	_, st := q.transfer(true, v, deadline, cancel, commit)
	return st
}

// Offer transfers v only if a consumer is already waiting.
func (q *DualStack[T]) Offer(v T) bool {
	_, st := q.transfer(true, v, deadlineFor(0), nil, nil)
	return st == OK
}

// OfferTimeout transfers v, waiting up to d for a consumer.
func (q *DualStack[T]) OfferTimeout(v T, d time.Duration) bool {
	_, st := q.transfer(true, v, deadlineFor(d), nil, nil)
	return st == OK
}

// Take receives a value from a producer, waiting as long as necessary for
// one to arrive. Take panics if the stack is closed while waiting (or was
// already closed), rather than inventing a zero value.
func (q *DualStack[T]) Take() T {
	v, st := q.transfer(false, *new(T), time.Time{}, nil, nil)
	if st == Closed {
		panic(errClosedDemand)
	}
	return v
}

// TakeDeadline receives a value, giving up at the deadline (zero means
// never) or when cancel fires (nil means never).
func (q *DualStack[T]) TakeDeadline(deadline time.Time, cancel <-chan struct{}) (T, Status) {
	return q.transfer(false, *new(T), deadline, cancel, nil)
}

// TakeCommit is TakeDeadline with a commit step run once the consumer has
// been pushed (see Withdrawn).
func (q *DualStack[T]) TakeCommit(deadline time.Time, cancel <-chan struct{}, commit func() bool) (T, Status) {
	return q.transfer(false, *new(T), deadline, cancel, commit)
}

// Poll receives a value only if a producer is already waiting.
func (q *DualStack[T]) Poll() (T, bool) {
	v, st := q.transfer(false, *new(T), deadlineFor(0), nil, nil)
	return v, st == OK
}

// PollTimeout receives a value, waiting up to d for a producer.
func (q *DualStack[T]) PollTimeout(d time.Duration) (T, bool) {
	v, st := q.transfer(false, *new(T), deadlineFor(d), nil, nil)
	return v, st == OK
}

// observe classifies the stack's current content. Like the queue's, it is
// the shard fabric's occupancy probe as well as a monitoring read, so a
// dead top must not hide the live waiters beneath it.
func (q *DualStack[T]) observe() (data, reservations bool) {
	for {
		h := q.head.Load()
		if h == nil {
			return false, false
		}
		if q.isDead(h) {
			// A dead top can cover live waiters until its aborter's clean
			// runs; pop it, as transfer does, rather than read "empty".
			if q.head.CompareAndSwap(h, h.next.Load()) {
				q.m.Inc(metrics.CleanSweeps)
			}
			continue
		}
		switch h.mode &^ modeFulfilling {
		case modeData:
			return true, false
		default:
			return false, true
		}
	}
}

// HasWaitingProducer reports whether a producer was observed waiting.
func (q *DualStack[T]) HasWaitingProducer() bool { d, _ := q.observe(); return d }

// HasWaitingConsumer reports whether a consumer was observed waiting.
func (q *DualStack[T]) HasWaitingConsumer() bool { _, r := q.observe(); return r }

// IsEmpty reports whether the stack was observed empty.
func (q *DualStack[T]) IsEmpty() bool { return q.head.Load() == nil }

// Len counts the live (unmatched, non-canceled) waiting nodes by walking
// the stack. Linear time and only a snapshot under concurrency; intended
// for tests and monitoring.
func (q *DualStack[T]) Len() int {
	n := 0
	for cur := q.head.Load(); cur != nil; cur = cur.next.Load() {
		if cur.match.Load() == nil && cur.mode&modeFulfilling == 0 {
			n++
		}
	}
	return n
}
