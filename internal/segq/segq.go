// Package segq implements the segment-backed, memory-bounded synchronous
// hand-off core — the module's fourth pairing discipline next to the dual
// queue, the dual stack, and the transfer queue.
//
// Where the paper's dual structures allocate one linked node per waiter
// and chase pointers on every hand-off, this core follows the F&A designs
// that came after the paper (Nikolaev's SCQ/LCRQ family and the CQS
// cancellable-synchronizer framework, see PAPERS.md): the structure is an
// infinite logical array of hand-off cells, emulated by fixed-size
// segments in a linked list. Two fetch-and-add counters claim indexes into
// the array — the i-th producer and the i-th consumer rendezvous at cell
// i — so the hot path is one F&A plus one CAS per side, with no head/tail
// CAS retry storm and no per-operation node allocation (a segment of
// SegSize cells amortizes one allocation across SegSize transfers).
//
// # Cell layout
//
// Cells are packed two to a cache line (32 bytes for word-sized payloads),
// so a segment is one 576-byte allocation: 36 bytes per transfer. To keep
// neighboring claimants off each other's line anyway, the segment stores
// logical cell j in slot (j&7)<<1 | j>>3 (SCQ's cache remap): consecutive
// indexes always land on different lines, and the two cells that do share
// a line are eight claims apart.
//
// # Cell state machine
//
// Every cell resolves through a CQS-style single-word state machine:
//
//	          ┌── producer installs ──▶ ITEM ──┬─ consumer claims ──▶ DONE
//	          │                                └─ producer aborts ──▶ BROKEN
//	EMPTY ────┼── consumer installs ──▶ WAITER ┬─ producer fulfills ▶ DONE
//	          │                                └─ consumer aborts ──▶ BROKEN
//	          ├── zero-patience poison ───────────────────────────▶ BROKEN
//	          └ (Close evicts installed cells: ITEM/WAITER ───────▶ CLOSED)
//
// DONE, BROKEN, and CLOSED are terminal. The first arrival installs
// itself (depositing its value first, for the producer) and waits
// spin-then-park; the second arrival resolves the cell with a single CAS
// and then unparks whatever parker the waiter has published in the cell.
// A cell carries no parker of its own: a waiter whose spin phase ends
// borrows one from the queue's free list, stores it into the cell, and
// re-reads the state before blocking (see cellWait.Arm), so a waiter that
// never parks never touches a parker at all. An aborting waiter
// (timeout, cancel) CASes its own installed state to BROKEN — exactly one
// of {resolver, aborter} wins, which is the linearization the paper's
// timed operations need. A party that arrives at an already-BROKEN cell
// (its counterpart poisoned or aborted first) takes a fresh index and
// retries.
//
// # Memory bound and recycling
//
// Each segment counts resolved cells; when all segSize cells are terminal
// the segment is spliced out of the list (a Kotlin-coroutines-style
// two-pointer remove with alive-neighbor revalidation) and left to the
// garbage collector, so a cancellation storm of N waiters retains
// O(N/segSize) segments only transiently and O(1) segments after it
// drains — the tested invariant behind LiveSegments. Fully-broken
// segments that were already unlinked are skipped wholesale: a claimant
// whose index falls into an unlinked segment CAS-maxes its side's counter
// to the first index of the next live segment instead of probing dead
// cells one by one.
//
// Following the module's recycling doctrine (see DESIGN.md "Node and
// parker lifecycle"), segments whose address ever reached another thread
// are never pooled — a stale walker may still hold them, and reusing
// their identity would let an id-based skip jump over live cells. The
// bounded free list recycles only never-linked spares: segments that lost
// the tail-append race before becoming reachable.
package segq

import (
	"sync/atomic"
	"time"

	"synchq/internal/core"
	"synchq/internal/fault"
	"synchq/internal/metrics"
	"synchq/internal/park"
	"synchq/internal/spin"
)

const (
	segShift = 4
	// SegSize is the number of hand-off cells per segment. Sixteen keeps
	// a segment around 1 KiB for word-sized payloads — big enough to
	// amortize allocation and small enough that a cancellation storm's
	// partially-broken tail segment wastes little.
	SegSize = 1 << segShift
	segMask = SegSize - 1
	// spareCap bounds the free list of never-linked spare segments.
	spareCap = 4
	// parkerCap bounds the free list of lent parkers. It only has to cover
	// the waiters that are parked at once in steady state; a burst beyond
	// it allocates fresh parkers and drops the surplus on return.
	parkerCap = 8
)

// Cell states. EMPTY must be zero: fresh segments are zeroed allocations.
const (
	cEmpty uint32 = iota
	cItem
	cWaiter
	cDone
	cBroken
	cClosed
)

// errClosedDemand matches the core package's closed-demand panic text so
// every closed-queue panic reads the same regardless of core.
const errClosedDemand = "synchq: queue closed"

// cell is one hand-off rendezvous. w is the parker the installed waiter
// borrowed for its slow path (nil until its spin phase ends); every
// resolver makes its terminal CAS on state first and only then loads w,
// the mirror of the waiter's store-w-then-reload-state (see cellWait.Arm).
// The trailing pad makes the cell 32 bytes for word-sized payloads, so two
// cells fill one cache line exactly (the layout test pins this down, and
// segment.at keeps neighboring indexes on different lines).
type cell[T any] struct {
	state atomic.Uint32
	w     atomic.Pointer[park.Parker]
	v     T
	_     [8]byte
}

// segment is one fixed-size block of the infinite cell array. The header
// is padded to a cache line so the resolved counter's contended Add does
// not false-share with cells[0].
type segment[T any] struct {
	id       uint64
	next     atomic.Pointer[segment[T]]
	prev     atomic.Pointer[segment[T]]
	resolved atomic.Int32
	_        [64 - 3*8 - 4]byte
	cells    [SegSize]cell[T]
}

// at returns the cell for claim index i. Logical cell j lives in slot
// (j&7)<<1 | j>>3: slots 2k and 2k+1 share a line, and they hold cells k
// and k+8, so consecutive claimants never touch the same line.
func (s *segment[T]) at(i uint64) *cell[T] {
	j := i & segMask
	return &s.cells[(j&7)<<1|j>>3]
}

// removed reports whether every cell in s reached a terminal state — the
// monotone predicate behind unlinking and head advancement.
func (s *segment[T]) removed() bool { return s.resolved.Load() >= SegSize }

// Queue is the segment-backed synchronous hand-off structure. Pairing is
// FIFO by arrival on each side: the i-th producer transfers to the i-th
// consumer. The two claim counters and the two segment hints are the only
// globally contended words, each padded onto its own cache line.
type Queue[T any] struct {
	putc  atomic.Uint64
	_     [56]byte
	takec atomic.Uint64
	_     [56]byte
	// putSeg/takeSeg are per-side segment hints: the segment of the
	// side's most recent claim. They only move forward; a claimant whose
	// index lies behind its hint restarts the walk from head.
	putSeg  atomic.Pointer[segment[T]]
	_       [56]byte
	takeSeg atomic.Pointer[segment[T]]
	_       [56]byte
	// head is the oldest segment that may still hold a live waiter; the
	// Close eviction sweep starts here, and unlinking advances it.
	head   atomic.Pointer[segment[T]]
	closed atomic.Bool

	// spare is the bounded free list of never-linked spare segments
	// (append-race losers) — see the package comment's recycling rules.
	spare chan *segment[T]

	cal *spin.Calibrator
	m   *metrics.Handle
	f   *fault.Injector

	// parkers is the bounded free list of parkers lent to waiting cells:
	// a nil slot is empty. Slots rather than a channel, because a channel
	// takes its lock on every lend and return, and every parked wait
	// makes both. The pad keeps those writes off the line of the fields
	// above, which every operation reads.
	_       [64]byte
	parkers [parkerCap]atomic.Pointer[park.Parker]
}

// New returns an empty segmented synchronous queue with the given wait
// policy (use the zero WaitConfig for the paper's defaults).
func New[T any](cfg core.WaitConfig) *Queue[T] {
	q := &Queue[T]{
		cal:   spin.NewCalibrator(cfg.Spins),
		m:     cfg.Metrics,
		f:     cfg.Fault,
		spare: make(chan *segment[T], spareCap),
	}
	first := &segment[T]{}
	q.head.Store(first)
	q.putSeg.Store(first)
	q.takeSeg.Store(first)
	return q
}

// Metrics returns the handle the queue records into (nil when
// uninstrumented).
func (q *Queue[T]) Metrics() *metrics.Handle { return q.m }

// ---- segment list maintenance ---------------------------------------------

// getSegment serves a fresh segment for id, preferring the spare list.
// A recycled spare was never linked, so its cells are still zero.
func (q *Queue[T]) getSegment(id uint64) *segment[T] {
	select {
	case s := <-q.spare:
		q.m.Inc(metrics.NodeReuses)
		s.id = id
		return s
	default:
	}
	q.m.Inc(metrics.NodeAllocs)
	return &segment[T]{id: id}
}

// putSpare recycles a segment that lost its append race. Only such
// never-linked segments may enter the free list: their address provably
// reached no other thread, so reuse cannot confuse an id-based walker.
func (q *Queue[T]) putSpare(s *segment[T]) {
	s.prev.Store(nil)
	select {
	case q.spare <- s:
	default:
	}
}

// appendSegment links a successor of t (which must be the current tail)
// and returns the segment now following t, whoever linked it.
func (q *Queue[T]) appendSegment(t *segment[T]) *segment[T] {
	var n *segment[T]
	for {
		if got := t.next.Load(); got != nil {
			if n != nil {
				q.putSpare(n)
			}
			return got
		}
		if n == nil {
			n = q.getSegment(t.id + 1)
			n.prev.Store(t)
		}
		if q.f.FailCAS(fault.SegAppendCAS) || !t.next.CompareAndSwap(nil, n) {
			q.m.Inc(metrics.CASFailEnqueue)
			continue
		}
		// A fully-resolved tail defers its own removal (unlinking needs
		// a successor); the appender that gives it one finishes the job.
		if t.removed() {
			q.unlink(t)
		}
		return n
	}
}

// findSeg returns the segment covering segID, creating tail segments as
// needed, or — when every segment up to segID was already unlinked — the
// first reachable segment past it (the caller then skips its counter
// forward). hint is the calling side's segment hint.
func (q *Queue[T]) findSeg(hint *atomic.Pointer[segment[T]], segID uint64) *segment[T] {
	s := hint.Load()
	if s.id > segID {
		// The hint moved past our segment; it may still be alive
		// (holding our counterpart), so restart from head.
		s = q.head.Load()
		if s.id > segID {
			return s
		}
	}
	for s.id < segID {
		s = q.appendSegment(s)
	}
	for {
		h := hint.Load()
		if h.id >= s.id || hint.CompareAndSwap(h, s) {
			break
		}
	}
	return s
}

// skipTo fast-forwards a side's claim counter past an unlinked run of
// segments (CAS-max, so racing skips and concurrent F&As compose).
func (q *Queue[T]) skipTo(ctr *atomic.Uint64, idx uint64) {
	for {
		c := ctr.Load()
		if c >= idx || ctr.CompareAndSwap(c, idx) {
			return
		}
	}
}

// resolveCell accounts one cell of s reaching a terminal state; the caller
// must be the thread whose CAS made it terminal, so each cell is counted
// exactly once. The counter hitting SegSize triggers the unlink.
func (q *Queue[T]) resolveCell(s *segment[T]) {
	if s.resolved.Add(1) == SegSize {
		q.m.Inc(metrics.SegUnlinks)
		q.unlink(s)
	}
}

// aliveNext returns the first non-removed segment right of s, or the
// physical tail (even if removed) so splices always have a right anchor.
func (s *segment[T]) aliveNext() *segment[T] {
	n := s.next.Load()
	for n != nil && n.removed() {
		nn := n.next.Load()
		if nn == nil {
			break
		}
		n = nn
	}
	return n
}

// alivePrev returns the first non-removed segment left of s, or nil when
// everything to the left is removed (s's successor becomes the new head).
func (s *segment[T]) alivePrev() *segment[T] {
	p := s.prev.Load()
	for p != nil && p.removed() {
		p = p.prev.Load()
	}
	return p
}

// unlink splices the fully-resolved segment s out of the list. The shape
// is the Kotlin-coroutines segment-list remove: link the closest alive
// neighbors around s with plain stores, then revalidate both neighbors
// and retry if either was itself removed mid-splice — all concurrent
// removers' retry loops converge on a list whose alive segments are
// correctly linked. Unlinked segments keep their own next pointer, so a
// stale walker holding one always escapes forward to the live list.
func (q *Queue[T]) unlink(s *segment[T]) {
	if s.next.Load() == nil {
		return // tail-most: the next appender finishes the removal
	}
	for {
		next := s.aliveNext()
		if next == nil {
			return
		}
		prev := s.alivePrev()
		next.prev.Store(prev)
		if prev != nil {
			prev.next.Store(next)
		} else {
			q.advanceHead(next)
		}
		if next.removed() && next.next.Load() != nil {
			continue
		}
		if prev != nil && prev.removed() {
			continue
		}
		return
	}
}

// advanceHead moves head forward to the given leftmost-alive candidate
// (id-guarded, so stale removers never move it backward).
func (q *Queue[T]) advanceHead(to *segment[T]) {
	for {
		h := q.head.Load()
		if h.id >= to.id || q.head.CompareAndSwap(h, to) {
			return
		}
	}
}

// ---- the transfer engine --------------------------------------------------

// transfer is the shared engine behind every public operation: arrive at
// a cell, then — if the operation installed itself — run the commit step
// (see core.Withdrawn) and wait exactly as a reservation's Await does.
func (q *Queue[T]) transfer(isPut bool, v T, deadline time.Time, cancel <-chan struct{}, commit func() bool) (T, Status) {
	v, tk, st := q.arrive(isPut, v, deadline)
	if tk.c == nil {
		return v, st // completed, or refused, at arrival
	}
	if commit != nil && !commit() && tk.withdraw() {
		// Declined; a lost withdrawal leaves the resolution for Await to
		// collect at once.
		return *new(T), core.Withdrawn
	}
	return tk.Await(deadline, cancel)
}

// arrive claims an index and plays its cell through the state machine in
// the package comment until the operation has either completed or
// installed itself; an installed operation gets back the pending
// reservation (tk.c non-nil). A cell found BROKEN (the counterpart
// poisoned it or aborted) sends it round for a fresh index.
func (q *Queue[T]) arrive(isPut bool, v T, deadline time.Time) (T, Ticket[T], Status) {
	t0 := q.m.Start()
	if q.closed.Load() {
		return *new(T), Ticket[T]{}, core.Closed
	}
	ctr, other, hint := q.side(isPut)
	for {
		i := ctr.Add(1) - 1
		s := q.findSeg(hint, i>>segShift)
		if s.id != i>>segShift {
			// Our segment was unlinked before we arrived — every cell
			// in it was already terminal — so skip the whole dead run.
			q.m.Inc(metrics.CleanSweeps)
			q.skipTo(ctr, s.id<<segShift)
			continue
		}
		if v2, tk, st, ok := q.arriveAt(s, s.at(i), i, isPut, v, deadline, t0, other); ok {
			return v2, tk, st
		}
	}
}

func (q *Queue[T]) side(isPut bool) (ctr, other *atomic.Uint64, hint *atomic.Pointer[segment[T]]) {
	if isPut {
		return &q.putc, &q.takec, &q.putSeg
	}
	return &q.takec, &q.putc, &q.takeSeg
}

// arriveAt resolves this operation's claimed cell i. The wait-vs-poison
// decision at an EMPTY cell is attempt-first: expired patience (a zero
// deadline never expires) poisons only when no counterpart has committed
// an index ≥ ours (other ≤ i); a committed counterpart is on its way to
// this very cell, so even a zero-patience operation installs, and the
// wait's spin budget is that counterpart's window to arrive. ok is false
// only for the BROKEN-on-arrival case, which retries with a fresh index.
func (q *Queue[T]) arriveAt(s *segment[T], c *cell[T], i uint64, isPut bool, v T, deadline time.Time, t0 int64, other *atomic.Uint64) (T, Ticket[T], Status, bool) {
	var zero T
	for {
		switch st := c.state.Load(); st {
		case cEmpty:
			expired := !deadline.IsZero() && !time.Now().Before(deadline)
			if expired && other.Load() <= i {
				// No committed counterpart: poison the cell so a later
				// counterpart claim skips it, and report the miss.
				if q.f.FailCAS(fault.SegInstallCAS) || !c.state.CompareAndSwap(cEmpty, cBroken) {
					q.m.Inc(metrics.CASFailEnqueue)
					continue
				}
				q.resolveCell(s)
				q.m.Inc(metrics.Timeouts)
				q.m.Since(metrics.WastedNs, t0)
				return zero, Ticket[T]{}, core.Timeout, true
			}
			// Install: value first — the counterpart reads it after
			// acquiring our state CAS.
			installed := cWaiter
			if isPut {
				c.v = v
				installed = cItem
			}
			q.f.Preempt(fault.SegCloseRacePause)
			if q.f.FailCAS(fault.SegInstallCAS) || !c.state.CompareAndSwap(cEmpty, installed) {
				q.m.Inc(metrics.CASFailEnqueue)
				continue
			}
			if q.closed.Load() && c.state.CompareAndSwap(installed, cClosed) {
				// Close may have swept past this cell before our install
				// was visible; only we can evict it now. The wait reports
				// the eviction.
				q.resolveCell(s)
				if isPut {
					c.v = zero
				}
			}
			return zero, Ticket[T]{q: q, s: s, c: c, i: i, installed: installed, isPut: isPut, t0: t0}, core.OK, true

		case cItem:
			// A producer deposited and waits: claim the cell, then read
			// the value (safe after winning the CAS — the aborter lost).
			if isPut {
				panic("segq: producer cell claimed twice")
			}
			if q.f.FailCAS(fault.SegResolveCAS) || !c.state.CompareAndSwap(cItem, cDone) {
				q.m.Inc(metrics.CASFailFulfill)
				continue
			}
			q.resolveCell(s)
			val := c.v
			c.v = zero
			q.m.Inc(metrics.Fulfillments)
			q.f.Preempt(fault.SegResolvePause)
			c.wake()
			q.m.Since(metrics.HandoffNs, t0)
			return val, Ticket[T]{}, core.OK, true

		case cWaiter:
			// A consumer waits: deposit, publish with the CAS, unpark.
			if !isPut {
				panic("segq: consumer cell claimed twice")
			}
			c.v = v
			if q.f.FailCAS(fault.SegResolveCAS) || !c.state.CompareAndSwap(cWaiter, cDone) {
				q.m.Inc(metrics.CASFailFulfill)
				// If the waiter aborted (or Close evicted it) between
				// our deposit and the CAS, reclaim the orphaned copy —
				// nobody will read a dead cell's value.
				if st := c.state.Load(); st == cBroken || st == cClosed {
					c.v = zero
				}
				continue
			}
			q.resolveCell(s)
			q.m.Inc(metrics.Fulfillments)
			q.f.Preempt(fault.SegResolvePause)
			c.wake()
			q.m.Since(metrics.HandoffNs, t0)
			return zero, Ticket[T]{}, core.OK, true

		case cBroken:
			return zero, Ticket[T]{}, core.Timeout, false

		case cDone:
			panic("segq: cell resolved twice")

		default: // cClosed
			q.m.Since(metrics.WastedNs, t0)
			return zero, Ticket[T]{}, core.Closed, true
		}
	}
}

// cellWait is an installed cell's wait as park.Await drives it: the cell
// is pending while it holds the installed state; the counterpart resolves
// it DONE, the installer's own abort BROKEN, and Close CLOSED.
type cellWait[T any] struct {
	q         *Queue[T]
	s         *segment[T]
	c         *cell[T]
	installed uint32
	// committed records whether the counterpart had committed an index
	// past ours when the wait began (see Ticket.Await).
	committed bool
}

func (w cellWait[T]) Settled() park.Outcome {
	switch w.c.state.Load() {
	case w.installed:
		return park.Pending
	case cDone:
		return park.Fulfilled
	case cBroken:
		return park.Aborted // only the installer breaks its own cell
	}
	return park.Evicted
}

func (w cellWait[T]) Abort() bool {
	if !w.c.state.CompareAndSwap(w.installed, cBroken) {
		return false
	}
	w.q.resolveCell(w.s)
	return true
}

func (w cellWait[T]) SpinOK() bool { return w.committed }

// Arm publishes a lent parker in the cell. park.Await re-reads Settled
// before it first blocks, and every resolver CASes the state before it
// loads w (cell.wake): with sequentially consistent atomics, either the
// resolver sees the parker and unparks it, or the waiter sees the
// terminal state and never blocks — the Dekker step the dual queue's
// waiter field relies on too. Ticket.Await returns the parker.
func (w cellWait[T]) Arm() *park.Parker {
	p := w.q.lend()
	w.c.w.Store(p)
	return p
}

// lend hands a waiter a parker for its slow path, preferring the free
// list. A parker is prepared with the queue's metrics and fault injector
// once, when it is created, and never re-initialized: a late Unpark from a
// previous borrower's resolver may still reach it, and re-initializing
// would race that Unpark. The stray permit such an Unpark leaves costs the
// next borrower one spurious wake-up, which park.Await re-validates like
// any other.
func (q *Queue[T]) lend() *park.Parker {
	for i := range q.parkers {
		if p := q.parkers[i].Load(); p != nil && q.parkers[i].CompareAndSwap(p, nil) {
			return p
		}
	}
	return park.NewFaulty(q.m, q.f)
}

// giveBack returns a lent parker to the free list once its borrower's wait
// is over, dropping it when the list is full.
func (q *Queue[T]) giveBack(p *park.Parker) {
	for i := range q.parkers {
		if q.parkers[i].Load() == nil && q.parkers[i].CompareAndSwap(nil, p) {
			return
		}
	}
}

// wake unparks the cell's waiter, if it has published a parker. The
// caller must have made the cell terminal with its own CAS first (see
// cellWait.Arm); a waiter that has not armed yet will see that state
// before it blocks.
func (c *cell[T]) wake() {
	if p := c.w.Load(); p != nil {
		p.Unpark()
	}
}

// ---- public operation surface ---------------------------------------------

// Status re-exports core.Status for readers of this package's signatures.
type Status = core.Status

// Put transfers v to a consumer, waiting as long as necessary; it panics
// if the queue is closed (the analogue of sending on a closed channel).
func (q *Queue[T]) Put(v T) {
	if _, st := q.transfer(true, v, time.Time{}, nil, nil); st == core.Closed {
		panic(errClosedDemand)
	}
}

// Take receives a value from a producer, waiting as long as necessary; it
// panics if the queue is closed.
func (q *Queue[T]) Take() T {
	v, st := q.transfer(false, *new(T), time.Time{}, nil, nil)
	if st == core.Closed {
		panic(errClosedDemand)
	}
	return v
}

// PutDeadline transfers v, waiting until the deadline (zero: forever) or
// until cancel fires (nil: never).
func (q *Queue[T]) PutDeadline(v T, deadline time.Time, cancel <-chan struct{}) Status {
	_, st := q.transfer(true, v, deadline, cancel, nil)
	return st
}

// TakeDeadline receives a value, waiting until the deadline (zero:
// forever) or until cancel fires (nil: never).
func (q *Queue[T]) TakeDeadline(deadline time.Time, cancel <-chan struct{}) (T, Status) {
	return q.transfer(false, *new(T), deadline, cancel, nil)
}

// PutCommit is PutDeadline with a commit step run once the producer has
// installed its cell (see core.Withdrawn).
func (q *Queue[T]) PutCommit(v T, deadline time.Time, cancel <-chan struct{}, commit func() bool) Status {
	_, st := q.transfer(true, v, deadline, cancel, commit)
	return st
}

// TakeCommit is TakeDeadline with a commit step run once the consumer has
// installed its cell (see core.Withdrawn).
func (q *Queue[T]) TakeCommit(deadline time.Time, cancel <-chan struct{}, commit func() bool) (T, Status) {
	return q.transfer(false, *new(T), deadline, cancel, commit)
}

// Offer transfers v only if a consumer already committed to this hand-off;
// it never blocks beyond a bounded spin.
func (q *Queue[T]) Offer(v T) bool {
	_, st := q.transfer(true, v, core.DeadlineFor(0), nil, nil)
	return st == core.OK
}

// OfferTimeout transfers v, waiting up to d for a consumer.
func (q *Queue[T]) OfferTimeout(v T, d time.Duration) bool {
	_, st := q.transfer(true, v, core.DeadlineFor(d), nil, nil)
	return st == core.OK
}

// Poll receives a value only if a producer already committed to this
// hand-off; it never blocks beyond a bounded spin.
func (q *Queue[T]) Poll() (T, bool) {
	v, st := q.transfer(false, *new(T), core.DeadlineFor(0), nil, nil)
	return v, st == core.OK
}

// PollTimeout receives a value, waiting up to d for a producer.
func (q *Queue[T]) PollTimeout(d time.Duration) (T, bool) {
	v, st := q.transfer(false, *new(T), core.DeadlineFor(d), nil, nil)
	return v, st == core.OK
}

// scan walks the reachable segments looking for a cell in the given
// state. It is a racy snapshot for monitoring, like the other cores'
// observe helpers.
func (q *Queue[T]) scan(want uint32) bool {
	for s := q.head.Load(); s != nil; s = s.next.Load() {
		for j := range s.cells {
			if s.cells[j].state.Load() == want {
				return true
			}
		}
	}
	return false
}

// HasWaitingProducer reports whether a producer is installed and waiting.
func (q *Queue[T]) HasWaitingProducer() bool { return q.scan(cItem) }

// HasWaitingConsumer reports whether a consumer is installed and waiting.
func (q *Queue[T]) HasWaitingConsumer() bool { return q.scan(cWaiter) }

// IsEmpty reports whether no operation is installed and waiting.
func (q *Queue[T]) IsEmpty() bool { return !q.scan(cItem) && !q.scan(cWaiter) }

// Len returns the number of installed, still-waiting operations (both
// sides), as a racy snapshot.
func (q *Queue[T]) Len() int {
	n := 0
	for s := q.head.Load(); s != nil; s = s.next.Load() {
		for j := range s.cells {
			if st := s.cells[j].state.Load(); st == cItem || st == cWaiter {
				n++
			}
		}
	}
	return n
}

// LiveSegments counts the segments still reachable from head — the
// retained-memory figure the leak tests bound. Unlinked segments drop out
// of this walk the moment head passes them.
func (q *Queue[T]) LiveSegments() int {
	n := 0
	for s := q.head.Load(); s != nil; s = s.next.Load() {
		n++
	}
	return n
}

// Close shuts the queue down: new arrivals are refused with the Closed
// status (demand operations panic), and every installed waiter is evicted
// with a CLOSED cell and woken. The closed flag is published before the
// eviction sweep, so an installer racing the sweep detects the close on
// its post-install re-check and evicts itself — the sweep can never
// strand a waiter. Close is idempotent and safe to call concurrently.
func (q *Queue[T]) Close() {
	q.closed.Store(true)
	for s := q.head.Load(); s != nil; s = s.next.Load() {
		for j := range s.cells {
			c := &s.cells[j]
			for {
				st := c.state.Load()
				if st != cItem && st != cWaiter {
					break
				}
				if c.state.CompareAndSwap(st, cClosed) {
					q.resolveCell(s)
					c.wake()
					break
				}
			}
		}
	}
}

// Closed reports whether Close has been called.
func (q *Queue[T]) Closed() bool { return q.closed.Load() }
