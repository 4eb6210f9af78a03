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
// A cell is one 32-bit state word, and a segment keeps its cells' words
// and values in two arrays: 64 state words fill four cache lines, and 64
// word-sized values eight, so a segment of 64 cells is one 832-byte
// allocation (a one-line header, 256 bytes of states, 512 of values). A
// pointerful object larger than 512 bytes carries Go's 8-byte malloc
// header, which puts it in the allocator's 896-byte size class: 14 bytes
// per transfer. To keep neighboring claimants off each other's lines, the
// segment stores logical cell j's state word in slot (j&3)<<4 | j>>2 and
// its value in slot (j&7)<<3 | j>>3 (SCQ's cache remap, once per array):
// consecutive indexes always land on different lines, and the state words
// that share a line are four claims apart, the values eight. A hand-off
// touches one state line and one value line.
//
// # Cell state machine
//
// Every cell resolves through a CQS-style single-word state machine. The
// word's top two bits give its kind and its low 30 bits the index+1 of
// the parker an installed waiter has armed (0: none yet):
//
//	          ┌── producer installs ──▶ ITEM ──┬─ consumer claims ──▶ DONE
//	          │                                └─ producer aborts ──▶ BROKEN
//	EMPTY ────┼── consumer installs ──▶ WAITER ┬─ producer fulfills ▶ DONE
//	          │                                └─ consumer aborts ──▶ BROKEN
//	          ├── zero-patience poison ───────────────────────────▶ BROKEN
//	          └ (Close evicts installed cells: ITEM/WAITER ───────▶ CLOSED)
//
// EMPTY is the zero word, so fresh segments need no initialization. ITEM
// and WAITER may carry a parker index. DONE, BROKEN, and CLOSED are
// terminal: words of a fourth kind that carry no index. The first arrival
// installs itself (depositing its value first, for the producer) and waits
// spin-then-park; the second arrival resolves the cell with a single CAS
// from the word it loaded to DONE, and then unparks the parker that word
// named. A cell carries no parker of its own: a waiter whose spin phase
// ends borrows one from the queue's park.Table and arms it with one CAS,
// from its bare installed word to the same kind with the index (see
// park.Waiter.Arm). The two CASes order every race: an arm that loses
// finds the cell resolved, and Await's re-check returns without blocking;
// a resolution that comes after the arm replaces the armed word, so the
// resolver wakes the index it replaced. A waiter that never parks never
// touches a parker at all. An aborting waiter (timeout, cancel) CASes its
// own installed word, armed or not, to BROKEN — exactly one of {resolver,
// aborter} wins, which is the linearization the paper's timed operations
// need. A party that arrives at an already-BROKEN cell (its counterpart
// poisoned or aborted first) takes a fresh index and retries.
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
// one-segment spare slot recycles only a never-linked spare: a segment
// that lost the tail-append race before becoming reachable.
package segq

import (
	"sync/atomic"
	"time"

	"synchq/internal/core"
	"synchq/internal/fault"
	"synchq/internal/lend"
	"synchq/internal/metrics"
	"synchq/internal/park"
	"synchq/internal/spin"
)

const (
	segShift = 6
	// SegSize is the number of hand-off cells per segment. Sixty-four
	// makes a segment 832 bytes for word-sized payloads (a one-line
	// header, sixty-four 4-byte state words and sixty-four values; see
	// "Cell layout"), which with its malloc header fits the 896-byte size
	// class — big enough to amortize allocation and small enough that a
	// cancellation storm's partially-broken tail segment wastes little.
	// Batch runs are sized separately (runMax in batch.go).
	SegSize = 1 << segShift
	segMask = SegSize - 1
)

// Cell words (see "Cell state machine"): the top two bits are the kind,
// the low 30 bits an installed waiter's parker index+1. EMPTY must be
// zero: fresh segments are zeroed allocations.
const (
	kindShift        = 30
	idxMask          = 1<<kindShift - 1
	cEmpty    uint32 = 0
	cItem     uint32 = 1 << kindShift
	cWaiter   uint32 = 2 << kindShift
	// cTerm is the terminal kind; its words carry no index.
	cTerm   uint32 = 3 << kindShift
	cDone          = cTerm | 1
	cBroken        = cTerm | 2
	cClosed        = cTerm | 3
)

// Every index+1 a parker table issues fits a word's index bits: a table
// that could issue more fails to compile here instead of corrupting kinds.
const _ uint32 = idxMask - (lend.MaxIndex + 1)

// kind returns the kind bits of cell word w.
func kind(w uint32) uint32 { return w &^ idxMask }

// parkerOf returns the parker a resolved cell's previous word w names,
// index+1 (0: none), for park.Table.Wake: every resolver wakes the waiter
// armed in the very word its CAS replaced.
func parkerOf(w uint32) uint32 { return w & idxMask }

// errClosedDemand matches the core package's closed-demand panic text so
// every closed-queue panic reads the same regardless of core.
const errClosedDemand = "synchq: queue closed"

// The remap of "Cell layout": 16 state words and (for word-sized
// payloads) 8 values share a cache line, so the states fill 1<<stateLog
// lines and the values 1<<valLog.
const (
	stateLog = segShift - 4
	valLog   = segShift - 3
)

// segment is one fixed-size block of the infinite cell array: the state
// words of its cells in one array and their values in another. The header
// is padded to a cache line so the resolved counter's contended Add does
// not false-share with the state words.
type segment[T any] struct {
	id       uint64
	next     atomic.Pointer[segment[T]]
	prev     atomic.Pointer[segment[T]]
	resolved atomic.Int32
	_        [64 - 3*8 - 4]byte
	states   [SegSize]atomic.Uint32
	vals     [SegSize]T
}

// at returns the state word of the cell for claim index i. Logical cell j
// has state slot (j&3)<<4 | j>>2: slots 16k to 16k+15 share a line and
// hold cells k, k+4, k+8, …, so consecutive claimants never touch the
// same line.
func (s *segment[T]) at(i uint64) *atomic.Uint32 {
	j := i & segMask
	return &s.states[(j&(1<<stateLog-1))<<(segShift-stateLog)|j>>stateLog]
}

// val returns the value slot of the cell for claim index i: value slot
// (j&7)<<3 | j>>3, so the values sharing a line are eight claims apart.
func (s *segment[T]) val(i uint64) *T {
	j := i & segMask
	return &s.vals[(j&(1<<valLog-1))<<(segShift-valLog)|j>>valLog]
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

	// spare holds one never-linked segment, an append-race loser — see the
	// package comment's recycling rules.
	spare atomic.Pointer[segment[T]]

	m *metrics.Handle
	f *fault.Injector
	// pol is every wait's policy: its calibrator sets the spin budget
	// (WaitConfig.Spins), and it lends from parkers.
	pol park.Policy
	// parkers lends waiting cells their parkers (see park.Table).
	parkers park.Table
}

var _ core.Handoff[int] = (*Queue[int])(nil)

// New returns an empty segmented synchronous queue with the given wait
// policy (use the zero WaitConfig for the paper's defaults).
func New[T any](cfg core.WaitConfig) *Queue[T] {
	q := &Queue[T]{m: cfg.Metrics, f: cfg.Fault, parkers: park.Table{M: cfg.Metrics, F: cfg.Fault}}
	q.pol = park.Policy{Cal: spin.NewCalibrator(cfg.Spins), M: cfg.Metrics, Parkers: &q.parkers, Grace: true}
	// A producer's first batch parks at the bottom of a deep call chain,
	// which a fresh goroutine runs on its small starting stack; an
	// allocation down there can force a copy of that stack. The parkers'
	// first chunk and the first parker's notifier are built here instead.
	// The first segment holds a fresh queue's first round of batches, so
	// the first append comes later, off that chain.
	q.parkers.Reserve()
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

// getSegment serves a fresh segment for id, preferring the spare. A
// spare was never linked, so its cells are still zero.
func (q *Queue[T]) getSegment(id uint64) *segment[T] {
	if q.spare.Load() != nil { // writes the shared slot only when a spare is there
		if s := q.spare.Swap(nil); s != nil {
			q.m.Inc(metrics.NodeReuses)
			s.id = id
			return s
		}
	}
	q.m.Inc(metrics.NodeAllocs)
	return &segment[T]{id: id}
}

// putSpare recycles a segment that lost its append race, replacing any
// spare already there. Only such never-linked segments may enter the
// slot: their address provably reached no other thread, so reuse cannot
// confuse an id-based walker.
func (q *Queue[T]) putSpare(s *segment[T]) {
	s.prev.Store(nil)
	q.spare.Store(s)
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
// exactly once. The counter hitting SegSize triggers the unlink. It
// inlines, so the unlink runs a frame shallower: a batch fill resolves
// cells on a fresh goroutine's small starting stack.
func (q *Queue[T]) resolveCell(s *segment[T]) {
	if s.resolved.Add(1) == SegSize {
		q.unlinkResolved(s)
	}
}

// unlinkResolved counts and unlinks a segment whose last cell resolved.
func (q *Queue[T]) unlinkResolved(s *segment[T]) {
	q.m.Inc(metrics.SegUnlinks)
	q.unlink(s)
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

// never is the zero deadline, for the callers of arrive that have no
// deadline of their own to point at. Nothing writes it.
var never time.Time

// transfer is the shared engine behind every public operation: arrive at
// a cell, then — if the operation installed itself — run the commit step
// (see core.Withdrawn) and wait exactly as a reservation's Await does.
func (q *Queue[T]) transfer(isPut bool, v T, deadline time.Time, cancel <-chan struct{}, commit func() bool) (T, Status) {
	tk := Ticket[T]{q: q, isPut: isPut}
	v, st, w := tk.arrive(v, &deadline, true)
	if tk.c == nil {
		q.parkers.Wake(w)
		return v, st // completed, or refused, at arrival
	}
	if commit != nil && !commit() && tk.withdraw() {
		// Declined; a lost withdrawal leaves the resolution for Await to
		// collect at once.
		return *new(T), core.Withdrawn
	}
	return tk.Await(deadline, cancel)
}

// claim takes the next index of t's side into t.i, with its segment in
// t.s. An index whose segment was unlinked before we arrived — every cell
// in it was already terminal — is skipped with the whole dead run.
func (q *Queue[T]) claim(t *Ticket[T]) {
	ctr, hint := &q.putc, &q.putSeg
	if !t.isPut {
		ctr, hint = &q.takec, &q.takeSeg
	}
	for {
		t.i = ctr.Add(1) - 1
		if t.s = q.findSeg(hint, t.i>>segShift); t.s.id == t.i>>segShift {
			return
		}
		q.m.Inc(metrics.CleanSweeps)
		q.skipTo(ctr, t.s.id<<segShift)
	}
}

// other returns the claim counter of the side opposite isPut's.
func (q *Queue[T]) other(isPut bool) *atomic.Uint64 {
	if isPut {
		return &q.takec
	}
	return &q.putc
}

// arrive plays the arrival t describes — t.q's side t.isPut, with value v
// for a put — through the state machine in the package comment until it
// has either completed or installed itself. With claim set it stamps the
// arrival and claims its own index; otherwise it resolves cell t.i of
// segment t.s, which a batch fill claimed. An installed arrival fills in t,
// its pending reservation (t.c non-nil). An arrival that completes at a
// waiting counterpart's cell returns w, the parker index+1 the waiter had
// armed in the word its resolving CAS replaced (0: none): the caller
// wakes it (park.Table.Wake) once arrive has returned, so the wake-up's
// runtime frames stack on the caller's frame, not on this deeper one — a
// fresh goroutine's first hand-off runs on its small starting stack. For
// the same reason the arrival travels as one pointer, and the deadline as
// another.
//
// The wait-vs-poison decision at an EMPTY cell is attempt-first: expired
// patience (a zero deadline never expires) poisons only when no
// counterpart has committed an index ≥ ours; a committed counterpart is on
// its way to this very cell, so even a zero-patience operation installs,
// and the wait's spin budget is that counterpart's window to arrive. A
// cell found BROKEN (the counterpart poisoned it or aborted) sends an
// arrival that claims its own index round for a fresh one; at a given
// cell it reports Timeout, a dead index.
func (t *Ticket[T]) arrive(v T, deadline *time.Time, claim bool) (_ T, _ Status, w uint32) {
	var zero T
	q := t.q
	t.c = nil
	if claim {
		t.t0 = q.m.Start()
		if q.closed.Load() {
			return zero, core.Closed, 0
		}
		q.claim(t)
	}
	s, i, c := t.s, t.i, t.s.at(t.i)
	for {
		st := c.Load()
		switch kind(st) {
		case cEmpty:
			expired := !deadline.IsZero() && !time.Now().Before(*deadline)
			if expired && q.other(t.isPut).Load() <= i {
				// No committed counterpart: poison the cell so a later
				// counterpart claim skips it, and report the miss.
				if q.f.FailCAS(fault.SegInstallCAS) || !c.CompareAndSwap(cEmpty, cBroken) {
					q.m.Inc(metrics.CASFailEnqueue)
					continue
				}
				q.resolveCell(s)
				q.m.Inc(metrics.Timeouts)
				q.m.Since(metrics.WastedNs, t.t0)
				return zero, core.Timeout, 0
			}
			// Install: value first — the counterpart reads it after
			// acquiring our state CAS.
			installed := cWaiter
			if t.isPut {
				*s.val(i) = v
				installed = cItem
			}
			q.f.Preempt(fault.SegCloseRacePause)
			if q.f.FailCAS(fault.SegInstallCAS) || !c.CompareAndSwap(cEmpty, installed) {
				q.m.Inc(metrics.CASFailEnqueue)
				continue
			}
			if q.closed.Load() && c.CompareAndSwap(installed, cClosed) {
				// Close may have swept past this cell before our install
				// was visible; only we can evict it now. The wait reports
				// the eviction.
				q.resolveCell(s)
				if t.isPut {
					*s.val(i) = zero
				}
			}
			t.c, t.installed, t.done = c, installed, false
			return zero, core.OK, 0

		case cItem:
			// A producer deposited and waits: claim the cell, then read
			// the value (safe after winning the CAS — the aborter lost).
			if t.isPut {
				panic("segq: producer cell claimed twice")
			}
			if q.f.FailCAS(fault.SegResolveCAS) || !c.CompareAndSwap(st, cDone) {
				q.m.Inc(metrics.CASFailFulfill)
				continue
			}
			q.resolveCell(s)
			p := s.val(i)
			val := *p
			*p = zero
			q.m.Inc(metrics.Fulfillments)
			q.f.Preempt(fault.SegResolvePause)
			q.m.Since(metrics.HandoffNs, t.t0)
			return val, core.OK, parkerOf(st)

		case cWaiter:
			// A consumer waits: deposit, publish with the CAS. The
			// injector is asked before the deposit, so the value slot's
			// address is not held across its call, which would take a
			// word of this frame (see "Stack budget" in DESIGN.md).
			if !t.isPut {
				panic("segq: consumer cell claimed twice")
			}
			if q.f.FailCAS(fault.SegResolveCAS) {
				q.m.Inc(metrics.CASFailFulfill)
				continue
			}
			if *s.val(i) = v; !c.CompareAndSwap(st, cDone) {
				// If the waiter aborted (or Close evicted it) between
				// our deposit and the CAS, reclaim the orphaned copy —
				// nobody will read a dead cell's value.
				if st := c.Load(); st == cBroken || st == cClosed {
					*s.val(i) = zero
				}
				q.m.Inc(metrics.CASFailFulfill)
				continue
			}
			q.resolveCell(s)
			q.m.Inc(metrics.Fulfillments)
			q.f.Preempt(fault.SegResolvePause)
			q.m.Since(metrics.HandoffNs, t.t0)
			return zero, core.OK, parkerOf(st)
		}
		switch st {
		case cBroken:
			if !claim {
				return zero, core.Timeout, 0
			}
			q.claim(t)
			s, i, c = t.s, t.i, t.s.at(t.i)

		case cDone:
			panic("segq: cell resolved twice")

		default: // cClosed
			q.m.Since(metrics.WastedNs, t.t0)
			return zero, core.Closed, 0
		}
	}
}

// cellWait is an installed cell's wait as park.Await drives it: the cell
// is pending while its word holds the installed kind, armed or not; the
// counterpart resolves it DONE, the installer's own abort BROKEN, and
// Close CLOSED. Abort only CASes: a wait that ends Aborted leaves the cell
// for its installer to account (resolveCell), so the waiter needs neither
// the queue nor the segment. Two words keep small every frame that calls
// park.Await, where the waiter and Await's other arguments are spilled — a
// first park runs on a fresh goroutine's small starting stack.
type cellWait struct {
	c *atomic.Uint32
	// mode is the installed kind, cItem or cWaiter, with waitSpin set
	// when the counterpart had committed an index past ours as the wait
	// began (see Ticket.Await).
	mode uint32
}

// waitSpin is cellWait.mode's spin grant, in the index bits a kind leaves
// clear.
const waitSpin = 1

// waitMode returns the cellWait mode of a wait on installed state
// installed at index i, whose counterpart side has committed other
// indexes.
func waitMode(installed uint32, i, other uint64) uint32 {
	if other > i {
		return installed | waitSpin
	}
	return installed
}

func (w cellWait) Settled() park.Outcome {
	switch st := w.c.Load(); {
	case kind(st) == w.mode&^waitSpin:
		return park.Pending
	case st == cDone:
		return park.Fulfilled
	case st == cBroken:
		return park.Aborted // only the installer breaks its own cell
	}
	return park.Evicted
}

// Abort breaks the cell from whatever installed word it holds: only the
// waiter itself arms it, so a lost CAS means a resolver or Close won.
func (w cellWait) Abort() bool {
	st := w.c.Load()
	return kind(st) == w.mode&^waitSpin && w.c.CompareAndSwap(st, cBroken)
}

func (w cellWait) SpinOK() bool { return w.mode&waitSpin != 0 }

// Arm packs the lent parker's index+1 into the bare installed word. The
// CAS loses only to a resolution or Close, whose word Await's re-check
// then sees; a blind store would overwrite that resolution.
func (w cellWait) Arm(idx uint32) {
	installed := w.mode &^ waitSpin
	w.c.CompareAndSwap(installed, installed|(idx+1))
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

// scan walks the reachable segments looking for a cell in the given
// state. It is a racy snapshot for monitoring, like the other cores'
// observe helpers.
func (q *Queue[T]) scan(want uint32) bool {
	for s := q.head.Load(); s != nil; s = s.next.Load() {
		for j := range s.states {
			if kind(s.states[j].Load()) == want {
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

// Len returns the number of installed, still-waiting operations (both
// sides), as a racy snapshot.
func (q *Queue[T]) Len() int {
	n := 0
	for s := q.head.Load(); s != nil; s = s.next.Load() {
		for j := range s.states {
			if k := kind(s.states[j].Load()); k == cItem || k == cWaiter {
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
		for j := range s.states {
			c := &s.states[j]
			for {
				st := c.Load()
				if k := kind(st); k != cItem && k != cWaiter {
					break
				}
				if c.CompareAndSwap(st, cClosed) {
					q.resolveCell(s)
					q.parkers.Wake(parkerOf(st))
					break
				}
			}
		}
	}
}

// Closed reports whether Close has been called.
func (q *Queue[T]) Closed() bool { return q.closed.Load() }
