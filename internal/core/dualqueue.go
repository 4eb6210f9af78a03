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

// qnode is a node of the synchronous dual queue. The list holds either data
// nodes (isData true, item initially non-nil) or reservation nodes (isData
// false, item initially nil), never both at once; the node at head is always
// a retired dummy.
//
// Fulfillment, cancellation, and close are all CASes on item:
//
//	data node:    item: &v ──taken──▶ nil        or ──canceled/closed──▶ sentinel
//	request node: item: nil ──filled──▶ &v       or ──canceled/closed──▶ sentinel
//
// wp is the waiter's embedded parker: the waiter initializes it in place and
// publishes it through the waiter word, so the steady park/unpark handshake
// allocates nothing beyond the node itself. A node that has been linked into
// the list is reclaimed only by the garbage collector — never pooled — because
// stale traversers (losing fulfillers, helpers, cleaners, the close sweep)
// may still hold its address for head/next CASes, and address reuse would
// reintroduce exactly the ABA those CASes rely on pointer identity to avoid
// (see DESIGN.md "Node and parker lifecycle").
type qnode[T any] struct {
	next   atomic.Pointer[qnode[T]]
	item   atomic.Pointer[qitem[T]]
	waiter atomic.Pointer[park.Parker]
	wp     park.Parker
	isData bool
	// async marks a data node deposited without a waiting producer (the
	// TransferQueue extension). Close leaves async nodes in place so
	// already-accepted data can still be drained.
	async bool
}

// qitem boxes a transferred value. The pooled flag doubles as the padding
// byte that guarantees every allocation a unique address even when T is
// zero-sized (new(struct{}) aliases a single runtime address), so pointer
// identity against the queue's cancellation sentinel is always meaningful.
//
// Boxes with pooled set circulate through the queue's item pool: unlike the
// nodes, an item box is ABA-safe to recycle because item words only ever
// move away from a box, never back to it (nil→&v→sentinel for requests,
// &v→nil→sentinel for data), and only the single receiver that won the CAS
// dereferences it. The sentinels and any caller-visible boxes are created
// without the flag and are never pooled.
type qitem[T any] struct {
	v      T
	pooled bool
}

// DualQueue is the paper's fair synchronous queue: a nonblocking,
// contention-free dual queue derived from the Michael & Scott queue, in
// which producers and consumers pair up in strict FIFO order. Use
// NewDualQueue to create one; a DualQueue must not be copied after first
// use.
type DualQueue[T any] struct {
	// head, tail, and cleanMe each own a cache line: consumers CAS head,
	// producers CAS tail, and cancellation sweeps CAS cleanMe, so sharing
	// a line would make every advance on one end invalidate the other —
	// and the read-mostly sentinels below it.
	head atomic.Pointer[qnode[T]]
	_    [56]byte
	tail atomic.Pointer[qnode[T]]
	_    [56]byte
	// cleanMe is the predecessor of the last canceled node that could not
	// be unlinked immediately because it was the tail (the paper's — and
	// Java 6's — lazy cleaning strategy).
	cleanMe atomic.Pointer[qnode[T]]
	_       [56]byte
	// canceled is this queue's cancellation sentinel: a canceled node's
	// item points here. It stands in for the JDK's "item == this"
	// self-marker, which Go's typed atomics cannot express.
	canceled *qitem[T]
	// closedSent is the shutdown sentinel: a waiter whose node's item is
	// swung here was evicted by Close and reports the Closed status
	// (distinct from canceled so close-time wakeups are not mistaken for
	// timeouts or cancellations).
	closedSent *qitem[T]
	// closed is set by Close; the enqueue arm of engage refuses to add
	// waiters once it is set.
	closed atomic.Bool

	// ipool recycles pooled item boxes (see qitem); npool recycles spare
	// nodes that lost their insertion race and were never linked — the
	// only nodes whose address provably reached no other thread.
	ipool sync.Pool
	npool sync.Pool

	// cal sets every wait's spin budget (WaitConfig.Spins).
	cal *spin.Calibrator
	// m receives the instrumentation counters; nil disables them.
	m *metrics.Handle
	// f injects deterministic faults at the labeled sites; nil disables.
	f *fault.Injector
}

// NewDualQueue returns an empty fair synchronous queue with the given wait
// policy (use the zero WaitConfig for the paper's defaults).
func NewDualQueue[T any](cfg WaitConfig) *DualQueue[T] {
	q := &DualQueue[T]{canceled: new(qitem[T]), closedSent: new(qitem[T]), cal: spin.NewCalibrator(cfg.Spins), m: cfg.Metrics, f: cfg.Fault}
	dummy := &qnode[T]{}
	q.head.Store(dummy)
	q.tail.Store(dummy)
	return q
}

// Metrics returns the queue's instrumentation handle (nil when disabled).
func (q *DualQueue[T]) Metrics() *metrics.Handle { return q.m }

// getBox returns an item box holding v, recycled from the item pool when
// possible.
func (q *DualQueue[T]) getBox(v T) *qitem[T] {
	if x, _ := q.ipool.Get().(*qitem[T]); x != nil {
		q.m.Inc(metrics.NodeReuses)
		x.v = v
		return x
	}
	q.m.Inc(metrics.NodeAllocs)
	return &qitem[T]{v: v, pooled: true}
}

// putBox recycles an item box whose value has been consumed (or never
// transferred). Only boxes the queue itself issued are pooled — the pooled
// flag excludes the sentinels and embedded or caller-built boxes — and the
// value is scrubbed first so the pool never retains user data.
func (q *DualQueue[T]) putBox(x *qitem[T]) {
	if x == nil || !x.pooled {
		return
	}
	var zero T
	x.v = zero
	q.ipool.Put(x)
}

// getNode returns a fresh or recycled waiting node. Pooled nodes are spares
// that were never linked (see putSpare), so their parker and link words are
// pristine.
func (q *DualQueue[T]) getNode(isData, async bool) *qnode[T] {
	if n, _ := q.npool.Get().(*qnode[T]); n != nil {
		q.m.Inc(metrics.NodeReuses)
		n.isData, n.async = isData, async
		return n
	}
	q.m.Inc(metrics.NodeAllocs)
	return &qnode[T]{isData: isData, async: async}
}

// putSpare recycles a node that was NEVER linked into the list — the
// engage loop built it, then completed through the fulfill arm instead.
// Such a node's address was never published (the insertion CAS that would
// have published it failed), so no other thread can hold a stale pointer
// to it and reuse is ABA-free; linked nodes must never come here. The item
// word is scrubbed so the pool retains no reference to a value box.
func (q *DualQueue[T]) putSpare(s *qnode[T]) {
	s.item.Store(nil)
	q.npool.Put(s)
}

// isDead reports whether an observed item value is one of the two
// abandonment sentinels (canceled or evicted by Close).
func (q *DualQueue[T]) isDead(x *qitem[T]) bool { return x == q.canceled || x == q.closedSent }

func (q *DualQueue[T]) isCancelled(n *qnode[T]) bool { return q.isDead(n.item.Load()) }

// advanceHead swings head from h to nh and self-links the retired node so
// that isOffList observes it and the garbage collector can reclaim the
// chain behind it.
func (q *DualQueue[T]) advanceHead(h, nh *qnode[T]) bool {
	if h != nh && q.head.CompareAndSwap(h, nh) {
		h.next.Store(h)
		return true
	}
	return false
}

// isOffList reports whether n has been unlinked from the queue (self-linked
// by advanceHead).
func isOffList[T any](n *qnode[T]) bool { return n.next.Load() == n }

// transfer is the shared engine for put and take: isData true transfers v
// in, isData false transfers a value out (the two operations are symmetric,
// as the paper observes). A zero deadline waits forever; an expired deadline
// makes the operation a pure offer/poll. If async is true a data node is
// deposited without waiting for a consumer (the paper's TransferQueue
// extension). On success the returned value is the transferred datum for
// takes. commit, if non-nil, is the commit step (see Withdrawn). A transfer
// that has to wait is a reservation awaited on the spot: arrive links it,
// the commit step runs, and the ticket's wait completes it.
//
// Box ownership: a datum rides in a pooled item box obtained here. Whichever
// side ends up reading the value out of a pooled box — the taker, for both
// queue orientations — recycles it; a datum that never transferred (timeout,
// cancel, close, withdrawal, refused engage) is reclaimed by its producer.
func (q *DualQueue[T]) transfer(isData bool, v T, deadline time.Time, cancel <-chan struct{}, async bool, commit func() bool) (T, Status) {
	t0 := q.m.Start() // arrival timestamp (zero — no clock read — when uninstrumented)
	var e *qitem[T]
	if isData {
		e = q.getBox(v)
	}
	imm, s, pred, st := q.engage(e, deadline, async)
	tk := q.arrive(t0, e, s, pred, st, async)
	if tk.node == nil {
		// Completed, or refused, at arrival: fulfilled a waiter, or async
		// deposit. For a take, imm is the counterpart's box — consume and
		// recycle it. For a put (and an async deposit) the box now belongs
		// to its eventual taker.
		if st == OK && !isData {
			v = imm.v
			q.putBox(imm)
		}
		return v, st
	}
	if commit != nil && !commit() && tk.waiter().Abort() {
		// Declined: withdraw as a reservation abort does. A lost CAS
		// means a fulfiller or Close got here first, and Await returns at
		// once with that outcome.
		tk.drop()
		return *new(T), Withdrawn
	}
	return tk.Await(deadline, cancel)
}

// arrive completes an arrival once engage (run in the caller's frame, so
// a fresh goroutine's deepest path — the node pool's first Get — stays
// shallow) has played it: the arrival's latency accounting and, for a node
// that linked, the post-link close re-check. It returns the pending
// reservation (tk.node non-nil) for the caller to await or hand out. A
// refused arrival's box e is reclaimed here.
func (q *DualQueue[T]) arrive(t0 int64, e *qitem[T], s, pred *qnode[T], st Status, async bool) (tk QueueTicket[T]) {
	switch {
	case st != OK:
		q.putBox(e) // the datum never entered the structure
		q.m.Since(metrics.WastedNs, t0)
	case s == nil:
		if !async {
			q.m.Since(metrics.HandoffNs, t0) // a deposit is not a pairing
		}
	default:
		if q.closed.Load() {
			// Close may have raced our enqueue and finished its eviction
			// sweep before our node was linked; self-evict so the waiter
			// is never stranded. If a fulfiller got here first the CAS
			// fails and the wait completes normally.
			s.item.CompareAndSwap(e, q.closedSent)
		}
		tk = QueueTicket[T]{q: q, node: s, pred: pred, e: e, t0: t0}
	}
	return tk
}

// engage is the lock-free half of a transfer (the paper's request
// linearization): it either fulfills a complementary waiter immediately
// (returning the exchanged item with node nil), deposits an async data
// node (node nil, item e), or enqueues a waiting node s with predecessor
// pred for the caller to await. The deadline (zero: none; an async
// deposit never waits) is consulted at the moment enqueueing becomes
// necessary; if it has passed, engage returns Timeout without touching
// the queue.
func (q *DualQueue[T]) engage(e *qitem[T], deadline time.Time, async bool) (imm *qitem[T], node, pred *qnode[T], st Status) {
	var s *qnode[T]
	isData := e != nil

	for {
		t := q.tail.Load()
		h := q.head.Load()

		if h == t || t.isData == isData {
			// Queue empty or holds same-mode nodes: enqueue and
			// wait (Listing 5, lines 08–21).
			tn := t.next.Load()
			if t != q.tail.Load() {
				continue // inconsistent snapshot
			}
			if tn != nil {
				q.tail.CompareAndSwap(t, tn) // help lagging tail
				q.m.Inc(metrics.HelpCollisions)
				continue
			}
			if q.closed.Load() {
				// The queue is shut down: nothing may wait (and
				// async deposits are refused). Checked before
				// the deadline so a poll on a closed empty queue
				// reports Closed, not Timeout.
				if s != nil {
					q.putSpare(s) // built on an earlier lap, never linked
				}
				return nil, nil, nil, Closed
			}
			if !async && !deadline.IsZero() && !time.Now().Before(deadline) {
				q.m.Inc(metrics.Timeouts)
				if s != nil {
					q.putSpare(s) // built on an earlier lap, never linked
				}
				return nil, nil, nil, Timeout // can't wait
			}
			if s == nil {
				s = q.getNode(isData, async)
				s.item.Store(e)
			}
			// The closed check above and the link CAS below bracket the
			// enqueue-vs-sweep race: Close may run entirely in between,
			// and only the caller's post-link re-check can then evict s.
			q.f.Preempt(fault.QCloseRacePause)
			if q.f.FailCAS(fault.QEnqueueCAS) || !t.next.CompareAndSwap(nil, s) {
				q.m.Inc(metrics.CASFailEnqueue)
				continue // lost insertion race
			}
			q.f.Preempt(fault.QEnqueuePause)
			q.tail.CompareAndSwap(t, s)
			if async {
				q.m.Inc(metrics.AsyncDeposits)
				return e, nil, nil, OK
			}
			return nil, s, t, OK

		}

		// Complementary mode at head: try to fulfill the oldest
		// waiter (Listing 5, lines 23–31).
		m := h.next.Load()
		if t != q.tail.Load() || m == nil || h != q.head.Load() {
			continue // inconsistent snapshot
		}
		if q.f.FailCAS(fault.QFulfillCAS) {
			// Injected lost fulfill race: retry from a fresh
			// snapshot, as a loser whose mate already dequeued m
			// would. (The dequeue-and-retry arc below is only
			// taken after a real item change — taking it here
			// would evict a live waiter.)
			q.m.Inc(metrics.CASFailFulfill)
			continue
		}
		x := m.item.Load()
		if isData == (x != nil) || // m already fulfilled
			q.isDead(x) || // m canceled or evicted by Close
			!m.item.CompareAndSwap(x, e) { // lost fulfill race
			q.m.Inc(metrics.CASFailFulfill)
			q.advanceHead(h, m) // dequeue and retry
			continue
		}
		q.m.Inc(metrics.Fulfillments)
		q.f.Preempt(fault.QFulfillPause)
		q.advanceHead(h, m)
		if p := m.waiter.Load(); p != nil {
			p.Unpark()
		}
		if s != nil {
			// The spare built for the enqueue arm was never linked
			// (its insertion CAS failed or was never attempted):
			// recycle it.
			q.putSpare(s)
		}
		if x != nil {
			return x, nil, nil, OK
		}
		return e, nil, nil, OK
	}
}

// finish performs the post-fulfillment bookkeeping for a node we waited
// on: help dequeue ourselves (Listing 5, lines 17–19) and forget
// references so blocked threads don't pin garbage (§Pragmatics). x is the
// item value observed at fulfillment.
func (q *DualQueue[T]) finish(s, pred *qnode[T], x *qitem[T]) {
	if !isOffList(s) {
		q.advanceHead(pred, s)
		if x != nil {
			s.item.Store(q.canceled)
		}
		s.waiter.Store(nil)
	}
}

// qwait is a linked node's wait as park.Await drives it: the node is
// pending while its item word still holds e, and a fulfiller, the owner's
// abort, or Close each resolve it with one CAS moving the word off e.
type qwait[T any] struct {
	q *DualQueue[T]
	s *qnode[T]
	e *qitem[T]
	// front records whether the node was next in line for fulfillment
	// when the wait began (see QueueTicket.Await).
	front bool
}

func (w qwait[T]) Settled() park.Outcome {
	switch w.s.item.Load() {
	case w.e:
		return park.Pending
	case w.q.canceled:
		return park.Aborted
	case w.q.closedSent:
		return park.Evicted
	}
	return park.Fulfilled
}

func (w qwait[T]) Abort() bool { return w.s.item.CompareAndSwap(w.e, w.q.canceled) }

func (w qwait[T]) SpinOK() bool { return w.front }

// Arm initializes the node's own parker in place and publishes it through
// the waiter word, so entering the slow path allocates nothing.
func (w qwait[T]) Arm() *park.Parker {
	w.s.wp.Init(w.q.m, w.q.f)
	w.s.waiter.Store(&w.s.wp)
	return &w.s.wp
}

// clean unlinks the canceled node s with predecessor pred. A canceled node
// at the tail cannot be unlinked (its predecessor's next pointer is the
// insertion point), so the queue remembers pred in cleanMe and the node is
// removed by a later clean — the paper's deferred cleaning strategy, which
// bounds garbage to one canceled node per queue rather than letting
// high-rate/low-patience workloads accumulate them.
func (q *DualQueue[T]) clean(pred, s *qnode[T]) {
	s.waiter.Store(nil)

	for pred.next.Load() == s { // early exit if already unlinked
		h := q.head.Load()
		hn := h.next.Load()
		if hn != nil && q.isCancelled(hn) {
			if q.advanceHead(h, hn) {
				q.m.Inc(metrics.CleanSweeps)
			}
			continue
		}
		t := q.tail.Load()
		if t == h {
			return // queue empty: s is gone
		}
		tn := t.next.Load()
		if t != q.tail.Load() {
			continue
		}
		if tn != nil {
			q.tail.CompareAndSwap(t, tn)
			continue
		}
		if s != t {
			// Interior node: unlink it now.
			sn := s.next.Load()
			if sn == s {
				return
			}
			if q.f.FailCAS(fault.QCleanCAS) {
				q.m.Inc(metrics.CASFailClean)
				continue // injected lost unlink: re-examine from the top
			}
			if pred.next.CompareAndSwap(s, sn) {
				q.m.Inc(metrics.CleanSweeps)
				return
			}
			q.m.Inc(metrics.CASFailClean)
		}
		// s is the tail: defer. First try to flush a previously
		// deferred node, then (if the slot is free) record ours.
		dp := q.cleanMe.Load()
		if dp != nil {
			d := dp.next.Load()
			unlinked := false
			if d == nil || d == dp || !q.isCancelled(d) {
				unlinked = true // stale record
			} else if d != t {
				if dn := d.next.Load(); dn != nil && dn != d && dp.next.CompareAndSwap(d, dn) {
					q.m.Inc(metrics.CleanSweeps)
					unlinked = true
				}
			}
			if unlinked {
				q.cleanMe.CompareAndSwap(dp, nil)
			}
			if dp == pred {
				return // s is already saved
			}
		} else if q.cleanMe.CompareAndSwap(nil, pred) {
			return // postpone cleaning s
		}
	}
}

// Close shuts the queue down gracefully: every waiter parked or spinning
// in the structure is woken and returns the Closed status, and every
// subsequent operation observes Closed (status-returning operations
// report it; demand operations panic, mirroring Go's closed-channel
// semantics). Asynchronously deposited data nodes (the TransferQueue
// extension) are left in place so already-accepted items can still be
// polled or drained. Close is idempotent and safe to call concurrently
// with any operation; it does not block on waiters.
//
// Close linearizes against in-flight fulfillments without locking: both a
// fulfiller and the close sweep resolve a waiter with a single CAS on the
// node's item word, so each waiter is either transferred or evicted,
// never both. An operation concurrent with Close may complete as if it
// happened just before the close; an operation that begins after Close
// returns always observes Closed.
func (q *DualQueue[T]) Close() {
	q.closed.Store(true)
	// Eviction sweep. No new waiters can be linked once closed is set
	// (the enqueue arm re-checks it, and transfer self-evicts nodes that
	// raced the sweep), so one pass over the list suffices; the walk
	// restarts if it steps onto a node advanceHead already retired.
	for {
		n := q.head.Load().next.Load()
		restarted := false
		for n != nil && !restarted {
			if isOffList(n) {
				restarted = true // raced a head advance: restart the walk
				break
			}
			x := n.item.Load()
			live := !q.isDead(x) && (n.isData == (x != nil))
			if live && n.isData && n.async {
				// Deposited data with no waiting producer:
				// keep it for Drain.
				n = n.next.Load()
				continue
			}
			if live {
				if !n.item.CompareAndSwap(x, q.closedSent) {
					continue // item changed under us: re-examine this node
				}
				if p := n.waiter.Load(); p != nil {
					p.Unpark()
				}
			}
			n = n.next.Load()
		}
		if !restarted {
			return
		}
	}
}

// Closed reports whether Close has been called.
func (q *DualQueue[T]) Closed() bool { return q.closed.Load() }

// Put transfers v to a consumer, waiting as long as necessary for one to
// arrive. Put panics if the queue is closed while waiting (or was already
// closed), since it has no status channel to report Closed through.
func (q *DualQueue[T]) Put(v T) {
	if _, st := q.transfer(true, v, time.Time{}, nil, false, nil); st == Closed {
		panic(errClosedDemand)
	}
}

// PutDeadline transfers v to a consumer, giving up at the deadline (zero
// means never) or when cancel fires (nil means never).
func (q *DualQueue[T]) PutDeadline(v T, deadline time.Time, cancel <-chan struct{}) Status {
	_, st := q.transfer(true, v, deadline, cancel, false, nil)
	return st
}

// PutCommit is PutDeadline with a commit step run once the producer has
// linked (see Withdrawn).
func (q *DualQueue[T]) PutCommit(v T, deadline time.Time, cancel <-chan struct{}, commit func() bool) Status {
	_, st := q.transfer(true, v, deadline, cancel, false, commit)
	return st
}

// Offer transfers v only if a consumer is already waiting; it reports
// whether the transfer happened.
func (q *DualQueue[T]) Offer(v T) bool {
	_, st := q.transfer(true, v, deadlineFor(0), nil, false, nil)
	return st == OK
}

// OfferTimeout transfers v, waiting up to d for a consumer.
func (q *DualQueue[T]) OfferTimeout(v T, d time.Duration) bool {
	_, st := q.transfer(true, v, deadlineFor(d), nil, false, nil)
	return st == OK
}

// PutAsync deposits v without waiting for a consumer: the paper's
// TransferQueue extension ("releasing producers before items are taken").
// It reports OK, or Closed when the queue has been shut down (the deposit
// is refused so closed queues cannot accumulate unreachable data).
func (q *DualQueue[T]) PutAsync(v T) Status {
	_, st := q.transfer(true, v, time.Time{}, nil, true, nil)
	return st
}

// Take receives a value from a producer, waiting as long as necessary for
// one to arrive. Take panics if the queue is closed while waiting (or was
// already closed), rather than inventing a zero value.
func (q *DualQueue[T]) Take() T {
	v, st := q.transfer(false, *new(T), time.Time{}, nil, false, nil)
	if st == Closed {
		panic(errClosedDemand)
	}
	return v
}

// TakeDeadline receives a value, giving up at the deadline (zero means
// never) or when cancel fires (nil means never).
func (q *DualQueue[T]) TakeDeadline(deadline time.Time, cancel <-chan struct{}) (T, Status) {
	return q.transfer(false, *new(T), deadline, cancel, false, nil)
}

// TakeCommit is TakeDeadline with a commit step run once the consumer has
// linked (see Withdrawn).
func (q *DualQueue[T]) TakeCommit(deadline time.Time, cancel <-chan struct{}, commit func() bool) (T, Status) {
	return q.transfer(false, *new(T), deadline, cancel, false, commit)
}

// Poll receives a value only if a producer is already waiting (or a datum
// was deposited asynchronously).
func (q *DualQueue[T]) Poll() (T, bool) {
	v, st := q.transfer(false, *new(T), deadlineFor(0), nil, false, nil)
	return v, st == OK
}

// PollTimeout receives a value, waiting up to d for a producer.
func (q *DualQueue[T]) PollTimeout(d time.Duration) (T, bool) {
	v, st := q.transfer(false, *new(T), deadlineFor(d), nil, false, nil)
	return v, st == OK
}

// observe classifies the queue's current content. The answer may be stale
// immediately; it is intended for tests, monitoring and heuristics — and
// for the shard fabric's occupancy probe, which must never read a linked
// live waiter as absent. A canceled node can reach the front with live
// waiters behind it: a tail withdrawal defers its unlink to cleanMe, and
// once the nodes ahead of it are fulfilled it sits at head.next until
// some later clean or engage dequeues it. So observe helps dequeue dead
// front nodes, as engage's fulfill arm and clean do, before it classifies.
func (q *DualQueue[T]) observe() (data, reservations bool) {
	for {
		h := q.head.Load()
		t := q.tail.Load()
		if h == t {
			return false, false
		}
		n := h.next.Load()
		if n == nil {
			return false, false
		}
		if n == h {
			continue // h was retired under us: reread head
		}
		if !q.isCancelled(n) {
			return t.isData, !t.isData
		}
		if q.advanceHead(h, n) {
			q.m.Inc(metrics.CleanSweeps)
		}
	}
}

// HasWaitingProducer reports whether a producer was observed waiting.
func (q *DualQueue[T]) HasWaitingProducer() bool { d, _ := q.observe(); return d }

// HasWaitingConsumer reports whether a consumer was observed waiting.
func (q *DualQueue[T]) HasWaitingConsumer() bool { _, r := q.observe(); return r }

// IsEmpty reports whether the queue was observed holding neither data nor
// reservations.
func (q *DualQueue[T]) IsEmpty() bool {
	h := q.head.Load()
	return h == q.tail.Load() && h.next.Load() == nil
}

// Len counts the live (non-canceled) waiting nodes by walking the list. It
// is linear time and only a snapshot under concurrency; intended for tests
// and monitoring.
func (q *DualQueue[T]) Len() int {
	n := 0
	cur := q.head.Load().next.Load()
	for cur != nil {
		next := cur.next.Load()
		if next == cur {
			break // node raced off-list; snapshot ends here
		}
		if !q.isCancelled(cur) {
			// A data node whose item was taken (nil) or a request
			// node already filled is retired, not waiting.
			x := cur.item.Load()
			if (cur.isData && x != nil) || (!cur.isData && x == nil) {
				n++
			}
		}
		cur = next
	}
	return n
}
