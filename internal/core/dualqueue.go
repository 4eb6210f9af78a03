package core

import (
	"sync/atomic"
	"time"

	"synchq/internal/fault"
	"synchq/internal/lend"
	"synchq/internal/metrics"
	"synchq/internal/park"
	"synchq/internal/spin"
)

// qnode is a node of the synchronous dual queue. The list holds either data
// nodes or reservation nodes, never both at once; the node at head is
// always a retired dummy.
//
// item names the node's value box by index+1 in the queue's box table
// (see DualQueue.boxes), or holds one of the words below. Fulfillment,
// cancellation, and close are all CASes on it:
//
//	data node:    item: box ──taken──▶ none    or ──canceled/closed──▶ sentinel
//	request node: item: none ──filled──▶ box   or ──canceled/closed──▶ sentinel
//
// waiter names the parker the waiting goroutine borrowed from the queue's
// parker table when its spin phase ended (index+1 in its low 30 bits, 0
// until then), and carries the node's immutable mode in its top two bits.
// Like the paper's node, which references its item and its waiting
// thread, the node holds neither, only two 32-bit indexes, so it is 16
// bytes for every T. A node that has been linked into the list is
// reclaimed only by the garbage collector — never kept as the spare —
// because stale traversers (losing fulfillers, helpers, cleaners, the
// close sweep) may still hold its address for head/next CASes, and
// address reuse would reintroduce exactly the ABA those CASes rely on
// pointer identity to avoid (see DESIGN.md "Node and parker lifecycle").
type qnode struct {
	next   atomic.Pointer[qnode]
	item   atomic.Uint32
	waiter atomic.Uint32
}

// Item words besides a box's index+1, which never reaches them (see the
// check below wParker).
const (
	noItem       uint32 = 0
	itemClosed   uint32 = ^uint32(0) - 1 // evicted by Close
	itemCanceled uint32 = ^uint32(0)     // aborted by its owner, or consumed
)

// Waiter-word bits. The mode flags are set once, before the node is
// linked; only the node's owner writes the word afterwards (setParker),
// and it keeps them.
const (
	// wData marks a data node (a waiting or deposited producer).
	wData uint32 = 1 << 31
	// wAsync marks a data node deposited without a waiting producer (the
	// TransferQueue extension). Close leaves async nodes in place so
	// already-accepted data can still be drained.
	wAsync uint32 = 1 << 30
	// wParker masks the lent parker's index+1.
	wParker = wAsync - 1
)

// Every index+1 a lend.Table issues fits under the flag bits (and so
// below the item-word sentinels); the constant overflows, failing the
// build, if a larger table ever breaks that.
const _ = wParker - (lend.MaxIndex + 1)

func (n *qnode) isData() bool  { return n.waiter.Load()&wData != 0 }
func (n *qnode) isAsync() bool { return n.waiter.Load()&wAsync != 0 }

// parker returns the word naming the node's lent parker, for Wake.
func (n *qnode) parker() uint32 { return n.waiter.Load() & wParker }

// setParker publishes (or, with 0, forgets) the owner's lent parker.
func (n *qnode) setParker(w uint32) { n.waiter.Store(n.waiter.Load()&^wParker | w) }

// DualQueue is the paper's fair synchronous queue: a nonblocking,
// contention-free dual queue derived from the Michael & Scott queue, in
// which producers and consumers pair up in strict FIFO order. Use
// NewDualQueue to create one; a DualQueue must not be copied after first
// use.
type DualQueue[T any] struct {
	// head, tail, and cleanMe each own a cache line: consumers CAS head,
	// producers CAS tail, and cancellation sweeps CAS cleanMe, so sharing
	// a line would make every advance on one end invalidate the other.
	head atomic.Pointer[qnode]
	_    [56]byte
	tail atomic.Pointer[qnode]
	_    [56]byte
	// cleanMe is the predecessor of the last canceled node that could not
	// be unlinked immediately because it was the tail (the paper's — and
	// Java 6's — lazy cleaning strategy).
	cleanMe atomic.Pointer[qnode]
	_       [56]byte
	// closed is set by Close; the enqueue arm of engage refuses to add
	// waiters once it is set.
	closed atomic.Bool

	// spare holds one node that was never linked — one that lost its
	// insertion race, or the one New builds — the only nodes whose address
	// provably reached no other thread (see putSpare).
	spare atomic.Pointer[qnode]

	// pol is every wait's policy: its calibrator sets the spin budget
	// (WaitConfig.Spins), and it lends from parkers.
	pol park.Policy
	// m receives the instrumentation counters; nil disables them.
	m *metrics.Handle
	// f injects deterministic faults at the labeled sites; nil disables.
	f *fault.Injector
	// parkers lends waiters their parkers (see park.Table).
	parkers park.Table
	// boxes holds the values in flight: a producer lends a box, stores
	// its datum there and puts the box's index+1 in an item word; the
	// side that reads the value out scrubs the box and returns the index
	// (see unbox). The table keeps its peak number of values in flight.
	boxes lend.Table[T]
}

// NewDualQueue returns an empty fair synchronous queue with the given wait
// policy (use the zero WaitConfig for the paper's defaults).
func NewDualQueue[T any](cfg WaitConfig) *DualQueue[T] {
	q := &DualQueue[T]{m: cfg.Metrics, f: cfg.Fault, parkers: park.Table{M: cfg.Metrics, F: cfg.Fault}}
	q.pol = park.Policy{Cal: spin.NewCalibrator(cfg.Spins), M: cfg.Metrics, Parkers: &q.parkers}
	// A fresh goroutine's first hand-off runs on its small starting stack,
	// where an allocation at the bottom of the call chain can force a copy
	// of the stack: the first box and the first waiting node are built
	// here instead. The prebuilt spare's item word marks it (see getNode).
	q.boxes.Reserve()
	first := new(qnode)
	first.item.Store(itemCanceled)
	q.spare.Store(first)
	dummy := &qnode{}
	q.head.Store(dummy)
	q.tail.Store(dummy)
	return q
}

// Metrics returns the queue's instrumentation handle (nil when disabled).
func (q *DualQueue[T]) Metrics() *metrics.Handle { return q.m }

// getBox lends a value box from the box table, stores v in it and returns
// the item word naming it. A box taken from the free stack counts as a
// reuse, a newly issued one as an allocation.
func (q *DualQueue[T]) getBox(v T) uint32 {
	idx, b, fresh := q.boxes.Lend()
	if fresh {
		q.m.Inc(metrics.NodeAllocs)
	} else {
		q.m.Inc(metrics.NodeReuses)
	}
	*b = v
	return idx + 1
}

// unbox reads the value out of the box the item word x names (the zero
// value for noItem), scrubs the box so the table never pins user data, and
// only then returns its index. Exactly one side unboxes each box: the
// taker that won the CAS moving the box's node to or from it, or the
// producer whose datum never transferred.
func (q *DualQueue[T]) unbox(x uint32) (v T) {
	if x == noItem {
		return v
	}
	b := q.boxes.At(x - 1)
	v = *b
	*b = *new(T)
	q.boxes.Return(x - 1)
	return v
}

// getNode returns a waiting node with the given mode: the spare, if the
// queue holds one, else a new node. A spare was never linked (see
// putSpare), so its parker bits and link word are pristine. The spare New
// builds counts as an allocation when it is first used: its item word
// reads itemCanceled until then, where a recycled spare's reads noItem.
func (q *DualQueue[T]) getNode(isData, async bool) *qnode {
	var w uint32
	if isData {
		w = wData
	}
	if async {
		w |= wAsync
	}
	var n *qnode
	if q.spare.Load() != nil { // writes the shared line only when a spare is there
		n = q.spare.Swap(nil)
	}
	switch {
	case n == nil:
		n = new(qnode)
		fallthrough
	case n.item.Load() != noItem:
		q.m.Inc(metrics.NodeAllocs)
	default:
		q.m.Inc(metrics.NodeReuses)
	}
	n.waiter.Store(w)
	return n
}

// putSpare keeps a node that was NEVER linked into the list — the engage
// loop built it, then completed through the fulfill arm instead — as the
// queue's spare, replacing any spare already there. Such a node's address
// was never published (the insertion CAS that would have published it
// failed), so no other thread can hold a stale pointer to it and reuse is
// ABA-free; linked nodes must never come here. The item word is scrubbed
// so the spare names no box another node may hold by then.
func (q *DualQueue[T]) putSpare(s *qnode) {
	s.item.Store(noItem)
	q.spare.Store(s)
}

// isDead reports whether an observed item word is one of the two
// abandonment sentinels (canceled or evicted by Close).
func isDead(x uint32) bool { return x == itemCanceled || x == itemClosed }

func isCancelled(n *qnode) bool { return isDead(n.item.Load()) }

// advanceHead swings head from h to nh and self-links the retired node so
// that isOffList observes it and the garbage collector can reclaim the
// chain behind it.
func (q *DualQueue[T]) advanceHead(h, nh *qnode) bool {
	if h != nh && q.head.CompareAndSwap(h, nh) {
		h.next.Store(h)
		return true
	}
	return false
}

// isOffList reports whether n has been unlinked from the queue (self-linked
// by advanceHead).
func isOffList(n *qnode) bool { return n.next.Load() == n }

// transfer is the shared engine for put and take: isData true transfers v
// in, isData false transfers a value out (the two operations are symmetric,
// as the paper observes). A zero deadline waits forever; an expired deadline
// makes the operation a pure offer/poll. If async is true a data node is
// deposited without waiting for a consumer (the paper's TransferQueue
// extension). On success the returned value is the transferred datum for
// takes. commit, if non-nil, is the commit step (see Withdrawn). A transfer
// that has to wait is a reservation awaited on the spot (see await).
//
// Box ownership: a datum rides in a value box lent here. Whichever side
// ends up reading the value out of the box — the taker, for both queue
// orientations — unboxes it; a datum that never transferred (timeout,
// cancel, close, withdrawal, refused engage) is unboxed by its producer.
//
// A fresh goroutine's first hand-off runs on its 2-KB starting stack, so
// this path keeps its frames few and small: transfer holds no ticket, the
// deadline travels by pointer (a word instead of three in every frame
// that passes it on), and the deepest call a fulfiller makes — unparking
// a parked waiter — runs from here rather than from inside engage.
func (q *DualQueue[T]) transfer(isData bool, v T, deadline *time.Time, cancel <-chan struct{}, async bool, commit func() bool) (T, Status) {
	t0 := q.m.Start() // arrival timestamp (zero — no clock read — when uninstrumented)
	e := noItem
	if isData {
		e = q.getBox(v)
	}
	x, s, pred, st := q.engage(e, deadline, async)
	if s != nil {
		if commit != nil && !commit() && (qwait{s: s, e: e}).Abort() {
			// Declined: withdraw as a reservation abort does. A lost CAS
			// means a fulfiller or Close got here first, and the wait
			// returns at once with that outcome.
			q.drop(s, pred, e)
			return *new(T), Withdrawn
		}
		return q.await(s, pred, e, t0, deadline, cancel)
	}
	// Completed, or refused, at arrival: fulfilled the waiter pred, or
	// async deposit. Wake pred here, not through park.Table.Wake: unparking
	// a parked waiter is the deepest call a fulfiller makes, and a frame
	// less keeps it on a fresh goroutine's starting stack. For a take, x
	// is the counterpart's box — unbox it. For a put (and an async
	// deposit) the box now belongs to its eventual taker.
	if pred != nil {
		if w := pred.parker(); w != 0 {
			q.parkers.At(w - 1).Unpark()
		}
	}
	q.arrived(t0, e, st, async)
	if st == OK && !isData {
		v = q.unbox(x)
	}
	return v, st
}

// never is the zero deadline, waiting forever, for the callers of transfer
// and engage that have no deadline of their own to point at. Nothing
// writes it.
var never time.Time

// arrived completes an arrival that engage played to the end without
// linking a node, once the caller has woken the waiter it fulfilled: it
// records the arrival's latency and reclaims a refused arrival's box e.
func (q *DualQueue[T]) arrived(t0 int64, e uint32, st Status, async bool) {
	switch {
	case st != OK:
		q.unbox(e) // the datum never entered the structure
		q.m.Since(metrics.WastedNs, t0)
	case !async:
		q.m.Since(metrics.HandoffNs, t0) // a deposit is not a pairing
	}
}

// await waits for node s, linked behind pred for item word e at arrival
// stamp t0, to resolve — the wait of a transfer and of a reservation's
// Await alike.
func (q *DualQueue[T]) await(s, pred *qnode, e uint32, t0 int64, deadline *time.Time, cancel <-chan struct{}) (T, Status) {
	w := qwait{s: s, e: e}
	// Only the node next in line for fulfillment spins; deeper nodes park
	// immediately (§Pragmatics). A node next in line stays so until it is
	// resolved, so this is sampled once rather than re-read from the
	// contended head on every spin.
	w.front = q.head.Load().next.Load() == s
	if o, why := park.Await(w, &q.pol, deadline, cancel, t0); o != park.Fulfilled {
		q.drop(s, pred, e)
		return *new(T), StatusOf(o, why)
	}
	return q.collect(s, pred, s.item.Load()), OK
}

// collect completes a fulfilled wait on node s whose item word reads x:
// help dequeue the node, then — for a take — unbox the producer's box (a
// put's box belongs to its taker, and x is noItem).
func (q *DualQueue[T]) collect(s, pred *qnode, x uint32) T {
	q.finish(s, pred, x)
	return q.unbox(x)
}

// drop disposes of an abandoned wait on node s: unlink the dead node and
// reclaim the datum e, which never transferred.
func (q *DualQueue[T]) drop(s, pred *qnode, e uint32) {
	q.clean(pred, s)
	q.unbox(e)
}

// engage is the lock-free half of a transfer (the paper's request
// linearization): it either fulfills a complementary waiter immediately
// (node nil, pred the fulfilled waiter, which the caller wakes, a frame
// shallower than engage; for a take, imm is the waiting producer's box),
// deposits an async data node (node and pred nil), or enqueues a waiting
// node s with predecessor pred for the caller to await. The deadline (zero: none; an
// async deposit never waits) is consulted at the moment enqueueing becomes
// necessary; if it has passed, engage returns Timeout without touching
// the queue.
func (q *DualQueue[T]) engage(e uint32, deadline *time.Time, async bool) (imm uint32, node, pred *qnode, st Status) {
	var s *qnode
	isData := e != noItem

	for {
		t := q.tail.Load()
		h := q.head.Load()

		if h == t || t.isData() == isData {
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
				return noItem, nil, nil, Closed
			}
			if !async && !deadline.IsZero() && !time.Now().Before(*deadline) {
				q.m.Inc(metrics.Timeouts)
				if s != nil {
					q.putSpare(s) // built on an earlier lap, never linked
				}
				return noItem, nil, nil, Timeout // can't wait
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
				return noItem, nil, nil, OK
			}
			if q.closed.Load() {
				// Close may have raced our enqueue and finished its
				// eviction sweep before s was linked; self-evict so the
				// waiter is never stranded. If a fulfiller got here
				// first the CAS fails and the wait completes normally.
				s.item.CompareAndSwap(e, itemClosed)
			}
			return noItem, s, t, OK

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
		if isData == (x != noItem) || // m already fulfilled
			isDead(x) || // m canceled or evicted by Close
			!m.item.CompareAndSwap(x, e) { // lost fulfill race
			q.m.Inc(metrics.CASFailFulfill)
			q.advanceHead(h, m) // dequeue and retry
			continue
		}
		q.m.Inc(metrics.Fulfillments)
		q.f.Preempt(fault.QFulfillPause)
		q.advanceHead(h, m)
		if s != nil {
			// The spare built for the enqueue arm was never linked
			// (its insertion CAS failed or was never attempted):
			// recycle it.
			q.putSpare(s)
		}
		return x, nil, m, OK
	}
}

// finish performs the post-fulfillment bookkeeping for a node we waited
// on: help dequeue ourselves (Listing 5, lines 17–19) and forget
// references (§Pragmatics): a filled request node gives up its box's
// index before the caller unboxes it, so no node names a returned box. x
// is the item word observed at fulfillment.
func (q *DualQueue[T]) finish(s, pred *qnode, x uint32) {
	if !isOffList(s) {
		q.advanceHead(pred, s)
		if x != noItem {
			s.item.Store(itemCanceled)
		}
		s.setParker(0)
	}
}

// qwait is a linked node's wait as park.Await drives it: the node is
// pending while its item word still holds e, and a fulfiller, the owner's
// abort, or Close each resolve it with one CAS moving the word off e.
type qwait struct {
	s *qnode
	e uint32
	// front records whether the node was next in line for fulfillment
	// when the wait began (see await).
	front bool
}

func (w qwait) Settled() park.Outcome {
	switch w.s.item.Load() {
	case w.e:
		return park.Pending
	case itemCanceled:
		return park.Aborted
	case itemClosed:
		return park.Evicted
	}
	return park.Fulfilled
}

func (w qwait) Abort() bool { return w.s.item.CompareAndSwap(w.e, itemCanceled) }

func (w qwait) SpinOK() bool { return w.front }

func (w qwait) Arm(idx uint32) { w.s.setParker(idx + 1) }

// clean unlinks the canceled node s with predecessor pred. A canceled node
// at the tail cannot be unlinked (its predecessor's next pointer is the
// insertion point), so the queue remembers pred in cleanMe and the node is
// removed by a later clean — the paper's deferred cleaning strategy, which
// bounds garbage to one canceled node per queue rather than letting
// high-rate/low-patience workloads accumulate them.
func (q *DualQueue[T]) clean(pred, s *qnode) {
	s.setParker(0)

	for pred.next.Load() == s { // early exit if already unlinked
		h := q.head.Load()
		hn := h.next.Load()
		if hn != nil && isCancelled(hn) {
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
			if d == nil || d == dp || !isCancelled(d) {
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
			live := !isDead(x) && n.isData() == (x != noItem)
			if live && n.isAsync() {
				// Deposited data with no waiting producer:
				// keep it for Drain.
				n = n.next.Load()
				continue
			}
			if live {
				if !n.item.CompareAndSwap(x, itemClosed) {
					continue // item changed under us: re-examine this node
				}
				q.parkers.Wake(n.parker())
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
	if _, st := q.transfer(true, v, &never, nil, false, nil); st == Closed {
		panic(errClosedDemand)
	}
}

// PutDeadline transfers v to a consumer, giving up at the deadline (zero
// means never) or when cancel fires (nil means never).
func (q *DualQueue[T]) PutDeadline(v T, deadline time.Time, cancel <-chan struct{}) Status {
	_, st := q.transfer(true, v, &deadline, cancel, false, nil)
	return st
}

// PutCommit is PutDeadline with a commit step run once the producer has
// linked (see Withdrawn).
func (q *DualQueue[T]) PutCommit(v T, deadline time.Time, cancel <-chan struct{}, commit func() bool) Status {
	_, st := q.transfer(true, v, &deadline, cancel, false, commit)
	return st
}

// PutAsync deposits v without waiting for a consumer: the paper's
// TransferQueue extension ("releasing producers before items are taken").
// It reports OK, or Closed when the queue has been shut down (the deposit
// is refused so closed queues cannot accumulate unreachable data).
func (q *DualQueue[T]) PutAsync(v T) Status {
	_, st := q.transfer(true, v, &never, nil, true, nil)
	return st
}

// Take receives a value from a producer, waiting as long as necessary for
// one to arrive. Take panics if the queue is closed while waiting (or was
// already closed), rather than inventing a zero value.
func (q *DualQueue[T]) Take() T {
	v, st := q.transfer(false, *new(T), &never, nil, false, nil)
	if st == Closed {
		panic(errClosedDemand)
	}
	return v
}

// TakeDeadline receives a value, giving up at the deadline (zero means
// never) or when cancel fires (nil means never).
func (q *DualQueue[T]) TakeDeadline(deadline time.Time, cancel <-chan struct{}) (v T, st Status) {
	return q.transfer(false, v, &deadline, cancel, false, nil)
}

// TakeCommit is TakeDeadline with a commit step run once the consumer has
// linked (see Withdrawn).
func (q *DualQueue[T]) TakeCommit(deadline time.Time, cancel <-chan struct{}, commit func() bool) (v T, st Status) {
	return q.transfer(false, v, &deadline, cancel, false, commit)
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
		if !isCancelled(n) {
			d := t.isData()
			return d, !d
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
		if !isCancelled(cur) {
			// A data node whose item was taken (none) or a request
			// node already filled is retired, not waiting.
			if cur.isData() == (cur.item.Load() != noItem) {
				n++
			}
		}
		cur = next
	}
	return n
}
