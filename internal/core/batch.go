package core

import (
	"time"

	"synchq/internal/fault"
	"synchq/internal/metrics"
)

// This file is the batched-operation layer of the two dual structures.
//
// The per-node cores have no multi-slot claim to exploit — every hand-off
// is one CAS-visible node — so their PutBatch/TakeBatch are the documented
// loop-with-single-arrival fallback: the batch contract (ordering, partial
// fill, status reporting) without the amortization. The segmented core
// (internal/segq) overrides both with a true multi-cell claim.
//
// The one native batch path a linked structure does offer is the
// asynchronous deposit side of the dual queue (PutAsync, the paper's §5
// TransferQueue extension): asynchronous deposits need no per-item
// rendezvous, so a burst can be assembled as a private chain of data nodes
// in local memory and published with a single tail splice — one CAS for k
// items instead of k tail CASes. PutAllAsync below implements it.

// batchPut abstracts one side of the loop fallback.
type batchPut[T any] func(T, time.Time, <-chan struct{}) Status

type batchTake[T any] func(time.Time, <-chan struct{}) (T, Status)

// putBatchLoop transfers items in order through a single-item operation.
// It returns the number delivered and OK when every item transferred; a
// non-OK status reports why the batch stopped early (the returned count is
// the partial fill).
func putBatchLoop[T any](put batchPut[T], items []T, deadline time.Time, cancel <-chan struct{}) (int, Status) {
	for n, v := range items {
		if st := put(v, deadline, cancel); st != OK {
			return n, st
		}
	}
	return len(items), OK
}

// takeBatchLoop appends up to max received values to buf: the first take
// waits until the deadline (so an already-expired deadline makes the whole
// batch a pure poll burst), every subsequent take is non-blocking. The
// returned status is OK when the batch ended normally (max reached, or
// nothing more immediately available), Timeout/Canceled when the wait for
// the first value aborted with nothing taken, and Closed when the
// structure shut down — values already appended stay in buf.
func takeBatchLoop[T any](take batchTake[T], buf []T, max int, deadline time.Time, cancel <-chan struct{}) ([]T, Status) {
	if max <= 0 {
		return buf, OK
	}
	v, st := take(deadline, cancel)
	if st != OK {
		return buf, st
	}
	buf = append(buf, v)
	for taken := 1; taken < max; taken++ {
		v, st := take(Expired, nil)
		if st == Closed {
			return buf, Closed
		}
		if st != OK {
			break
		}
		buf = append(buf, v)
	}
	return buf, OK
}

// PutBatch transfers items in order, each waiting for its own consumer
// under the shared deadline — the loop-with-single-arrival fallback (see
// the file comment). It returns the count delivered and OK when all of
// items transferred.
func (q *DualQueue[T]) PutBatch(items []T, deadline time.Time, cancel <-chan struct{}) (int, Status) {
	return putBatchLoop(q.PutDeadline, items, deadline, cancel)
}

// TakeBatch appends up to max values to buf: it waits for the first under
// the deadline, then opportunistically claims already-committed producers
// without waiting. See takeBatchLoop for the status contract.
func (q *DualQueue[T]) TakeBatch(buf []T, max int, deadline time.Time, cancel <-chan struct{}) ([]T, Status) {
	return takeBatchLoop(q.TakeDeadline, buf, max, deadline, cancel)
}

// PutBatch is the dual stack's loop-with-single-arrival batch fallback,
// with the same contract as the queue's. Within one batch the items are
// still delivered in slice order (each put completes before the next
// begins); LIFO pairing only decides which waiting consumer gets each one.
func (q *DualStack[T]) PutBatch(items []T, deadline time.Time, cancel <-chan struct{}) (int, Status) {
	return putBatchLoop(q.PutDeadline, items, deadline, cancel)
}

// TakeBatch is the dual stack's batch fill; see takeBatchLoop.
func (q *DualStack[T]) TakeBatch(buf []T, max int, deadline time.Time, cancel <-chan struct{}) ([]T, Status) {
	return takeBatchLoop(q.TakeDeadline, buf, max, deadline, cancel)
}

// PutAllAsync deposits items asynchronously as one burst — the batched
// form of PutAsync. Consumers already waiting are fulfilled directly, in
// order, from the front of the batch; the remainder is assembled as a
// privately linked chain of async data nodes and published with a single
// tail-splice CAS, so k buffered deposits cost one linearization point
// instead of k.
//
// It returns the number of items accepted and OK, or Closed when the queue
// was shut down before the remainder could be deposited (like PutAsync,
// nothing is accepted into a closed queue; items already handed to waiting
// consumers before the close are counted and stay delivered).
func (q *DualQueue[T]) PutAllAsync(items []T) (int, Status) {
	if len(items) == 0 {
		return 0, OK
	}
	idx := 0
	// first..last is the not-yet-published chain for items[idx:]; box is a
	// peeled value box awaiting a direct fulfillment. All local until the
	// splice CAS publishes the chain.
	var first, last *qnode
	box := noItem
	for {
		t := q.tail.Load()
		h := q.head.Load()

		if h == t || t.isData() {
			// Empty or data mode: splice the whole remainder at the tail.
			tn := t.next.Load()
			if t != q.tail.Load() {
				continue
			}
			if tn != nil {
				q.tail.CompareAndSwap(t, tn) // help lagging tail
				q.m.Inc(metrics.HelpCollisions)
				continue
			}
			if q.closed.Load() {
				q.recycleChain(first, box)
				return idx, Closed
			}
			if box != noItem && first == nil && idx+1 < len(items) {
				// box came from getBox in the fulfill arm, not from a
				// peeled chain — items[idx+1:] have no nodes yet.
				first, last = q.buildChain(items[idx+1:])
			}
			if box != noItem {
				// A box peeled for a consumer that vanished: re-head the
				// chain with a fresh node so the splice carries it.
				n := q.getNode(true, true)
				n.item.Store(box)
				n.next.Store(first)
				if first == nil {
					last = n
				}
				first, box = n, noItem
			}
			if first == nil {
				first, last = q.buildChain(items[idx:])
			}
			q.f.Preempt(fault.QCloseRacePause)
			if q.f.FailCAS(fault.QEnqueueCAS) || !t.next.CompareAndSwap(nil, first) {
				q.m.Inc(metrics.CASFailEnqueue)
				continue
			}
			q.tail.CompareAndSwap(t, last)
			q.m.Add(metrics.AsyncDeposits, int64(len(items)-idx))
			return len(items), OK
		}

		// Reservation mode: hand the next item straight to the oldest
		// waiting consumer, exactly as the single-item fulfill arm does.
		m := h.next.Load()
		if t != q.tail.Load() || m == nil || h != q.head.Load() {
			continue
		}
		if q.f.FailCAS(fault.QFulfillCAS) {
			q.m.Inc(metrics.CASFailFulfill)
			continue
		}
		if box == noItem {
			if first != nil {
				// Peel the chain's head node: it was never published, so
				// its box can fulfill directly and the node is a spare.
				n := first
				first = n.next.Load()
				if first == nil {
					last = nil
				}
				n.next.Store(nil)
				box = n.item.Load()
				q.putSpare(n)
			} else {
				box = q.getBox(items[idx])
			}
		}
		x := m.item.Load()
		if x != noItem || !m.item.CompareAndSwap(x, box) {
			// m was already fulfilled, canceled, or we lost the race:
			// dequeue it and retry with the same box.
			q.m.Inc(metrics.CASFailFulfill)
			q.advanceHead(h, m)
			continue
		}
		q.m.Inc(metrics.Fulfillments)
		q.f.Preempt(fault.QFulfillPause)
		q.advanceHead(h, m)
		q.parkers.Wake(m.parker())
		box = noItem
		idx++
		if idx == len(items) {
			return idx, OK
		}
	}
}

// buildChain assembles a private chain of async data nodes for items,
// returning its head and tail. The chain is entirely local memory — no
// other thread can observe it — until the caller's splice CAS publishes
// the head.
func (q *DualQueue[T]) buildChain(items []T) (first, last *qnode) {
	for _, v := range items {
		n := q.getNode(true, true)
		n.item.Store(q.getBox(v))
		if first == nil {
			first = n
		} else {
			last.next.Store(n)
		}
		last = n
	}
	return first, last
}

// recycleChain returns a never-published chain (and a peeled box, if any)
// to the spare slot and the box table. Chain nodes were never linked into
// the queue, so reuse is ABA-free; their next words are scrubbed first
// because getNode promises pristine links.
func (q *DualQueue[T]) recycleChain(first *qnode, box uint32) {
	q.unbox(box)
	for n := first; n != nil; {
		next := n.next.Load()
		n.next.Store(nil)
		q.unbox(n.item.Load())
		q.putSpare(n)
		n = next
	}
}
