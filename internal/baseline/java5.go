package baseline

import (
	"container/list"
	"sync"
	"sync/atomic"
	"time"

	"synchq/internal/fairlock"
	"synchq/internal/park"
)

// Node states for the Java 5 algorithm's waiter nodes.
const (
	j5Waiting int32 = iota
	j5Fulfilled
	j5Canceled
)

// j5node is one waiting producer or consumer. Producers store their item
// before publishing the node; consumers' items are written by the
// fulfilling producer before the node is unparked.
type j5node[T any] struct {
	item  *T
	state atomic.Int32
	p     *park.Parker
	elem  *list.Element // position in its wait list, guarded by the queue lock
}

// waitList is one of the two collections of Listing 4
// (waitingProducers/waitingConsumers), generalized — as the Java 5 code is
// — to act as a FIFO queue in fair mode and a LIFO stack in unfair mode.
// All access is guarded by the queue's single lock.
type waitList[T any] struct {
	l    list.List
	fifo bool
}

// push appends a waiter and remembers its position for O(1) removal.
func (w *waitList[T]) push(n *j5node[T]) {
	n.elem = w.l.PushBack(n)
}

// pop removes and fulfills the next eligible waiter, skipping (and
// discarding) canceled nodes. It returns nil if no waiter remains. The
// returned node has already won its state CAS, so the caller owns it.
func (w *waitList[T]) pop() *j5node[T] {
	for {
		var e *list.Element
		if w.fifo {
			e = w.l.Front()
		} else {
			e = w.l.Back()
		}
		if e == nil {
			return nil
		}
		n := w.l.Remove(e).(*j5node[T])
		n.elem = nil
		if n.state.CompareAndSwap(j5Waiting, j5Fulfilled) {
			return n
		}
		// Canceled while queued: discard and keep looking.
	}
}

// remove unlinks a canceled node if it is still in the list.
func (w *waitList[T]) remove(n *j5node[T]) {
	if n.elem != nil {
		w.l.Remove(n.elem)
		n.elem = nil
	}
}

// Java5 is the Java SE 5.0 SynchronousQueue algorithm (Listing 4): a single
// lock protects a list of waiting producers and a list of waiting
// consumers. In fair mode the lists are FIFO queues and the entry lock is
// itself FIFO-fair (as in Java 5); in unfair mode the lists are LIFO stacks
// under an ordinary (barging) mutex. A thread that finds its counterpart
// already waiting performs one lock acquisition; otherwise it enqueues
// itself and blocks — three synchronization events per transfer versus
// Hanson's six. Use NewJava5 to create one.
type Java5[T any] struct {
	lock             sync.Locker
	waitingProducers waitList[T]
	waitingConsumers waitList[T]
	fair             bool
	canceledSentinel *T // placeholder; reserved for parity with core sentinels
	// parkers lends each waiting node its parker for the wait, as a Java
	// thread brings its own permit to LockSupport.park. A node's parker
	// gets one Unpark at most, from the fulfiller that won its state CAS,
	// and await consumes it before the parker goes back.
	parkers park.Table
}

// NewJava5 returns an empty Java 5-style synchronous queue; fair selects
// FIFO pairing under a fair entry lock, unfair selects LIFO pairing under a
// regular mutex.
func NewJava5[T any](fair bool) *Java5[T] {
	q := &Java5[T]{fair: fair, canceledSentinel: new(T)}
	if fair {
		q.lock = &fairlock.Mutex{}
	} else {
		q.lock = &sync.Mutex{}
	}
	q.waitingProducers.fifo = fair
	q.waitingConsumers.fifo = fair
	return q
}

// Put transfers v, waiting for a consumer (Listing 4, lines 30–43).
func (q *Java5[T]) Put(v T) {
	q.put(v, time.Time{})
}

// Offer transfers v only if a consumer is already waiting.
func (q *Java5[T]) Offer(v T) bool {
	return q.put(v, time.Unix(0, 1)) // expired deadline: no waiting
}

// OfferTimeout transfers v, waiting up to d for a consumer.
func (q *Java5[T]) OfferTimeout(v T, d time.Duration) bool {
	if d <= 0 {
		return q.Offer(v)
	}
	return q.put(v, time.Now().Add(d))
}

func (q *Java5[T]) put(v T, deadline time.Time) bool {
	q.lock.Lock()
	if node := q.waitingConsumers.pop(); node != nil {
		q.lock.Unlock()
		node.item = &v
		node.p.Unpark()
		return true
	}
	if !deadline.IsZero() && !time.Now().Before(deadline) {
		q.lock.Unlock()
		return false
	}
	idx, p := q.parkers.Lend()
	node := &j5node[T]{item: &v, p: p}
	q.waitingProducers.push(node)
	q.lock.Unlock()
	ok := q.await(node, &q.waitingProducers, deadline)
	q.parkers.Return(idx)
	return ok
}

// Take receives a value, waiting for a producer (Listing 4, lines 15–28).
func (q *Java5[T]) Take() T {
	v, _ := q.take(time.Time{})
	return v
}

// Poll receives a value only if a producer is already waiting.
func (q *Java5[T]) Poll() (T, bool) {
	return q.take(time.Unix(0, 1))
}

// PollTimeout receives a value, waiting up to d for a producer.
func (q *Java5[T]) PollTimeout(d time.Duration) (T, bool) {
	if d <= 0 {
		return q.Poll()
	}
	return q.take(time.Now().Add(d))
}

func (q *Java5[T]) take(deadline time.Time) (T, bool) {
	var zero T
	q.lock.Lock()
	if node := q.waitingProducers.pop(); node != nil {
		q.lock.Unlock()
		v := *node.item
		node.p.Unpark()
		return v, true
	}
	if !deadline.IsZero() && !time.Now().Before(deadline) {
		q.lock.Unlock()
		return zero, false
	}
	idx, p := q.parkers.Lend()
	node := &j5node[T]{p: p}
	q.waitingConsumers.push(node)
	q.lock.Unlock()
	ok := q.await(node, &q.waitingConsumers, deadline)
	q.parkers.Return(idx)
	if !ok {
		return zero, false
	}
	return *node.item, true
}

// await blocks on the node until it is fulfilled or the deadline passes.
// On timeout it cancels the node and removes it from its wait list; if the
// cancellation loses to a concurrent fulfiller, the fulfillment is accepted
// instead.
func (q *Java5[T]) await(node *j5node[T], lst *waitList[T], deadline time.Time) bool {
	for {
		if node.p.ParkDeadline(deadline) {
			// Unparked: the fulfiller committed before waking us.
			return true
		}
		// Deadline passed.
		if node.state.CompareAndSwap(j5Waiting, j5Canceled) {
			q.lock.Lock()
			lst.remove(node)
			q.lock.Unlock()
			return false
		}
		// A fulfiller won the race; its unpark is in flight.
		node.p.Park()
		return true
	}
}

// WaitingProducers returns the number of queued producers (tests only).
func (q *Java5[T]) WaitingProducers() int {
	q.lock.Lock()
	defer q.lock.Unlock()
	return q.waitingProducers.l.Len()
}

// WaitingConsumers returns the number of queued consumers (tests only).
func (q *Java5[T]) WaitingConsumers() int {
	q.lock.Lock()
	defer q.lock.Unlock()
	return q.waitingConsumers.l.Len()
}
