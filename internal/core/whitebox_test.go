package core

import (
	"testing"
	"time"
)

// These tests construct queue states directly to pin down clean()'s
// branches, which are hard to reach deterministically through the public
// API because they depend on precise interleavings.

// buildQueue links the given nodes behind the dummy and fixes up tail.
func buildQueue(q *DualQueue[int], nodes ...*qnode[int]) {
	cur := q.head.Load()
	for _, n := range nodes {
		cur.next.Store(n)
		cur = n
	}
	q.tail.Store(cur)
}

func dataNode(q *DualQueue[int], v int) *qnode[int] {
	n := &qnode[int]{isData: true}
	n.item.Store(&qitem[int]{v: v})
	return n
}

func canceledNode(q *DualQueue[int]) *qnode[int] {
	n := &qnode[int]{isData: true}
	n.item.Store(q.canceled)
	return n
}

func TestCleanUnlinksInteriorNodeImmediately(t *testing.T) {
	q := NewDualQueue[int](WaitConfig{})
	live1 := dataNode(q, 1)
	dead := canceledNode(q)
	live2 := dataNode(q, 2)
	buildQueue(q, live1, dead, live2)

	q.clean(live1, dead)
	if live1.next.Load() != live2 {
		t.Fatal("interior canceled node not unlinked")
	}
	// The queue must still deliver both live values in order.
	if v, ok := q.Poll(); !ok || v != 1 {
		t.Fatalf("Poll = (%d,%v), want (1,true)", v, ok)
	}
	if v, ok := q.Poll(); !ok || v != 2 {
		t.Fatalf("Poll = (%d,%v), want (2,true)", v, ok)
	}
	if _, ok := q.Poll(); ok {
		t.Fatal("Poll fabricated a third value")
	}
}

func TestCleanDefersTailNodeViaCleanMe(t *testing.T) {
	q := NewDualQueue[int](WaitConfig{})
	live := dataNode(q, 1)
	dead := canceledNode(q)
	buildQueue(q, live, dead)

	q.clean(live, dead)
	// The tail node cannot be unlinked; its predecessor must be saved.
	if q.cleanMe.Load() != live {
		t.Fatal("cleanMe does not record the canceled tail's predecessor")
	}
	if live.next.Load() != dead {
		t.Fatal("tail node was unlinked while it was the tail")
	}
}

func TestCleanFlushesStaleCleanMe(t *testing.T) {
	q := NewDualQueue[int](WaitConfig{})
	live := dataNode(q, 1)
	dead := canceledNode(q)
	buildQueue(q, live, dead)

	// Plant a stale record: the dummy's successor (live) is not
	// canceled, so this cleanMe entry is garbage a later clean must
	// discard before saving its own.
	q.cleanMe.Store(q.head.Load())

	q.clean(live, dead)
	if got := q.cleanMe.Load(); got != live {
		t.Fatalf("stale cleanMe not replaced: got %p, want pred of canceled tail", got)
	}
}

func TestCleanFlushesPreviousDeferredNode(t *testing.T) {
	q := NewDualQueue[int](WaitConfig{})
	live := dataNode(q, 1)
	dead1 := canceledNode(q)
	dead2 := canceledNode(q)
	buildQueue(q, live, dead1, dead2)
	// dead1 was deferred earlier (it was the tail then).
	q.cleanMe.Store(live)

	// Cleaning dead2 (current tail) must first unlink dead1 via the
	// saved record, then save dead2's own predecessor.
	q.clean(dead1, dead2)
	if live.next.Load() != dead2 {
		t.Fatal("previously deferred node not unlinked by later clean")
	}
	if q.cleanMe.Load() != dead1 {
		t.Fatal("new deferred record not installed")
	}
	// Delivery still works.
	if v, ok := q.Poll(); !ok || v != 1 {
		t.Fatalf("Poll = (%d,%v), want (1,true)", v, ok)
	}
}

func TestCleanEarlyExitWhenAlreadyUnlinked(t *testing.T) {
	q := NewDualQueue[int](WaitConfig{})
	live := dataNode(q, 1)
	dead := canceledNode(q)
	other := dataNode(q, 2)
	buildQueue(q, live, other)
	// dead was already spliced out by a helper: pred.next != dead.
	dead.next.Store(other)

	q.clean(live, dead) // must return promptly without corrupting links
	if live.next.Load() != other {
		t.Fatal("clean disturbed an already-consistent list")
	}
}

func TestAdvanceHeadSelfLinksRetiredNode(t *testing.T) {
	q := NewDualQueue[int](WaitConfig{})
	n := dataNode(q, 1)
	buildQueue(q, n)
	old := q.head.Load()
	q.advanceHead(old, n)
	if q.head.Load() != n {
		t.Fatal("head not advanced")
	}
	if !isOffList(old) {
		t.Fatal("retired head not self-linked")
	}
	// advanceHead with a stale head must be a no-op.
	stale := dataNode(q, 9)
	q.advanceHead(stale, n)
	if q.head.Load() != n {
		t.Fatal("advanceHead with stale head moved the head")
	}
}

func TestCleanSweepsCanceledHeadSuccessor(t *testing.T) {
	q := NewDualQueue[int](WaitConfig{})
	dead := canceledNode(q)
	live := dataNode(q, 5)
	tailDead := canceledNode(q)
	buildQueue(q, dead, live, tailDead)

	// Cleaning the canceled tail first retires the canceled node at the
	// head (the hn.isCancelled branch).
	q.clean(live, tailDead)
	if q.head.Load().next.Load() != live && q.head.Load() != dead {
		t.Fatal("canceled head successor not retired")
	}
	if v, ok := q.Poll(); !ok || v != 5 {
		t.Fatalf("Poll = (%d,%v), want (5,true)", v, ok)
	}
}

func TestEngageOfferFulfillsDespiteExpiredDeadline(t *testing.T) {
	// A zero-patience offer must still fulfill a waiting consumer: the
	// "can't wait" exit applies only when enqueueing would be needed.
	q := NewDualQueue[int](WaitConfig{})
	got := make(chan int)
	go func() { got <- q.Take() }()
	waitLen[int](t, q, 1)
	if !q.Offer(3) {
		t.Fatal("zero-patience Offer failed with a waiting consumer")
	}
	if v := <-got; v != 3 {
		t.Fatalf("Take = %d, want 3", v)
	}
}

func TestFinishForgetsReferences(t *testing.T) {
	// After a fulfilled wait, the node must not retain the waiter (and a
	// fulfilled request node must not retain the data) — the paper's
	// "forget references" pragmatic, which keeps blocked threads from
	// pinning garbage.
	q := NewDualQueue[int](WaitConfig{})
	done := make(chan int)
	go func() { done <- q.Take() }()
	waitLen[int](t, q, 1)
	// Snapshot the request node before fulfilling it.
	node := q.head.Load().next.Load()
	q.Put(8)
	if got := <-done; got != 8 {
		t.Fatalf("Take = %d", got)
	}
	deadline := time.Now().Add(5 * time.Second)
	for node.waiter.Load() != nil {
		if time.Now().After(deadline) {
			t.Fatal("fulfilled node still holds its waiter reference")
		}
		time.Sleep(100 * time.Microsecond)
	}
	if x := node.item.Load(); x != q.canceled {
		t.Fatal("fulfilled request node still holds the data reference")
	}
}

// --- dual stack clean() branches ---

func stackDataNode(v int) *snode[int] {
	n := &snode[int]{mode: modeData}
	n.item.Store(&qitem[int]{v: v})
	return n
}

func stackCanceledNode() *snode[int] {
	n := &snode[int]{mode: modeData}
	n.match.Store(n) // self-match = canceled
	return n
}

// buildStack links nodes top-to-bottom and installs the head.
func buildStack(q *DualStack[int], nodes ...*snode[int]) {
	for i := 0; i < len(nodes)-1; i++ {
		nodes[i].next.Store(nodes[i+1])
	}
	if len(nodes) > 0 {
		q.head.Store(nodes[0])
	}
}

func TestStackCleanAbsorbsCanceledHead(t *testing.T) {
	q := NewDualStack[int](WaitConfig{})
	deadTop := stackCanceledNode()
	live := stackDataNode(5)
	deadBottom := stackCanceledNode()
	buildStack(q, deadTop, live, deadBottom)

	q.clean(deadBottom)
	// The canceled top must be gone; the live node must be reachable.
	if h := q.head.Load(); h != live {
		t.Fatalf("head = %p, want the live node", h)
	}
	if v, ok := q.Poll(); !ok || v != 5 {
		t.Fatalf("Poll = (%d,%v), want (5,true)", v, ok)
	}
}

func TestStackCleanUnsplicesEmbeddedNode(t *testing.T) {
	q := NewDualStack[int](WaitConfig{})
	live1 := stackDataNode(1)
	dead := stackCanceledNode()
	live2 := stackDataNode(2)
	buildStack(q, live1, dead, live2)

	q.clean(dead)
	if live1.next.Load() != live2 {
		t.Fatal("embedded canceled node not unspliced")
	}
	// LIFO delivery of the two live values.
	if v, ok := q.Poll(); !ok || v != 1 {
		t.Fatalf("Poll = (%d,%v), want (1,true)", v, ok)
	}
	if v, ok := q.Poll(); !ok || v != 2 {
		t.Fatalf("Poll = (%d,%v), want (2,true)", v, ok)
	}
}

func TestStackCleanBoundedByPast(t *testing.T) {
	// clean(s) sweeps only down to s's recorded successor; deeper
	// canceled nodes are someone else's responsibility (their owners
	// called clean too). Build [dead1, s(dead), past, deadDeep] and
	// check deadDeep is untouched by cleaning s.
	q := NewDualStack[int](WaitConfig{})
	dead1 := stackCanceledNode()
	s := stackCanceledNode()
	past := stackDataNode(7)
	deadDeep := stackCanceledNode()
	bottom := stackDataNode(8)
	buildStack(q, dead1, s, past, deadDeep, bottom)

	q.clean(s)
	if past.next.Load() != deadDeep {
		t.Fatal("clean swept past its recorded bound")
	}
	// And the live values are still deliverable (the deep canceled node
	// is skipped when it surfaces).
	if v, ok := q.Poll(); !ok || v != 7 {
		t.Fatalf("Poll = (%d,%v), want (7,true)", v, ok)
	}
	if v, ok := q.Poll(); !ok || v != 8 {
		t.Fatalf("Poll = (%d,%v), want (8,true)", v, ok)
	}
}

func TestStackTryMatchHelpedSemantics(t *testing.T) {
	// tryMatch must report success when the match was already made with
	// the same fulfiller (the helped case) and failure for a different
	// one.
	m := stackDataNode(1)
	f := &snode[int]{mode: modeRequest | modeFulfilling}
	if !tryMatch(m, f) {
		t.Fatal("tryMatch failed on an unmatched node")
	}
	if !tryMatch(m, f) {
		t.Fatal("tryMatch (helped case) did not report success")
	}
	other := &snode[int]{mode: modeRequest | modeFulfilling}
	if tryMatch(m, other) {
		t.Fatal("tryMatch succeeded with a different fulfiller")
	}
}

// A withdrawn tail waiter defers its unlink to cleanMe; once the nodes
// ahead of it are fulfilled it reaches the front with a live waiter
// behind it. The occupancy probe must see that waiter: the shard fabric
// clears its presence bit on a false read, and a cleared bit over a
// live waiter strands both sides.
func TestObserveSeesPastCanceledFrontNode(t *testing.T) {
	q := NewDualQueue[int](WaitConfig{})
	_, x, ok := q.TakeReserve()
	if ok {
		t.Fatal("TakeReserve x fulfilled on an empty queue")
	}
	_, w, _ := q.TakeReserve()
	if !w.Abort() {
		t.Fatal("Abort of the pending tail reservation failed")
	}
	_, b, _ := q.TakeReserve()
	if !q.Offer(1) {
		t.Fatal("Offer did not fulfil the front reservation")
	}
	if v, ok := x.TryFollowup(); !ok || v != 1 {
		t.Fatalf("x.TryFollowup = (%d,%v), want (1,true)", v, ok)
	}
	if n := q.Len(); n != 1 {
		t.Fatalf("Len = %d, want 1 (b still waiting)", n)
	}
	if !q.HasWaitingConsumer() {
		t.Fatal("HasWaitingConsumer = false with a live reservation behind a canceled front node")
	}
	if q.HasWaitingProducer() || q.IsEmpty() {
		t.Fatal("queue holding one reservation reads as data or empty")
	}
	if !q.Offer(2) {
		t.Fatal("Offer did not fulfil b")
	}
	if v, ok := b.TryFollowup(); !ok || v != 2 {
		t.Fatalf("b.TryFollowup = (%d,%v), want (2,true)", v, ok)
	}
}

// The stack's counterpart: between an aborter's self-match and its clean,
// the dead top covers a live waiter, which the probe must still report.
func TestStackObserveSeesPastDeadTop(t *testing.T) {
	q := NewDualStack[int](WaitConfig{})
	_, b, ok := q.TakeReserve()
	if ok {
		t.Fatal("TakeReserve b fulfilled on an empty stack")
	}
	_, w, _ := q.TakeReserve()
	if !w.waiter().Abort() { // self-match only: the clean has not run yet
		t.Fatal("self-match of the top reservation failed")
	}
	if !q.HasWaitingConsumer() {
		t.Fatal("HasWaitingConsumer = false with a live reservation under a dead top")
	}
	if !q.Offer(3) {
		t.Fatal("Offer did not fulfil b")
	}
	if v, ok := b.TryFollowup(); !ok || v != 3 {
		t.Fatalf("b.TryFollowup = (%d,%v), want (3,true)", v, ok)
	}
}
