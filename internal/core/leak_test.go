package core

import (
	"runtime"
	"testing"
	"time"

	"synchq/internal/exchanger"
)

// expectGoroutinesBelow polls until the live goroutine count drops to at
// most want, failing after a generous deadline. Used to prove that waiting
// goroutines are actually released — a queue that loses wakeups strands
// its waiters forever.
func expectGoroutinesBelow(t *testing.T, want int) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		if n := runtime.NumGoroutine(); n <= want {
			return
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			n := runtime.Stack(buf, true)
			t.Fatalf("goroutines did not drain: %d > %d\n%s",
				runtime.NumGoroutine(), want, buf[:n])
		}
		time.Sleep(time.Millisecond)
	}
}

func TestDualQueueNoGoroutineLeak(t *testing.T) {
	base := runtime.NumGoroutine()
	q := NewDualQueue[int](WaitConfig{})
	for round := 0; round < 50; round++ {
		done := make(chan struct{})
		go func() {
			for i := 0; i < 20; i++ {
				q.Put(i)
			}
			close(done)
		}()
		for i := 0; i < 20; i++ {
			q.Take()
		}
		<-done
	}
	// Timed waiters that expire must also vanish.
	for i := 0; i < 20; i++ {
		go offerTimeout(q, i, time.Millisecond)
		go pollTimeout(q, time.Millisecond)
	}
	expectGoroutinesBelow(t, base+2)
}

func TestDualStackNoGoroutineLeak(t *testing.T) {
	base := runtime.NumGoroutine()
	q := NewDualStack[int](WaitConfig{})
	for round := 0; round < 50; round++ {
		done := make(chan struct{})
		go func() {
			for i := 0; i < 20; i++ {
				q.Put(i)
			}
			close(done)
		}()
		for i := 0; i < 20; i++ {
			q.Take()
		}
		<-done
	}
	for i := 0; i < 20; i++ {
		go offerTimeout(q, i, time.Millisecond)
		go pollTimeout(q, time.Millisecond)
	}
	expectGoroutinesBelow(t, base+2)
}

func TestDualQueueCleanMeChain(t *testing.T) {
	// Exercise the deferred-cleaning bookkeeping across multiple
	// cancellations at the tail: a live producer pins the head while a
	// sequence of timed offers cancel behind it, each becoming (briefly)
	// an uncleanable tail node whose predecessor lands in cleanMe.
	q := NewDualQueue[int](WaitConfig{})
	go q.Put(1)
	waitLen[int](t, q, 1)
	for i := 0; i < 10; i++ {
		if offerTimeout(q, 100+i, 2*time.Millisecond) {
			t.Fatalf("offer %d unexpectedly matched", i)
		}
	}
	// The canceled chain must not be observable as live waiters...
	if n := q.Len(); n != 1 {
		t.Fatalf("Len = %d, want 1 (only the live producer)", n)
	}
	// ...and deferred cleaning must keep reclaiming while the head is
	// pinned: each new cancellation's clean() unlinks roughly every other
	// predecessor (as in Java 6 — a cleanMe record can go stale when its
	// saved predecessor is itself unlinked), so the debris is bounded by
	// a fraction of the burst, never the whole burst plus growth.
	if n := countQueueNodes(q); n > 7 {
		t.Fatalf("%d nodes linger; deferred cleaning is not reclaiming", n)
	}
	// The pinned producer still transfers — the consumer sweeps canceled
	// nodes out of its way as it searches for the live one.
	if got := q.Take(); got != 1 {
		t.Fatalf("Take = %d, want 1", got)
	}
	// A subsequent operation drains the remaining canceled debris from
	// the head; after it, the structure is clean.
	if _, ok := poll(q); ok {
		t.Fatal("Poll fabricated a value from canceled nodes")
	}
	if n := countQueueNodes(q); n > 1 {
		t.Fatalf("%d nodes linger after the head swept past the debris", n)
	}
	// And the queue is fully functional afterwards.
	done := make(chan int)
	go func() { done <- q.Take() }()
	waitLen[int](t, q, 1)
	q.Put(2)
	if got := <-done; got != 2 {
		t.Fatalf("Take = %d, want 2", got)
	}
}

// leakProbe allocates a value with a finalizer and returns it plus a
// channel closed when the collector reclaims it.
func leakProbe() (*[]byte, chan struct{}) {
	collected := make(chan struct{})
	v := &[]byte{1, 2, 3}
	runtime.SetFinalizer(v, func(*[]byte) { close(collected) })
	return v, collected
}

// expectCollected GCs until the probe's finalizer runs, failing if the value
// stays reachable — which, with the structure still alive, means a spare,
// a table slot (or a lingering node) retained the user's value.
func expectCollected(t *testing.T, what string, collected chan struct{}) {
	t.Helper()
	for i := 0; i < 50; i++ {
		runtime.GC()
		select {
		case <-collected:
			return
		case <-time.After(10 * time.Millisecond):
		}
	}
	t.Fatalf("%s still reachable after GC: a spare, table slot or dead node retains the user value", what)
}

// TestDualQueuePoolsRetainNoUserValues proves the scrubbing half of the
// recycling doctrine end to end: values that traveled through lent value
// boxes — a completed hand-off (the taker unboxes the producer's box) and
// an abandoned offer (the producer unboxes its own) — must become garbage
// once the operations finish, even though the boxes themselves stay in the
// live queue's box table.
func TestDualQueuePoolsRetainNoUserValues(t *testing.T) {
	q := NewDualQueue[*[]byte](WaitConfig{})

	transferred, c1 := leakProbe()
	done := make(chan struct{})
	go func() { q.Put(transferred); close(done) }()
	if got := q.Take(); got != transferred {
		t.Fatal("Take returned a different value than Put sent")
	}
	<-done

	abandoned, c2 := leakProbe()
	if offerTimeout(q, abandoned, time.Millisecond) {
		t.Fatal("offer on an empty queue unexpectedly matched")
	}

	transferred, abandoned = nil, nil
	expectCollected(t, "transferred value", c1)
	expectCollected(t, "abandoned offer's value", c2)
	offer(q, nil) // keep q alive past the GC loop, and prove it still works
}

// TestDualStackDeadNodesRetainNoUserValues is the stack-side scrub proof:
// an abandoned datum rides inline in its node, and clean zeroes it,
// so the value is collectable even while the dead node itself lingers (it
// may stay linked as debris until a later sweep, and Go's GC offers no
// finalizer-like hook for when that happens).
func TestDualStackDeadNodesRetainNoUserValues(t *testing.T) {
	q := NewDualStack[*[]byte](WaitConfig{})

	transferred, c1 := leakProbe()
	done := make(chan struct{})
	go func() { q.Put(transferred); close(done) }()
	if got := q.Take(); got != transferred {
		t.Fatal("Take returned a different value than Put sent")
	}
	<-done

	// Bury an abandoned offer beneath a live waiter so its node plausibly
	// lingers linked; the embedded box must be scrubbed regardless.
	abandoned, c2 := leakProbe()
	if offerTimeout(q, abandoned, time.Millisecond) {
		t.Fatal("offer on an empty stack unexpectedly matched")
	}

	transferred, abandoned = nil, nil
	expectCollected(t, "transferred value", c1)
	expectCollected(t, "abandoned offer's value", c2)
	offer(q, nil)
}

// TestExchangerRetainsNoUserValues: the exchanger keeps no node once its
// parties return — an exchanged value rides only in its party's node, a
// party that gives up withdraws its node from the slot — so a value that
// was exchanged, one whose exchange timed out, and one an arena give
// missed with are garbage afterwards while the exchanger and the arena
// stay live.
func TestExchangerRetainsNoUserValues(t *testing.T) {
	e := exchanger.New[*[]byte]()
	mine, c1 := leakProbe()
	theirs, c2 := leakProbe()
	done := make(chan bool)
	go func() { done <- e.Exchange(theirs) == mine }()
	if e.Exchange(mine) != theirs || !<-done {
		t.Fatal("Exchange did not swap the two values")
	}

	timedOut, c3 := leakProbe()
	if _, st := e.ExchangeDeadline(timedOut, time.Now().Add(time.Millisecond), nil); st != exchanger.Timeout {
		t.Fatalf("ExchangeDeadline with no partner = %v, want Timeout", st)
	}

	a := exchanger.NewArena[*[]byte](1)
	missed, c4 := leakProbe()
	if a.TryGive(missed, time.Millisecond) {
		t.Fatal("TryGive matched on an arena with no taker")
	}

	mine, theirs, timedOut, missed = nil, nil, nil, nil
	expectCollected(t, "exchanged value", c1)
	expectCollected(t, "partner's exchanged value", c2)
	expectCollected(t, "timed-out exchange's value", c3)
	expectCollected(t, "missed arena give's value", c4)
	runtime.KeepAlive(e)
	runtime.KeepAlive(a)
}

// TestPoolScrubbingWhitebox checks the scrub invariants at the spare-slot
// and box-table boundary directly: nothing becomes a spare or goes back to
// the table still referencing user data, stack/queue links or a box index.
// These invariants are what make the close-sentinel and cancellation logic
// sound across recycling — item and match words are compared against
// sentinels by identity, so a recycled spare that leaked an old reference
// could alias a live comparison.
func TestPoolScrubbingWhitebox(t *testing.T) {
	v := new(int)

	q := NewDualQueue[*int](WaitConfig{})
	b := q.getBox(v)
	if got := q.unbox(b); got != v {
		t.Fatal("unbox did not return the boxed value")
	}
	if *q.boxes.At(b - 1) != nil {
		t.Error("queue unbox left the user value in the returned box")
	}
	n := q.getNode(true, false)
	n.item.Store(b)
	q.putSpare(n)
	if n.item.Load() != noItem {
		t.Error("queue putSpare left the item word in the spare")
	}

	s := NewDualStack[*int](WaitConfig{})
	sn := s.getNode(modeData)
	sn.v = v
	sn.next.Store(&snode[*int]{})
	s.putSpare(sn)
	if sn.v != nil || sn.next.Load() != nil {
		t.Error("stack putSpare left value or links in the spare")
	}

	// clean must scrub a dead node's datum even though the node itself
	// never becomes a spare.
	dead := s.getNode(modeData)
	dead.v = v
	dead.match.Store(dead) // self-matched: canceled
	s.clean(dead)
	if dead.v != nil {
		t.Error("stack clean left the user value in the dead node")
	}
}

func TestDualStackCancellationBurstThenUse(t *testing.T) {
	// Mirror of the cleanMe chain test for the stack: a live producer is
	// buried under a burst of canceled offers; takes must skip the debris
	// and reach it, and the debris must be swept.
	q := NewDualStack[int](WaitConfig{})
	go q.Put(1)
	waitLen[int](t, q, 1)
	for i := 0; i < 10; i++ {
		if offerTimeout(q, 100+i, 2*time.Millisecond) {
			t.Fatalf("offer %d unexpectedly matched", i)
		}
	}
	if got := q.Take(); got != 1 {
		t.Fatalf("Take = %d, want 1 (canceled nodes must be skipped)", got)
	}
	if n := countStackNodes(q); n > 2 {
		t.Fatalf("%d nodes linger after the burst was consumed", n)
	}
}
