package core

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// countStackNodes counts every linked node, canceled or not.
func countStackNodes[T any](q *DualStack[T]) int {
	n := 0
	for cur := q.head.Load(); cur != nil; cur = cur.next.Load() {
		n++
	}
	return n
}

func TestDualStackPairsPutWithTake(t *testing.T) {
	q := NewDualStack[int](WaitConfig{})
	done := make(chan int)
	go func() { done <- q.Take() }()
	q.Put(42)
	if got := <-done; got != 42 {
		t.Fatalf("Take = %d, want 42", got)
	}
}

func TestDualStackPutBlocksUntilConsumer(t *testing.T) {
	q := NewDualStack[int](WaitConfig{})
	var delivered atomic.Bool
	go func() {
		q.Put(1)
		delivered.Store(true)
	}()
	waitLen[int](t, q, 1)
	if delivered.Load() {
		t.Fatal("Put returned before a consumer arrived")
	}
	if got := q.Take(); got != 1 {
		t.Fatalf("Take = %d, want 1", got)
	}
}

func TestDualStackOfferPollSemantics(t *testing.T) {
	q := NewDualStack[int](WaitConfig{})
	if q.Offer(1) {
		t.Fatal("Offer succeeded with no waiting consumer")
	}
	if _, ok := q.Poll(); ok {
		t.Fatal("Poll succeeded on empty stack")
	}
	done := make(chan int)
	go func() { done <- q.Take() }()
	waitLen[int](t, q, 1)
	if !q.Offer(9) {
		t.Fatal("Offer failed with a waiting consumer")
	}
	if got := <-done; got != 9 {
		t.Fatalf("Take = %d, want 9", got)
	}
	go q.Put(3)
	waitLen[int](t, q, 1)
	if v, ok := q.Poll(); !ok || v != 3 {
		t.Fatalf("Poll = (%d,%v), want (3,true)", v, ok)
	}
}

func TestDualStackTimeoutsExpire(t *testing.T) {
	q := NewDualStack[int](WaitConfig{})
	t0 := time.Now()
	if q.OfferTimeout(1, 20*time.Millisecond) {
		t.Fatal("OfferTimeout succeeded with no consumer")
	}
	if elapsed := time.Since(t0); elapsed < 15*time.Millisecond {
		t.Fatalf("OfferTimeout returned after %v, before its patience elapsed", elapsed)
	}
	if _, ok := q.PollTimeout(20 * time.Millisecond); ok {
		t.Fatal("PollTimeout succeeded with no producer")
	}
}

func TestDualStackTimeoutsSucceedWithinPatience(t *testing.T) {
	q := NewDualStack[int](WaitConfig{})
	go func() {
		waitLen[int](t, q, 1)
		if got := q.Take(); got != 5 {
			t.Errorf("Take = %d, want 5", got)
		}
	}()
	if !q.OfferTimeout(5, 5*time.Second) {
		t.Fatal("OfferTimeout expired despite a consumer arriving")
	}
	go func() {
		waitLen[int](t, q, 1)
		q.Put(11)
	}()
	if v, ok := q.PollTimeout(5 * time.Second); !ok || v != 11 {
		t.Fatalf("PollTimeout = (%d,%v), want (11,true)", v, ok)
	}
}

func TestDualStackCancel(t *testing.T) {
	q := NewDualStack[int](WaitConfig{})
	cancel := make(chan struct{})
	done := make(chan Status)
	go func() { done <- q.PutDeadline(1, time.Time{}, cancel) }()
	waitLen[int](t, q, 1)
	close(cancel)
	if st := <-done; st != Canceled {
		t.Fatalf("PutDeadline = %v, want Canceled", st)
	}
	// Canceled node must not satisfy a later consumer.
	if _, ok := q.PollTimeout(10 * time.Millisecond); ok {
		t.Fatal("Poll received a value from a canceled producer")
	}
}

func TestDualStackLIFOAmongProducers(t *testing.T) {
	q := NewDualStack[int](WaitConfig{})
	const n = 8
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		v := i
		go func() {
			defer wg.Done()
			q.Put(v)
		}()
		waitLen[int](t, q, i+1)
	}
	// Most recently arrived producer pairs first.
	for i := n - 1; i >= 0; i-- {
		if got := q.Take(); got != i {
			t.Fatalf("Take = %d, want %d (LIFO violated)", got, i)
		}
	}
	wg.Wait()
}

func TestDualStackLIFOAmongConsumers(t *testing.T) {
	q := NewDualStack[int](WaitConfig{})
	const n = 8
	results := make([]chan int, n)
	for i := 0; i < n; i++ {
		results[i] = make(chan int, 1)
		ch := results[i]
		go func() { ch <- q.Take() }()
		waitLen[int](t, q, i+1)
	}
	// Consumer n-1 arrived last, so it receives the first value.
	for i := 0; i < n; i++ {
		q.Put(100 + i)
	}
	for i := 0; i < n; i++ {
		want := 100 + (n - 1 - i)
		if got := <-results[i]; got != want {
			t.Fatalf("consumer %d received %d, want %d (LIFO violated)", i, got, want)
		}
	}
}

func TestDualStackInteriorCancellationIsCleaned(t *testing.T) {
	// Build a stack of three waiting producers, cancel the middle one,
	// and check both that consumers skip it and that the structure does
	// not accumulate the canceled node.
	q := NewDualStack[int](WaitConfig{})
	var wg sync.WaitGroup
	wg.Add(2)
	go func() { defer wg.Done(); q.Put(1) }()
	waitLen[int](t, q, 1)
	cancelDone := make(chan Status, 1)
	cancel := make(chan struct{})
	go func() { cancelDone <- q.PutDeadline(2, time.Time{}, cancel) }()
	waitLen[int](t, q, 2)
	go func() { defer wg.Done(); q.Put(3) }()
	waitLen[int](t, q, 3)

	close(cancel)
	if st := <-cancelDone; st != Canceled {
		t.Fatalf("middle producer: status %v, want Canceled", st)
	}
	// LIFO: 3 then 1; the canceled 2 must be skipped.
	if got := q.Take(); got != 3 {
		t.Fatalf("Take = %d, want 3", got)
	}
	if got := q.Take(); got != 1 {
		t.Fatalf("Take = %d, want 1", got)
	}
	wg.Wait()
	if n := countStackNodes(q); n != 0 {
		t.Fatalf("%d nodes linger after all producers finished", n)
	}
}

func TestDualStackTimeoutStormLeavesNoGarbage(t *testing.T) {
	q := NewDualStack[int](WaitConfig{})
	for i := 0; i < 500; i++ {
		q.OfferTimeout(i, 10*time.Microsecond)
	}
	if n := countStackNodes(q); n > 2 {
		t.Fatalf("%d nodes linger after timeout storm; cleaning failed", n)
	}
	done := make(chan int)
	go func() { done <- q.Take() }()
	waitLen[int](t, q, 1)
	q.Put(1234)
	if got := <-done; got != 1234 {
		t.Fatalf("Take = %d after storm, want 1234", got)
	}
}

func TestDualStackCancellationDoesNotLoseValues(t *testing.T) {
	q := NewDualStack[int](WaitConfig{})
	for i := 0; i < 200; i++ {
		got := make(chan int, 1)
		go func() {
			if v, ok := q.PollTimeout(time.Millisecond); ok {
				got <- v
			} else {
				got <- -1
			}
		}()
		sent := q.OfferTimeout(i, time.Millisecond)
		v := <-got
		if sent && v == -1 {
			t.Fatalf("iteration %d: producer succeeded but consumer got nothing", i)
		}
		if !sent && v != -1 {
			t.Fatalf("iteration %d: consumer got %d but producer timed out", i, v)
		}
	}
}

func TestDualStackConservationUnderLoad(t *testing.T) {
	q := NewDualStack[int64](WaitConfig{})
	const producers, consumers = 8, 8
	const perProducer = 500
	var mu sync.Mutex
	seen := make(map[int64]bool, producers*perProducer)
	var wg sync.WaitGroup
	for p := 0; p < producers; p++ {
		wg.Add(1)
		go func(id int64) {
			defer wg.Done()
			for i := int64(0); i < perProducer; i++ {
				q.Put(id<<32 | i)
			}
		}(int64(p))
	}
	for c := 0; c < consumers; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < producers*perProducer/consumers; i++ {
				v := q.Take()
				mu.Lock()
				if seen[v] {
					t.Errorf("value %d delivered twice", v)
				}
				seen[v] = true
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	if len(seen) != producers*perProducer {
		t.Fatalf("delivered %d distinct values, want %d", len(seen), producers*perProducer)
	}
	if !q.IsEmpty() {
		t.Fatal("stack not empty after balanced run")
	}
}

func TestDualStackObservers(t *testing.T) {
	q := NewDualStack[int](WaitConfig{})
	if q.HasWaitingProducer() || q.HasWaitingConsumer() || !q.IsEmpty() {
		t.Fatal("fresh stack misreports state")
	}
	go q.Put(1)
	waitLen[int](t, q, 1)
	if !q.HasWaitingProducer() || q.HasWaitingConsumer() {
		t.Fatal("waiting producer not observed")
	}
	if got := q.Take(); got != 1 {
		t.Fatalf("Take = %d", got)
	}
	done := make(chan int)
	go func() { done <- q.Take() }()
	waitLen[int](t, q, 1)
	if !q.HasWaitingConsumer() || q.HasWaitingProducer() {
		t.Fatal("waiting consumer not observed")
	}
	q.Put(2)
	<-done
}

func TestDualStackSpinConfigVariants(t *testing.T) {
	// The queue must behave identically under every wait policy; this
	// exercises the spin paths (Always) and the park-only path (Never).
	for _, cfg := range []WaitConfig{
		{},            // platform default
		{Spins: -1},   // park immediately
		{Spins: 4096}, // force spinning
	} {
		q := NewDualStack[int](cfg)
		done := make(chan int)
		go func() { done <- q.Take() }()
		q.Put(5)
		if got := <-done; got != 5 {
			t.Fatalf("cfg %+v: Take = %d, want 5", cfg, got)
		}
	}
}
