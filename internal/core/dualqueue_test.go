package core

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// waitLen polls until q reports n live waiting nodes, failing after a
// generous deadline. It makes ordering tests deterministic without
// sleeps-as-synchronization.
func waitLen[T any](t *testing.T, q interface{ Len() int }, n int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for q.Len() != n {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for Len()==%d (have %d)", n, q.Len())
		}
		time.Sleep(100 * time.Microsecond)
	}
}

// countQueueNodes walks the whole list, counting every linked node
// (canceled or not, excluding the dummy). Used to assert that cleaning
// bounds garbage.
func countQueueNodes[T any](q *DualQueue[T]) int {
	n := 0
	cur := q.head.Load().next.Load()
	for cur != nil {
		next := cur.next.Load()
		if next == cur {
			break
		}
		n++
		cur = next
	}
	return n
}

func TestDualQueuePairsPutWithTake(t *testing.T) {
	q := NewDualQueue[int](WaitConfig{})
	done := make(chan int)
	go func() { done <- q.Take() }()
	q.Put(42)
	if got := <-done; got != 42 {
		t.Fatalf("Take = %d, want 42", got)
	}
}

func TestDualQueuePutBlocksUntilConsumer(t *testing.T) {
	q := NewDualQueue[int](WaitConfig{})
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

func TestDualQueueTakeBlocksUntilProducer(t *testing.T) {
	q := NewDualQueue[int](WaitConfig{})
	var got atomic.Int64
	var finished atomic.Bool
	go func() {
		got.Store(int64(q.Take()))
		finished.Store(true)
	}()
	waitLen[int](t, q, 1)
	if finished.Load() {
		t.Fatal("Take returned before a producer arrived")
	}
	q.Put(7)
	deadline := time.Now().Add(5 * time.Second)
	for !finished.Load() {
		if time.Now().After(deadline) {
			t.Fatal("Take never returned")
		}
		time.Sleep(100 * time.Microsecond)
	}
	if got.Load() != 7 {
		t.Fatalf("Take = %d, want 7", got.Load())
	}
}

func TestDualQueueOfferWithoutConsumerFails(t *testing.T) {
	q := NewDualQueue[int](WaitConfig{})
	if offer(q, 1) {
		t.Fatal("Offer succeeded with no waiting consumer")
	}
	if !q.vacant() {
		t.Fatal("queue not empty after failed Offer")
	}
}

func TestDualQueueOfferToWaitingConsumer(t *testing.T) {
	q := NewDualQueue[int](WaitConfig{})
	done := make(chan int)
	go func() { done <- q.Take() }()
	waitLen[int](t, q, 1)
	if !offer(q, 9) {
		t.Fatal("Offer failed with a waiting consumer")
	}
	if got := <-done; got != 9 {
		t.Fatalf("Take = %d, want 9", got)
	}
}

func TestDualQueuePollWithoutProducerFails(t *testing.T) {
	q := NewDualQueue[int](WaitConfig{})
	if _, ok := poll(q); ok {
		t.Fatal("Poll succeeded on empty queue")
	}
}

func TestDualQueuePollFromWaitingProducer(t *testing.T) {
	q := NewDualQueue[int](WaitConfig{})
	go q.Put(3)
	waitLen[int](t, q, 1)
	v, ok := poll(q)
	if !ok || v != 3 {
		t.Fatalf("Poll = (%d,%v), want (3,true)", v, ok)
	}
}

func TestDualQueueOfferTimeoutExpires(t *testing.T) {
	q := NewDualQueue[int](WaitConfig{})
	t0 := time.Now()
	if offerTimeout(q, 1, 20*time.Millisecond) {
		t.Fatal("OfferTimeout succeeded with no consumer")
	}
	if elapsed := time.Since(t0); elapsed < 15*time.Millisecond {
		t.Fatalf("OfferTimeout returned after %v, before its patience elapsed", elapsed)
	}
}

func TestDualQueueOfferTimeoutSucceedsWithinPatience(t *testing.T) {
	q := NewDualQueue[int](WaitConfig{})
	go func() {
		waitLen[int](t, q, 1)
		if got := q.Take(); got != 5 {
			t.Errorf("Take = %d, want 5", got)
		}
	}()
	if !offerTimeout(q, 5, 5*time.Second) {
		t.Fatal("OfferTimeout expired despite a consumer arriving")
	}
}

func TestDualQueuePollTimeoutExpires(t *testing.T) {
	q := NewDualQueue[int](WaitConfig{})
	if _, ok := pollTimeout(q, 20*time.Millisecond); ok {
		t.Fatal("PollTimeout succeeded with no producer")
	}
}

func TestDualQueuePollTimeoutSucceedsWithinPatience(t *testing.T) {
	q := NewDualQueue[int](WaitConfig{})
	go func() {
		waitLen[int](t, q, 1)
		q.Put(11)
	}()
	v, ok := pollTimeout(q, 5*time.Second)
	if !ok || v != 11 {
		t.Fatalf("PollTimeout = (%d,%v), want (11,true)", v, ok)
	}
}

func TestDualQueueCancelPut(t *testing.T) {
	q := NewDualQueue[int](WaitConfig{})
	cancel := make(chan struct{})
	done := make(chan Status)
	go func() { done <- q.PutDeadline(1, time.Time{}, cancel) }()
	waitLen[int](t, q, 1)
	close(cancel)
	if st := <-done; st != Canceled {
		t.Fatalf("PutDeadline = %v, want Canceled", st)
	}
}

func TestDualQueueCancelTake(t *testing.T) {
	q := NewDualQueue[int](WaitConfig{})
	cancel := make(chan struct{})
	type out struct {
		v  int
		st Status
	}
	done := make(chan out)
	go func() {
		v, st := q.TakeDeadline(time.Time{}, cancel)
		done <- out{v, st}
	}()
	waitLen[int](t, q, 1)
	close(cancel)
	if o := <-done; o.st != Canceled {
		t.Fatalf("TakeDeadline = %+v, want Canceled", o)
	}
}

func TestDualQueueFIFOAmongProducers(t *testing.T) {
	q := NewDualQueue[int](WaitConfig{})
	const n = 8
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		v := i
		go func() {
			defer wg.Done()
			q.Put(v)
		}()
		waitLen[int](t, q, i+1) // producer i is parked before i+1 starts
	}
	for i := 0; i < n; i++ {
		if got := q.Take(); got != i {
			t.Fatalf("Take #%d = %d, want %d (FIFO violated)", i, got, i)
		}
	}
	wg.Wait()
}

func TestDualQueueFIFOAmongConsumers(t *testing.T) {
	q := NewDualQueue[int](WaitConfig{})
	const n = 8
	results := make([]chan int, n)
	for i := 0; i < n; i++ {
		results[i] = make(chan int, 1)
		ch := results[i]
		go func() { ch <- q.Take() }()
		waitLen[int](t, q, i+1)
	}
	// Consumer i arrived i-th, so it must receive the i-th value.
	for i := 0; i < n; i++ {
		q.Put(100 + i)
	}
	for i := 0; i < n; i++ {
		if got := <-results[i]; got != 100+i {
			t.Fatalf("consumer %d received %d, want %d (FIFO violated)", i, got, 100+i)
		}
	}
}

func TestDualQueuePutAsyncBuffersFIFO(t *testing.T) {
	q := NewDualQueue[int](WaitConfig{})
	q.PutAsync(1)
	q.PutAsync(2)
	q.PutAsync(3)
	if q.Len() != 3 {
		t.Fatalf("Len = %d, want 3 buffered", q.Len())
	}
	for want := 1; want <= 3; want++ {
		v, ok := poll(q)
		if !ok || v != want {
			t.Fatalf("Poll = (%d,%v), want (%d,true)", v, ok, want)
		}
	}
	if _, ok := poll(q); ok {
		t.Fatal("Poll succeeded on drained queue")
	}
}

func TestDualQueueAsyncServesWaitingConsumerDirectly(t *testing.T) {
	q := NewDualQueue[int](WaitConfig{})
	done := make(chan int)
	go func() { done <- q.Take() }()
	waitLen[int](t, q, 1)
	q.PutAsync(77)
	if got := <-done; got != 77 {
		t.Fatalf("Take = %d, want 77", got)
	}
}

func TestDualQueueCancellationDoesNotLoseValues(t *testing.T) {
	// A producer with patience and a consumer race; either the transfer
	// happens for both or for neither.
	q := NewDualQueue[int](WaitConfig{})
	for i := 0; i < 200; i++ {
		got := make(chan int, 1)
		go func() {
			if v, ok := pollTimeout(q, time.Millisecond); ok {
				got <- v
			} else {
				got <- -1
			}
		}()
		sent := offerTimeout(q, i, time.Millisecond)
		v := <-got
		if sent && v == -1 {
			t.Fatalf("iteration %d: producer reported success but consumer got nothing", i)
		}
		if !sent && v != -1 {
			t.Fatalf("iteration %d: consumer got %d but producer reported timeout", i, v)
		}
		if sent && v != i {
			t.Fatalf("iteration %d: consumer got %d", i, v)
		}
	}
}

func TestDualQueueTimeoutStormLeavesNoGarbage(t *testing.T) {
	// The paper's pragmatics: high offer rate with low patience must not
	// accumulate canceled nodes. The deferred cleanMe strategy bounds
	// leftover canceled nodes to a small constant.
	q := NewDualQueue[int](WaitConfig{})
	for i := 0; i < 500; i++ {
		offerTimeout(q, i, 10*time.Microsecond)
	}
	if n := countQueueNodes(q); n > 2 {
		t.Fatalf("%d nodes linger after timeout storm; cleaning failed", n)
	}
	// The queue must still work.
	done := make(chan int)
	go func() { done <- q.Take() }()
	waitLen[int](t, q, 1)
	q.Put(1234)
	if got := <-done; got != 1234 {
		t.Fatalf("Take = %d after storm, want 1234", got)
	}
}

func TestDualQueueCanceledTailThenTransfer(t *testing.T) {
	// Force the cleanMe path deterministically: a live producer at the
	// head, a canceled producer at the tail (unremovable immediately),
	// then transfers proceed and the canceled node is eventually swept.
	q := NewDualQueue[int](WaitConfig{})
	go q.Put(1)
	waitLen[int](t, q, 1)
	if offerTimeout(q, 2, 10*time.Millisecond) {
		t.Fatal("second offer unexpectedly matched")
	}
	if got := q.Take(); got != 1 {
		t.Fatalf("Take = %d, want 1", got)
	}
	// Run one more full transfer so a later clean() sweeps the deferred
	// node, then check the structure is bounded.
	go q.Put(3)
	waitLen[int](t, q, 1)
	if got := q.Take(); got != 3 {
		t.Fatalf("Take = %d, want 3", got)
	}
	if n := countQueueNodes(q); n > 2 {
		t.Fatalf("%d nodes linger after cleanMe exercise", n)
	}
}

func TestDualQueueConservationUnderLoad(t *testing.T) {
	q := NewDualQueue[int64](WaitConfig{})
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
	if !q.vacant() {
		t.Fatal("queue not empty after balanced run")
	}
}

func TestDualQueueMixedTimedUntimedStress(t *testing.T) {
	q := NewDualQueue[int64](WaitConfig{})
	const n = 2000
	var produced, consumed atomic.Int64
	var wg sync.WaitGroup
	// Timed producers against untimed consumers: every successful offer
	// must be consumed; consumers stop via a final poison drain.
	wg.Add(2)
	go func() {
		defer wg.Done()
		for i := int64(0); i < n; i++ {
			if offerTimeout(q, i, time.Millisecond) {
				produced.Add(1)
			}
		}
	}()
	go func() {
		defer wg.Done()
		for {
			if _, ok := pollTimeout(q, 20*time.Millisecond); !ok {
				return // producer exhausted
			}
			consumed.Add(1)
		}
	}()
	wg.Wait()
	if produced.Load() != consumed.Load() {
		t.Fatalf("produced %d != consumed %d", produced.Load(), consumed.Load())
	}
}

func TestDualQueueStatusString(t *testing.T) {
	cases := map[Status]string{OK: "ok", Timeout: "timeout", Canceled: "canceled", Status(99): "invalid"}
	for st, want := range cases {
		if st.String() != want {
			t.Errorf("Status(%d).String() = %q, want %q", int(st), st.String(), want)
		}
	}
}

func TestDualQueueObservers(t *testing.T) {
	q := NewDualQueue[int](WaitConfig{})
	if q.HasWaitingProducer() || q.HasWaitingConsumer() || !q.vacant() {
		t.Fatal("fresh queue misreports state")
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
