package core

import (
	"sync"
	"testing"
	"time"
)

func TestTransferQueuePutIsAsync(t *testing.T) {
	q := NewDualQueue[int](WaitConfig{})
	done := make(chan struct{})
	go func() {
		for i := 0; i < 10; i++ {
			q.PutAsync(i)
		}
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("asynchronous Put blocked")
	}
	if !q.HasWaitingProducer() {
		t.Fatal("buffered data not observed")
	}
	for i := 0; i < 10; i++ {
		if v := q.Take(); v != i {
			t.Fatalf("Take = %d, want %d (FIFO violated)", v, i)
		}
	}
}

func TestTransferQueueTransferIsSync(t *testing.T) {
	q := NewDualQueue[int](WaitConfig{})
	delivered := make(chan struct{})
	go func() {
		q.Put(42)
		close(delivered)
	}()
	time.Sleep(10 * time.Millisecond)
	select {
	case <-delivered:
		t.Fatal("Transfer returned before a consumer took the element")
	default:
	}
	if v := q.Take(); v != 42 {
		t.Fatalf("Take = %d, want 42", v)
	}
	select {
	case <-delivered:
	case <-time.After(5 * time.Second):
		t.Fatal("Transfer never returned after Take")
	}
}

func TestTransferQueueTryTransfer(t *testing.T) {
	q := NewDualQueue[int](WaitConfig{})
	if offer(q, 1) {
		t.Fatal("TryTransfer succeeded with no waiting consumer")
	}
	done := make(chan int)
	go func() { done <- q.Take() }()
	// Wait for the consumer to be registered.
	deadline := time.Now().Add(5 * time.Second)
	for !q.HasWaitingConsumer() {
		if time.Now().After(deadline) {
			t.Fatal("consumer never registered")
		}
		time.Sleep(100 * time.Microsecond)
	}
	if !offer(q, 2) {
		t.Fatal("TryTransfer failed with a waiting consumer")
	}
	if got := <-done; got != 2 {
		t.Fatalf("Take = %d, want 2", got)
	}
}

func TestTransferQueueTransferTimeout(t *testing.T) {
	q := NewDualQueue[int](WaitConfig{})
	if offerTimeout(q, 1, 20*time.Millisecond) {
		t.Fatal("TransferTimeout succeeded with no consumer")
	}
	// The timed-out element must not be visible to a later Poll.
	if _, ok := poll(q); ok {
		t.Fatal("Poll returned an element from a timed-out Transfer")
	}
}

func TestTransferQueueMixedSyncAsyncFIFO(t *testing.T) {
	// Async elements and waiting sync producers share one FIFO order.
	q := NewDualQueue[int](WaitConfig{})
	q.PutAsync(1)
	q.PutAsync(2)
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		q.Put(3)
	}()
	// Wait until the sync producer is queued behind the async data.
	deadline := time.Now().Add(5 * time.Second)
	for q.Len() != 3 {
		if time.Now().After(deadline) {
			t.Fatalf("sync producer never queued (Len=%d)", q.Len())
		}
		time.Sleep(100 * time.Microsecond)
	}
	for want := 1; want <= 3; want++ {
		if v := q.Take(); v != want {
			t.Fatalf("Take = %d, want %d", v, want)
		}
	}
	wg.Wait()
}

func TestTransferQueuePollTimeout(t *testing.T) {
	q := NewDualQueue[int](WaitConfig{})
	if _, ok := pollTimeout(q, 10*time.Millisecond); ok {
		t.Fatal("PollTimeout succeeded on empty queue")
	}
	q.PutAsync(7)
	if v, ok := pollTimeout(q, time.Second); !ok || v != 7 {
		t.Fatalf("PollTimeout = (%d,%v), want (7,true)", v, ok)
	}
}

func TestTransferQueueTakeDeadlineCancel(t *testing.T) {
	q := NewDualQueue[int](WaitConfig{})
	cancel := make(chan struct{})
	done := make(chan Status)
	go func() {
		_, st := q.TakeDeadline(time.Time{}, cancel)
		done <- st
	}()
	time.Sleep(5 * time.Millisecond)
	close(cancel)
	if st := <-done; st != Canceled {
		t.Fatalf("TakeDeadline status = %v, want Canceled", st)
	}
}

func TestTransferQueueConcurrentMixedLoad(t *testing.T) {
	q := NewDualQueue[int64](WaitConfig{})
	const producers, perProducer = 4, 500
	var wg sync.WaitGroup
	for p := 0; p < producers; p++ {
		wg.Add(1)
		go func(id int64) {
			defer wg.Done()
			for i := int64(0); i < perProducer; i++ {
				if i%2 == 0 {
					q.PutAsync(id<<32 | i) // async
				} else {
					q.Put(id<<32 | i) // sync
				}
			}
		}(int64(p))
	}
	seen := make(map[int64]bool)
	var mu sync.Mutex
	var cg sync.WaitGroup
	for c := 0; c < 4; c++ {
		cg.Add(1)
		go func() {
			defer cg.Done()
			for i := 0; i < producers*perProducer/4; i++ {
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
	cg.Wait()
	if len(seen) != producers*perProducer {
		t.Fatalf("delivered %d values, want %d", len(seen), producers*perProducer)
	}
}

func TestTransferQueueDrain(t *testing.T) {
	q := NewDualQueue[int](WaitConfig{})
	if got := drain(q); len(got) != 0 {
		t.Fatalf("Drain of empty queue = %v", got)
	}
	q.PutAsync(1)
	q.PutAsync(2)
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		q.Put(3) // waiting synchronous producer joins the FIFO
	}()
	deadline := time.Now().Add(5 * time.Second)
	for q.Len() != 3 {
		if time.Now().After(deadline) {
			t.Fatal("sync producer never queued")
		}
		time.Sleep(100 * time.Microsecond)
	}
	got := drain(q)
	wg.Wait()
	if len(got) != 3 || got[0] != 1 || got[1] != 2 || got[2] != 3 {
		t.Fatalf("Drain = %v, want [1 2 3]", got)
	}
	if !q.vacant() {
		t.Fatal("queue not empty after Drain")
	}
}
