package synchq

import (
	"context"
	"sync"
	"testing"
	"time"
)

// Public-surface tests for the Sharded and EliminatingAdaptive options: the
// compositions layered on top of the core structures, exercised through
// the same API the README documents.

func TestShardedOptionRoundTrip(t *testing.T) {
	q := New[int](Fair(true), Sharded(4))
	if got := q.Shards(); got != 4 {
		t.Fatalf("Shards() = %d, want 4", got)
	}
	if !q.Fair() {
		t.Error("Fair() = false for a fair sharded queue")
	}

	const n = 2000
	const workers = 4
	var wg sync.WaitGroup
	var mu sync.Mutex
	sum := 0
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			local := 0
			for i := 0; i < n/workers; i++ {
				local += q.Take()
			}
			mu.Lock()
			sum += local
			mu.Unlock()
		}()
	}
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(base int) {
			defer wg.Done()
			for i := 0; i < n/workers; i++ {
				q.Put(base + i)
			}
		}(w * (n / workers))
	}
	wg.Wait()
	if want := n * (n - 1) / 2; sum != want {
		t.Errorf("sum of transfers = %d, want %d", sum, want)
	}
	if !q.IsEmpty() {
		t.Error("sharded queue not empty after balanced run")
	}
}

func TestShardedOptionRounding(t *testing.T) {
	if got := New[int](Sharded(3)).Shards(); got != 4 {
		t.Errorf("Sharded(3) built %d shards, want 4", got)
	}
	// Sharded(0) now means adaptive: the fabric starts collapsed at
	// width 1 with a GOMAXPROCS-sized ceiling.
	q0 := New[int](Sharded(0))
	if got := q0.Shards(); got != 1 {
		t.Errorf("Sharded(0) starts at effective width %d, want 1 (adaptive)", got)
	}
	if got := q0.MaxShards(); got < 1 {
		t.Errorf("Sharded(0) ceiling = %d, want >= 1 (GOMAXPROCS-sized)", got)
	}
	if st, ok := q0.FabricStats(); !ok || !st.Adaptive {
		t.Errorf("Sharded(0) FabricStats = %+v, %v; want adaptive fabric", st, ok)
	}
	if got := New[int]().Shards(); got != 1 {
		t.Errorf("unsharded queue reports Shards() = %d, want 1", got)
	}
}

func TestShardedContextAndClose(t *testing.T) {
	q := New[int](Fair(true), Sharded(2))

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Millisecond)
	defer cancel()
	if _, err := q.TakeContext(ctx); err != ErrTimeout {
		t.Errorf("TakeContext on empty sharded queue = %v, want ErrTimeout", err)
	}

	done := make(chan error, 1)
	go func() {
		_, err := q.TakeContext(context.Background())
		done <- err
	}()
	time.Sleep(2 * time.Millisecond)
	q.Close()
	select {
	case err := <-done:
		if err != ErrClosed {
			t.Errorf("TakeContext after Close = %v, want ErrClosed", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("TakeContext stranded after Close")
	}
	if !q.Closed() {
		t.Error("Closed() = false after Close")
	}
	if err := q.PutContext(context.Background(), 1); err != ErrClosed {
		t.Errorf("PutContext on closed sharded queue = %v, want ErrClosed", err)
	}
}

func TestShardedUnfair(t *testing.T) {
	q := New[int](Fair(false), Sharded(2))
	done := make(chan int)
	go func() { done <- q.Take() }()
	deadline := time.Now().Add(2 * time.Second)
	for !q.Offer(5) {
		if time.Now().After(deadline) {
			t.Fatal("Offer never found the waiting consumer")
		}
		time.Sleep(time.Millisecond)
	}
	if got := <-done; got != 5 {
		t.Errorf("Take = %d, want 5", got)
	}
}

func TestEliminatingAdaptiveRoundTrip(t *testing.T) {
	e := New[int](Fair(true), EliminatingAdaptive())
	if _, ok := e.impl.(*elimFront[int]); !ok {
		t.Fatalf("EliminatingAdaptive built %T, want the elimination front-end", e.impl)
	}
	const n = 1000
	done := make(chan int)
	go func() {
		sum := 0
		for i := 0; i < n; i++ {
			sum += e.Take()
		}
		done <- sum
	}()
	for i := 0; i < n; i++ {
		e.Put(i)
	}
	if got := <-done; got != n*(n-1)/2 {
		t.Errorf("sum = %d, want %d", got, n*(n-1)/2)
	}
	if !e.IsEmpty() {
		t.Error("eliminating queue not empty after balanced run")
	}
}

func TestEliminatingAdaptiveParitySurface(t *testing.T) {
	e := New[int](Fair(true), EliminatingAdaptive())

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Millisecond)
	defer cancel()
	if _, err := e.TakeContext(ctx); err != ErrTimeout {
		t.Errorf("TakeContext = %v, want ErrTimeout", err)
	}
	if ok := e.OfferWait(1, time.Now().Add(5*time.Millisecond), nil); ok {
		t.Error("OfferWait succeeded with no consumer")
	}
	if _, ok := e.PollWait(time.Now().Add(5*time.Millisecond), nil); ok {
		t.Error("PollWait succeeded with no producer")
	}
	if e.HasWaitingConsumer() || e.HasWaitingProducer() || !e.IsEmpty() {
		t.Error("empty eliminating queue reports waiters")
	}

	go func() {
		time.Sleep(2 * time.Millisecond)
		e.Put(9)
	}()
	if v, err := e.TakeContext(context.Background()); err != nil || v != 9 {
		t.Errorf("TakeContext = (%d,%v), want (9,nil)", v, err)
	}

	e.Close()
	if !e.Closed() {
		t.Error("Closed() = false after Close")
	}
	if err := e.PutContext(context.Background(), 1); err != ErrClosed {
		t.Errorf("PutContext on closed eliminating queue = %v, want ErrClosed", err)
	}
	if _, err := e.TakeContext(context.Background()); err != ErrClosed {
		t.Errorf("TakeContext on closed eliminating queue = %v, want ErrClosed", err)
	}
}

func TestEliminatingAdaptiveSharded(t *testing.T) {
	// The two features compose: an adaptive arena in front of a sharded
	// fair queue — the configuration the scaling benchmark headlines.
	e := New[int](Fair(true), Sharded(2), EliminatingAdaptive())
	const n = 500
	done := make(chan struct{})
	go func() {
		for i := 0; i < n; i++ {
			e.Take()
		}
		close(done)
	}()
	for i := 0; i < n; i++ {
		e.Put(i)
	}
	<-done
	if !e.IsEmpty() {
		t.Error("composed queue not empty after balanced run")
	}
}
