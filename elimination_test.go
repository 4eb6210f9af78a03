package synchq

import (
	"context"
	"sync"
	"testing"
	"time"

	"synchq/internal/exchanger"
	"synchq/internal/shard"
)

// In-package tests for the elimination front-end. The public option is
// adaptive only, and an adaptive arena collapses to direct hand-off when
// quiet, so these tests make arena hits deterministic by driving one side
// through the front-end arena's fixed-patience TryGive/TryTake directly.

// front returns q's elimination front-end, failing the test if q has none.
func front[T any](t *testing.T, q *SynchronousQueue[T]) *elimFront[T] {
	t.Helper()
	f, ok := q.impl.(*elimFront[T])
	if !ok {
		t.Fatalf("queue core is %T, want the elimination front-end", q.impl)
	}
	return f
}

func TestEliminatingDefaultIsAdaptive(t *testing.T) {
	if _, ok := New[int]().impl.(*elimFront[int]); ok {
		t.Fatal("New without EliminatingAdaptive built an elimination front-end")
	}
	q := New[int](EliminatingAdaptive())
	if !front(t, q).arena.Adaptive() {
		t.Error("EliminatingAdaptive built a static arena")
	}
	if q.Metrics() != nil {
		t.Error("uninstrumented eliminating queue has non-nil Metrics()")
	}
	// The option wraps whatever core the other options select.
	if _, ok := front(t, New[int](Segmented(), AutoShard(), EliminatingAdaptive())).Handoff.(*shard.Fabric[int]); !ok {
		t.Error("front-end does not wrap the sharded fabric")
	}
}

// TestEliminationWinsOverClose: on a closed eliminating queue, a context
// operation that meets its partner in the arena must still complete — the
// pairing never touches the closed backing queue, and the attempt-first
// contract means nobody pre-rejects it. The partner waits in the arena with
// generous fixed patience; the queue side retries, because once the
// adaptive arena collapses only its periodic re-probes enter the arena.
func TestEliminationWinsOverClose(t *testing.T) {
	q := New[int](EliminatingAdaptive())
	f := front(t, q)
	q.Close()

	gave := make(chan bool, 1)
	go func() { gave <- f.arena.TryGive(42, 5*time.Second) }()
	deadline := time.Now().Add(4 * time.Second)
	for {
		v, err := q.TakeContext(context.Background())
		if err == nil {
			if v != 42 {
				t.Fatalf("TakeContext on closed eliminating queue = %d, want arena hit 42", v)
			}
			break
		}
		if err != ErrClosed || time.Now().After(deadline) {
			t.Fatalf("TakeContext on closed eliminating queue = %v, want an arena hit", err)
		}
	}
	if !<-gave {
		t.Fatal("arena producer missed its partner")
	}

	took := make(chan int, 1)
	go func() {
		v, _ := f.arena.TryTake(5 * time.Second)
		took <- v
	}()
	for {
		err := q.PutContext(context.Background(), 7)
		if err == nil {
			break
		}
		if err != ErrClosed || time.Now().After(deadline) {
			t.Fatalf("PutContext on closed eliminating queue = %v, want an arena hit", err)
		}
	}
	if v := <-took; v != 7 {
		t.Fatalf("arena consumer got %d, want 7", v)
	}

	// Without a partner the arena attempt expires and the backing queue's
	// closed state is still reported faithfully.
	if err := q.PutContext(context.Background(), 1); err != ErrClosed {
		t.Fatalf("unpaired PutContext on closed queue = %v, want ErrClosed", err)
	}
}

func TestInstrumentEliminatingQueue(t *testing.T) {
	m := NewMetrics()
	q := New[int](Instrument(m), EliminatingAdaptive())
	if q.Metrics() != m {
		t.Fatal("Metrics() did not return the instrumented set")
	}
	if q.Fair() || q.Shards() != 1 {
		t.Errorf("default backing queue: Fair = %v, Shards = %d; want unfair, 1", q.Fair(), q.Shards())
	}

	// Arena hits: both parties wait long enough to meet, so every attempt
	// hits and each records one ElimHit into the queue's Metrics.
	const hits = 200
	f := front(t, q)
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < hits; i++ {
			if !f.arena.TryGive(i, 5*time.Second) {
				t.Error("arena give missed")
				return
			}
		}
	}()
	for i := 0; i < hits; i++ {
		if v, ok := f.arena.TryTake(5 * time.Second); !ok || v != i {
			t.Fatalf("arena take %d = (%d, %v), want (%d, true)", i, v, ok, i)
		}
	}
	wg.Wait()
	s := m.Stats()
	if got := s.Counters["elim-hits"]; got != 2*hits {
		t.Errorf("elim-hits = %d, want %d (both parties of every meeting)", got, 2*hits)
	}
	if s.Latency["elim"].Count == 0 {
		t.Errorf("%d arena hits but the elim histogram is empty", 2*hits)
	}

	// Arena misses: the consumer waits on the backing queue itself, so
	// every Put misses in the arena, completes on the backing queue, and
	// times the detour as fallback.
	const puts = 300
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < puts; i++ {
			take(f.Handoff)
		}
	}()
	for i := 0; i < puts; i++ {
		q.Put(i)
	}
	wg.Wait()
	s = m.Stats()
	if got := s.Counters["elim-hits"]; got != 2*hits {
		t.Errorf("elim-hits = %d after backing-queue pairs, want still %d", got, 2*hits)
	}
	if s.Latency["fallback"].Count == 0 {
		t.Errorf("%d puts fell back to the queue but the fallback histogram is empty", puts)
	}
}

func TestExchangerSizeOne(t *testing.T) {
	x := &Exchanger[int]{e: exchanger.NewSize[int](1)}
	done := make(chan int)
	go func() { done <- x.Exchange(10) }()
	if got := x.Exchange(20); got != 10 {
		t.Fatalf("Exchange = %d, want 10", got)
	}
	<-done
}
