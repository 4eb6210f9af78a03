package core

import (
	"testing"

	"synchq/internal/exchanger"
)

// This file pins the zero-allocation hand-off hot path: with pooled item
// boxes, spare-node recycling, and embedded parkers, a steady-state paired
// Put/Take costs one node allocation per pair on the queue (the waiter's
// linked node, which the ABA doctrine forbids pooling) and two on the stack
// (waiter plus fulfilling node) — at most one allocation per operation per
// side, where the seed implementation paid four or more (node, item box,
// parker, parker channel).

// benchPairs drives b.N paired hand-offs: a partner goroutine takes while
// the benchmark goroutine puts.
func benchPairs(b *testing.B, put func(int64), take func() int64) {
	b.ReportAllocs()
	done := make(chan struct{})
	go func() {
		for i := 0; i < b.N; i++ {
			take()
		}
		close(done)
	}()
	for i := 0; i < b.N; i++ {
		put(int64(i))
	}
	<-done
}

// BenchmarkHandoffAllocs reports allocations per paired hand-off for the
// three dual structures and the exchanger under the default wait policy
// (adaptive spinning, parking allowed). The allocs/op figure is per pair:
// divide by two for the per-side cost.
func BenchmarkHandoffAllocs(b *testing.B) {
	b.Run("DualQueue", func(b *testing.B) {
		q := NewDualQueue[int64](WaitConfig{})
		benchPairs(b, q.Put, q.Take)
	})
	b.Run("DualStack", func(b *testing.B) {
		q := NewDualStack[int64](WaitConfig{})
		benchPairs(b, q.Put, q.Take)
	})
	b.Run("TransferQueue", func(b *testing.B) {
		q := NewTransferQueue[int64](WaitConfig{})
		benchPairs(b, q.Transfer, q.Take)
	})
	b.Run("Exchanger", func(b *testing.B) {
		e := exchanger.New[int64]()
		benchPairs(b,
			func(v int64) { e.Exchange(v) },
			func() int64 { return e.Exchange(0) })
	})
}

// measurePairAllocs reports the steady-state allocations per paired
// put/take, with both sides' allocations counted (testing.AllocsPerRun
// measures the global allocation counter). The structure is warmed first so
// the pools are primed; -1 is the partner's stop sentinel and must not be
// used as a payload.
func measurePairAllocs(t *testing.T, put func(int64), take func() int64) float64 {
	t.Helper()
	done := make(chan struct{})
	go func() {
		for take() != -1 {
		}
		close(done)
	}()
	for i := 0; i < 200; i++ {
		put(int64(i))
	}
	got := testing.AllocsPerRun(200, func() { put(7) })
	put(-1)
	<-done
	return got
}

// TestHandoffAllocBudget pins the steady state of BenchmarkHandoffAllocs
// on the spin-success path: one allocation per pair on the queue and the
// transfer queue (the waiter's linked node), two on the stack (waiter plus
// fulfilling node) and at most two on the exchanger — so a wait that
// started allocating, such as a waiter escaping through the shared wait
// loop, fails here. An enormous pinned spin budget guarantees waits are
// fulfilled while spinning (AllocsPerRun pins GOMAXPROCS to 1, but
// spin.Pause yields periodically, so the pair still makes progress), which
// keeps parking and timer machinery out of the measurement.
func TestHandoffAllocBudget(t *testing.T) {
	cfg := WaitConfig{Spins: 1 << 30}
	// Under -race sync.Pool drops a quarter of Puts by design; with a pool
	// round trip per pair that costs up to one extra allocation, so the
	// budgets widen there.
	slack := 0.0
	if raceEnabled {
		slack = 1
	}
	budget := func(t *testing.T, what string, got, want float64) {
		t.Helper()
		if got > want+slack {
			t.Errorf("allocs per %s pair = %v, want at most %v", what, got, want+slack)
		}
	}

	t.Run("DualQueue", func(t *testing.T) {
		q := NewDualQueue[int64](cfg)
		budget(t, "put/take", measurePairAllocs(t, q.Put, q.Take), 1)
	})
	t.Run("DualStack", func(t *testing.T) {
		q := NewDualStack[int64](cfg)
		budget(t, "put/take", measurePairAllocs(t, q.Put, q.Take), 2)
	})
	t.Run("TransferQueue", func(t *testing.T) {
		q := NewTransferQueue[int64](cfg)
		budget(t, "transfer/take", measurePairAllocs(t, q.Transfer, q.Take), 1)
	})
	t.Run("Exchanger", func(t *testing.T) {
		// The exchanger's boxes are pooled like the dual structures' item
		// boxes, so a steady-state exchange pair recycles both sides' boxes
		// and allocates at most the waiter node and the occasional pool
		// refill.
		e := exchanger.New[int64]()
		got := measurePairAllocs(t,
			func(v int64) { e.Exchange(v) },
			func() int64 { return e.Exchange(0) })
		budget(t, "exchange", got, 2)
	})
}

// TestOfferPollMissesDoNotAllocate pins the other hot path the pools serve:
// a missed offer or poll (zero patience, empty structure) gets its item box
// from the pool and returns it, so probing an empty queue settles to zero
// allocations.
func TestOfferPollMissesDoNotAllocate(t *testing.T) {
	t.Run("DualQueue", func(t *testing.T) {
		q := NewDualQueue[int64](WaitConfig{})
		for i := 0; i < 10; i++ { // prime the item pool
			q.Offer(1)
		}
		if got := testing.AllocsPerRun(100, func() {
			q.Offer(2)
			q.Poll()
		}); got > 0 {
			t.Errorf("allocs per missed offer+poll = %v, want 0", got)
		}
	})
	t.Run("DualStack", func(t *testing.T) {
		q := NewDualStack[int64](WaitConfig{})
		for i := 0; i < 10; i++ {
			q.Offer(1)
		}
		if got := testing.AllocsPerRun(100, func() {
			q.Offer(2)
			q.Poll()
		}); got > 0 {
			t.Errorf("allocs per missed offer+poll = %v, want 0", got)
		}
	})
}
