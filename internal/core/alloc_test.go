package core

import (
	"runtime"
	"testing"

	"synchq/internal/exchanger"
	"synchq/internal/metrics"
)

// This file pins the zero-allocation hand-off hot path: with value boxes
// and parkers lent by index from per-structure tables and spare-node
// recycling, a steady-state paired Put/Take costs one node allocation per pair
// on the queue (the waiter's linked node, which the ABA doctrine forbids
// pooling) and two on the stack (waiter plus fulfilling node) — at most
// one allocation per operation per side, where the seed implementation
// paid four or more (node, item box, parker, parker channel).

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
		q := NewDualQueue[int64](WaitConfig{}) // Transfer is the queue's Put
		benchPairs(b, q.Put, q.Take)
	})
	b.Run("Exchanger", func(b *testing.B) {
		e := exchanger.New[int64]()
		benchPairs(b,
			func(v int64) { e.Exchange(v) },
			func() int64 { return e.Exchange(0) })
	})
}

// measurePairAllocs reports the steady-state allocations and heap bytes
// per paired put/take, with both sides' allocations counted (both figures
// come from the global allocation counters). The structure is warmed
// first so the pools are primed; -1 is the partner's stop sentinel and
// must not be used as a payload.
func measurePairAllocs(t *testing.T, put func(int64), take func() int64) (allocs, bytes float64) {
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
	const runs = 200
	allocs = testing.AllocsPerRun(runs, func() { put(7) })
	// Bytes under the same conditions AllocsPerRun sets up: one P, and
	// one warm-up call.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	put(7)
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	for i := 0; i < runs; i++ {
		put(7)
	}
	runtime.ReadMemStats(&m1)
	put(-1)
	<-done
	return allocs, float64(m1.TotalAlloc-m0.TotalAlloc) / runs
}

// TestHandoffAllocBudget pins the steady state of BenchmarkHandoffAllocs
// on the spin-success path: one allocation per pair on the queue and the
// transfer queue (the waiter's linked node), two on the stack (waiter plus
// fulfilling node) and at most two on the exchanger — so a wait that
// started allocating, such as a waiter escaping through the shared wait
// loop, fails here. The byte row pins the node sizes behind those counts:
// 16 bytes per pair on the queues (one 16-byte node), 64 on the stack (two
// 32-byte nodes) and 48 on the exchanger (two 24-byte nodes: each party
// builds its node on arrival), so a regrown node fails here too — a queue
// node with a pointer to its value box reads 24, a stack node with an
// embedded box 96. An enormous pinned spin
// budget guarantees waits are fulfilled while spinning (AllocsPerRun pins
// GOMAXPROCS to 1, but spin.Pause yields periodically, so the pair still
// makes progress), which keeps parking and timer machinery out of the
// measurement.
func TestHandoffAllocBudget(t *testing.T) {
	cfg := WaitConfig{Spins: 1 << 30}
	// Under -race sync.Pool drops a quarter of Puts by design. Only the
	// exchanger still makes a pool round trip per pair (its boxes), which
	// then costs up to one extra allocation of up to a line, so only its
	// budget widens there; the dual structures lend from their tables.
	budget := func(t *testing.T, what string, allocs, bytes, wantAllocs, wantBytes float64, pooled bool) {
		t.Helper()
		slack, byteSlack := 0.0, 0.0
		if pooled && raceEnabled {
			slack, byteSlack = 1, 64
		}
		t.Logf("%s pair: %v allocs, %.1f B", what, allocs, bytes)
		if allocs > wantAllocs+slack {
			t.Errorf("allocs per %s pair = %v, want at most %v", what, allocs, wantAllocs+slack)
		}
		if bytes > wantBytes+byteSlack {
			t.Errorf("heap bytes per %s pair = %.1f, want at most %v", what, bytes, wantBytes+byteSlack)
		}
	}

	t.Run("DualQueue", func(t *testing.T) {
		q := NewDualQueue[int64](cfg)
		allocs, bytes := measurePairAllocs(t, q.Put, q.Take)
		budget(t, "put/take", allocs, bytes, 1, 16, false)
	})
	t.Run("DualStack", func(t *testing.T) {
		q := NewDualStack[int64](cfg)
		allocs, bytes := measurePairAllocs(t, q.Put, q.Take)
		budget(t, "put/take", allocs, bytes, 2, 64, false)
	})
	// Instrumented rows: counters and sampled histograms on, same budgets.
	// The first sampled record into each histogram builds it during
	// warm-up; a histogram built once per sample would fail here.
	t.Run("DualQueueInstrumented", func(t *testing.T) {
		q := NewDualQueue[int64](WaitConfig{Metrics: metrics.New(), Spins: 1 << 30})
		allocs, bytes := measurePairAllocs(t, q.Put, q.Take)
		budget(t, "put/take", allocs, bytes, 1, 16, false)
	})
	t.Run("DualStackInstrumented", func(t *testing.T) {
		q := NewDualStack[int64](WaitConfig{Metrics: metrics.New(), Spins: 1 << 30})
		allocs, bytes := measurePairAllocs(t, q.Put, q.Take)
		budget(t, "put/take", allocs, bytes, 2, 64, false)
	})
	t.Run("TransferQueue", func(t *testing.T) {
		q := NewDualQueue[int64](cfg) // Transfer is the queue's Put
		allocs, bytes := measurePairAllocs(t, q.Put, q.Take)
		budget(t, "transfer/take", allocs, bytes, 1, 16, false)
	})
	t.Run("Exchanger", func(t *testing.T) {
		// The exchanger's boxes are pooled, so a steady-state exchange
		// pair recycles both sides' boxes and allocates at most the waiter
		// node and the occasional pool refill.
		e := exchanger.New[int64]()
		allocs, bytes := measurePairAllocs(t,
			func(v int64) { e.Exchange(v) },
			func() int64 { return e.Exchange(0) })
		budget(t, "exchange", allocs, bytes, 2, 48, true)
	})
}

// TestOfferPollMissesDoNotAllocate pins the other hot path the tables and
// pools serve: a missed offer or poll (zero patience, empty structure)
// lends its value box and returns it, so probing an empty queue settles to
// zero allocations.
func TestOfferPollMissesDoNotAllocate(t *testing.T) {
	t.Run("DualQueue", func(t *testing.T) {
		q := NewDualQueue[int64](WaitConfig{})
		for i := 0; i < 10; i++ { // prime the box table
			offer(q, 1)
		}
		if got := testing.AllocsPerRun(100, func() {
			offer(q, 2)
			poll(q)
		}); got > 0 {
			t.Errorf("allocs per missed offer+poll = %v, want 0", got)
		}
	})
	t.Run("DualStack", func(t *testing.T) {
		q := NewDualStack[int64](WaitConfig{})
		for i := 0; i < 10; i++ {
			offer(q, 1)
		}
		if got := testing.AllocsPerRun(100, func() {
			offer(q, 2)
			poll(q)
		}); got > 0 {
			t.Errorf("allocs per missed offer+poll = %v, want 0", got)
		}
	})
}
