package shard

import (
	"runtime"
	"sync"
	"testing"
	"time"

	"synchq/internal/core"
	"synchq/internal/metrics"
)

// newQueueFabric builds an n-shard fabric of fair dual queues sharing one
// metrics handle.
func newQueueFabric(n int, h *metrics.Handle) *Fabric[int64] {
	return New(n, func(int) Dual[int64] {
		return core.NewDualQueue[int64](core.WaitConfig{Metrics: h})
	}).SetMetrics(h)
}

func TestCeilPow2(t *testing.T) {
	for _, tc := range []struct{ in, want int }{
		{1, 1}, {2, 2}, {3, 4}, {4, 4}, {5, 8}, {8, 8}, {9, 16},
		{63, 64}, {64, 64}, {65, 64}, {1000, 64},
	} {
		if got := ceilPow2(tc.in); got != tc.want {
			t.Errorf("ceilPow2(%d) = %d, want %d", tc.in, got, tc.want)
		}
	}
}

func TestNewRoundsShardCount(t *testing.T) {
	if got := newQueueFabric(3, nil).Shards(); got != 4 {
		t.Errorf("New(3) built %d shards, want 4", got)
	}
	if got := newQueueFabric(0, nil).Shards(); got != DefaultShards() {
		t.Errorf("New(0) built %d shards, want DefaultShards()=%d", got, DefaultShards())
	}
}

func TestNearestBit(t *testing.T) {
	for _, tc := range []struct {
		avail uint64
		home  int
		want  int
	}{
		{1 << 5, 5, 5},       // home itself
		{1 << 5, 0, 5},       // above home
		{1 << 2, 5, 2},       // wraps around
		{1<<2 | 1<<7, 5, 7},  // nearest cyclically above wins
		{1<<2 | 1<<7, 1, 2},  // from 1, bit 2 is nearer than 7
		{1, 63, 0},           // wrap from the top
		{1 << 63, 0, 63},     // far bit
		{^uint64(0), 17, 17}, // all set: home
	} {
		if got := nearestBit(tc.avail, tc.home); got != tc.want {
			t.Errorf("nearestBit(%#x, %d) = %d, want %d", tc.avail, tc.home, got, tc.want)
		}
	}
}

func TestPutTakePairsAcrossShards(t *testing.T) {
	f := newQueueFabric(4, nil)
	const n = 4000
	const workers = 4
	var sum int64
	var wg sync.WaitGroup
	var mu sync.Mutex
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			local := int64(0)
			for i := 0; i < n/workers; i++ {
				local += f.Take()
			}
			mu.Lock()
			sum += local
			mu.Unlock()
		}()
	}
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(base int64) {
			defer wg.Done()
			for i := int64(0); i < n/workers; i++ {
				f.Put(base + i)
			}
		}(int64(w) * (n / workers))
	}
	// A stranded pair parks both sides forever; bound the wait so the hang
	// fails with every goroutine's stack instead of stalling the run.
	finished := make(chan struct{})
	go func() { wg.Wait(); close(finished) }()
	select {
	case <-finished:
	case <-time.After(30 * time.Second):
		buf := make([]byte, 1<<20)
		t.Fatalf("workers still blocked after 30s (stranded hand-off); goroutines:\n%s", buf[:runtime.Stack(buf, true)])
	}
	if want := int64(n) * (n - 1) / 2; sum != want {
		t.Errorf("sum of transferred values = %d, want %d (lost or duplicated hand-off)", sum, want)
	}
	if !f.IsEmpty() {
		t.Error("fabric not empty after balanced run")
	}
}

func TestOfferPollRequireWaiter(t *testing.T) {
	f := newQueueFabric(4, nil)
	if f.Offer(1) {
		t.Error("Offer succeeded on an empty fabric")
	}
	if _, ok := f.Poll(); ok {
		t.Error("Poll succeeded on an empty fabric")
	}
	done := make(chan int64)
	go func() { done <- f.Take() }()
	// The taker parks on a random shard; the offer's sweep must find it
	// there whatever our home draw is.
	deadline := time.Now().Add(2 * time.Second)
	for !f.Offer(42) {
		if time.Now().After(deadline) {
			t.Fatal("Offer never found the waiting consumer")
		}
		time.Sleep(time.Millisecond)
	}
	if got := <-done; got != 42 {
		t.Errorf("Take = %d, want 42", got)
	}
}

func TestOfferTimeoutExpiresAndPairs(t *testing.T) {
	f := newQueueFabric(2, nil)
	t0 := time.Now()
	if f.OfferTimeout(1, 10*time.Millisecond) {
		t.Error("OfferTimeout succeeded with no consumer")
	}
	if time.Since(t0) < 10*time.Millisecond {
		t.Error("OfferTimeout returned before its patience expired")
	}
	go func() {
		time.Sleep(5 * time.Millisecond)
		f.Put(7)
	}()
	if v, ok := f.PollTimeout(2 * time.Second); !ok || v != 7 {
		t.Errorf("PollTimeout = (%d,%v), want (7,true)", v, ok)
	}
}

func TestCancelUnblocksWaiters(t *testing.T) {
	f := newQueueFabric(4, nil)
	cancel := make(chan struct{})
	done := make(chan core.Status)
	go func() {
		_, st := f.TakeDeadline(time.Time{}, cancel)
		done <- st
	}()
	time.Sleep(2 * time.Millisecond)
	close(cancel)
	if st := <-done; st != core.Canceled {
		t.Errorf("canceled TakeDeadline status = %v, want Canceled", st)
	}
	if f.HasWaitingConsumer() {
		t.Error("fabric still reports a waiting consumer after cancellation")
	}
}

func TestCloseWakesWaitersAndRefusesNewWork(t *testing.T) {
	f := newQueueFabric(4, nil)
	// All waiters are consumers — a mixed population would pair up instead
	// of waiting for Close. (The producer side of the wake-on-close path is
	// covered by TestCloseWakesProducers.)
	const waiters = 6
	statuses := make(chan core.Status, waiters)
	for i := 0; i < waiters; i++ {
		go func() {
			_, st := f.TakeDeadline(time.Time{}, nil)
			statuses <- st
		}()
	}
	// Let the waiters commit to their shards before closing.
	time.Sleep(5 * time.Millisecond)
	f.Close()
	for i := 0; i < waiters; i++ {
		select {
		case st := <-statuses:
			if st != core.Closed {
				t.Errorf("waiter %d woke with status %v, want Closed", i, st)
			}
		case <-time.After(2 * time.Second):
			t.Fatalf("waiter %d stranded after Close", i)
		}
	}
	if !f.Closed() {
		t.Error("Closed() = false after Close")
	}
	if st := f.PutDeadline(1, time.Time{}, nil); st != core.Closed {
		t.Errorf("PutDeadline on closed fabric = %v, want Closed", st)
	}
	if f.Offer(1) {
		t.Error("Offer succeeded on a closed fabric")
	}
	func() {
		defer func() {
			if r := recover(); r != errClosedDemand {
				t.Errorf("Put on closed fabric panicked with %v, want %q", r, errClosedDemand)
			}
		}()
		f.Put(1)
	}()
}

func TestCloseWakesProducers(t *testing.T) {
	f := newQueueFabric(4, nil)
	const waiters = 6
	statuses := make(chan core.Status, waiters)
	for i := 0; i < waiters; i++ {
		go func(i int) {
			statuses <- f.PutDeadline(int64(i), time.Time{}, nil)
		}(i)
	}
	time.Sleep(5 * time.Millisecond)
	f.Close()
	for i := 0; i < waiters; i++ {
		select {
		case st := <-statuses:
			if st != core.Closed {
				t.Errorf("producer %d woke with status %v, want Closed", i, st)
			}
		case <-time.After(2 * time.Second):
			t.Fatalf("producer %d stranded after Close", i)
		}
	}
}

func TestCloseIdempotentAndConcurrent(t *testing.T) {
	f := newQueueFabric(4, nil)
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() { defer wg.Done(); f.Close() }()
	}
	wg.Wait()
	if !f.Closed() {
		t.Error("fabric not closed after concurrent Close calls")
	}
}

func TestReservationsPinToShardAndPair(t *testing.T) {
	f := newQueueFabric(4, nil)
	tkt, ok := f.ReservePut(9)
	if ok || tkt == nil {
		t.Fatalf("ReservePut on empty fabric = (%v,%v), want a pinned ticket", tkt, ok)
	}
	// The pinned reservation must be visible to a consumer's sweep.
	v, tk2, ok := f.ReserveTake()
	if !ok || tk2 != nil || v != 9 {
		t.Fatalf("ReserveTake = (%d,%v,%v), want immediate (9,nil,true)", v, tk2, ok)
	}
	// A put ticket's followup reports fulfillment; the datum traveled to
	// the consumer.
	if _, ok := tkt.TryFollowup(); !ok {
		t.Error("producer followup did not report fulfillment")
	}

	// And symmetrically: a pinned take reservation absorbs a later put.
	_, tkt3, ok := f.ReserveTake()
	if ok || tkt3 == nil {
		t.Fatal("second ReserveTake should pin a ticket on the empty fabric")
	}
	if tk, ok := f.ReservePut(11); !ok || tk != nil {
		t.Fatal("ReservePut should have fulfilled the pinned take reservation")
	}
	if got, ok := tkt3.TryFollowup(); !ok || got != 11 {
		t.Errorf("consumer followup = (%d,%v), want (11,true)", got, ok)
	}

	// Aborted reservations leave the fabric clean.
	_, tkt4, ok := f.ReserveTake()
	if ok {
		t.Fatal("ReserveTake found a counterpart on a drained fabric")
	}
	if !tkt4.Abort() {
		t.Error("Abort of an unmatched reservation failed")
	}
	if !f.IsEmpty() {
		t.Error("fabric not empty after aborted reservation")
	}
}

// TestStealIsCountedAndPairs pins the steal arc deterministically: a
// reservation pinned to a known shard, then a sweep homed elsewhere must
// find it, transfer the value, and count a ShardSteals event.
func TestStealIsCountedAndPairs(t *testing.T) {
	h := metrics.New()
	f := newQueueFabric(4, h)
	const shard = 2
	tkt, ok := f.Shard(shard).ReservePut(33)
	if ok {
		t.Fatal("ReservePut found a counterpart on an empty shard")
	}
	setBit(&f.prod, 1<<shard)

	home := (shard + 1) & f.mask
	v, ok := f.sweepTake(home, false, 0, &sweepStat{})
	if !ok || v != 33 {
		t.Fatalf("sweepTake(home=%d) = (%d,%v), want (33,true)", home, v, ok)
	}
	if got := h.Snapshot().Get(metrics.ShardSteals); got != 1 {
		t.Errorf("ShardSteals = %d after a cross-shard rescue, want 1", got)
	}
	if _, ok := tkt.TryFollowup(); !ok {
		t.Error("stolen producer's followup did not report fulfillment")
	}

	// A sweep homed on the reservation's own shard is a local pairing, not
	// a steal.
	tkt2, _ := f.Shard(shard).ReservePut(44)
	setBit(&f.prod, 1<<shard)
	if v, ok := f.sweepTake(shard, false, 0, &sweepStat{}); !ok || v != 44 {
		t.Fatalf("home sweep = (%d,%v), want (44,true)", v, ok)
	}
	if got := h.Snapshot().Get(metrics.ShardSteals); got != 1 {
		t.Errorf("ShardSteals = %d after a home-shard pairing, want still 1", got)
	}
	tkt2.TryFollowup()
}

// TestSweepClearsStaleBits verifies the summaries stay tight: a bit left
// set after its waiter is gone is dropped by the next sweep that probes it.
func TestSweepClearsStaleBits(t *testing.T) {
	f := newQueueFabric(4, nil)
	setBit(&f.prod, 1<<1)
	if _, ok := f.sweepTake(0, false, 0, &sweepStat{}); ok {
		t.Fatal("sweep paired on an empty fabric")
	}
	if f.prod.Load() != 0 {
		t.Errorf("stale prod bit survived the sweep: %#x", f.prod.Load())
	}
}
