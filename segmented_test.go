package synchq_test

import (
	"context"
	"errors"
	"runtime"
	"sync"
	"testing"
	"time"

	"synchq"
)

// Public-surface tests for the Segmented option. The conformance suite
// already runs the demand/timed contracts over segmented and
// segmented+sharded builds; these pin the option-specific behavior —
// reported fairness, composition with Sharded and Instrument, and the
// closed-queue error surface.

func TestSegmentedOptionRoundTrip(t *testing.T) {
	q := synchq.New[int](synchq.Segmented())
	if !q.Fair() {
		t.Error("Fair() = false for a segmented queue; pairing is FIFO by arrival")
	}
	if got := q.Shards(); got != 1 {
		t.Errorf("Shards() = %d for an unsharded segmented queue, want 1", got)
	}

	const n = 2000
	var wg sync.WaitGroup
	sum := 0
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < n; i++ {
			sum += q.Take()
		}
	}()
	for i := 0; i < n; i++ {
		q.Put(i)
	}
	wg.Wait()
	if want := n * (n - 1) / 2; sum != want {
		t.Fatalf("sum of transferred values = %d, want %d", sum, want)
	}
}

func TestSegmentedSharded(t *testing.T) {
	q := synchq.New[int](synchq.Segmented(), synchq.Sharded(4))
	if got := q.Shards(); got != 4 {
		t.Fatalf("Shards() = %d, want 4", got)
	}
	const n = 1000
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
	for i := 0; i < n; i++ {
		q.Put(i)
	}
	wg.Wait()
	if want := n * (n - 1) / 2; sum != want {
		t.Fatalf("sum across shards = %d, want %d", sum, want)
	}
}

func TestSegmentedInstrumented(t *testing.T) {
	m := synchq.NewMetrics()
	q := synchq.New[int](synchq.Segmented(), synchq.Instrument(m))
	done := make(chan int)
	go func() { done <- q.Take() }()
	q.Put(1)
	<-done
	if _, ok := q.PollTimeout(time.Millisecond); ok {
		t.Fatal("PollTimeout succeeded with no producer")
	}
	stats := m.Stats()
	if got := stats.Counters["fulfillments"]; got != 1 {
		t.Errorf("fulfillments = %d, want 1", got)
	}
	if got := stats.Counters["timeouts"]; got == 0 {
		t.Error("timeouts = 0 after a timed-out poll")
	}
}

func TestSegmentedContextAndClose(t *testing.T) {
	q := synchq.New[int](synchq.Segmented())

	ctx, cancel := context.WithCancel(context.Background())
	errc := make(chan error, 1)
	go func() {
		_, err := q.TakeContext(ctx)
		errc <- err
	}()
	time.Sleep(time.Millisecond)
	cancel()
	if err := <-errc; !errors.Is(err, context.Canceled) {
		t.Fatalf("canceled TakeContext error = %v, want context.Canceled", err)
	}

	statuses := make(chan error, 2)
	for i := 0; i < 2; i++ {
		go func() {
			statuses <- q.PutContext(context.Background(), 1)
		}()
	}
	time.Sleep(time.Millisecond)
	q.Close()
	for i := 0; i < 2; i++ {
		if err := <-statuses; !errors.Is(err, synchq.ErrClosed) {
			t.Fatalf("post-close waiter error = %v, want ErrClosed", err)
		}
	}
	if !q.Closed() {
		t.Fatal("Closed() = false after Close")
	}
	if err := q.PutContext(context.Background(), 2); !errors.Is(err, synchq.ErrClosed) {
		t.Fatalf("PutContext on closed queue = %v, want ErrClosed", err)
	}
}

// TestSegmentedBuildBytes pins what building a Segmented() queue costs: the
// queue, its first 64-cell segment (896 B), and the parker table's first
// chunk and notifier, which the first parked wait would otherwise build
// at the bottom of a fresh goroutine's call chain: 10 allocations and
// 2064 B (BenchmarkNew/Segmented counts its option slice too, 11 and
// 2072). A spare segment built up front as well would cost an eleventh
// allocation and 896 B more; two-word cells, 256 B more.
func TestSegmentedBuildBytes(t *testing.T) {
	const allocLimit, byteLimit = 10, 2100
	const builds = 32
	sink := make([]*synchq.SynchronousQueue[int64], builds)
	best, allocs := uint64(1<<63-1), uint64(1<<63-1)
	for round := 0; round < 3; round++ { // the least-disturbed round counts
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		for i := range sink {
			sink[i] = synchq.New[int64](synchq.Segmented())
		}
		runtime.ReadMemStats(&m1)
		best = min(best, (m1.TotalAlloc-m0.TotalAlloc)/builds)
		allocs = min(allocs, (m1.Mallocs-m0.Mallocs)/builds)
	}
	t.Logf("Segmented() queue: %d allocations, %d B per build", allocs, best)
	if best > byteLimit {
		t.Errorf("building a Segmented() queue allocates %d B, want at most %d", best, byteLimit)
	}
	if allocs > allocLimit {
		t.Errorf("building a Segmented() queue makes %d allocations, want at most %d", allocs, allocLimit)
	}
}
