package segq

import (
	"runtime"
	"sync"
	"testing"
	"time"

	"synchq/internal/core"
)

// The segmented core's memory-bound invariants, mirroring the PR 3 pool
// leak tests: a cancellation storm must not grow the structure. Two
// instruments pin it down — LiveSegments bounds what the structure still
// reaches, and a finalizer on an early segment proves unlinked segments
// actually become garbage (splicing that leaves a stale reference behind
// would pass the count but fail the finalizer).

// liveSegmentCeiling is the steady-state bound the storm tests assert:
// after a storm fully resolves, the structure may retain the tail segment
// plus a short, racily-lagging prefix (head advances with unlinking, not
// synchronously) — a constant, independent of storm size.
const liveSegmentCeiling = 4

// expectLiveSegmentsBelow polls (unlinking is asynchronous with respect to
// the storm's waiters returning) until the reachable-segment count drops
// to the ceiling.
func expectLiveSegmentsBelow[T any](t *testing.T, q *Queue[T], want int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		if n := q.LiveSegments(); n <= want {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("live segments = %d after storm, want <= %d", q.LiveSegments(), want)
		}
		time.Sleep(time.Millisecond)
	}
}

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

// expectCollected loops the collector until the finalizer-backed channel
// closes, failing after a bounded number of cycles.
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
	t.Fatalf("%s was never collected: the structure still references it", what)
}

// TestCancellationStormSegmentBound is the tentpole's provable-bound test:
// N timed waiters all expire, and the structure must end with O(1) live
// segments (the storm transiently occupies N/SegSize segments, every one
// of which must be unlinked once fully broken) and zero stranded waiter
// goroutines or parkers.
func TestCancellationStormSegmentBound(t *testing.T) {
	base := runtime.NumGoroutine()
	q := New[int](core.WaitConfig{})
	const waiters = 16 * SegSize
	var wg sync.WaitGroup
	for i := 0; i < waiters; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			if i%2 == 0 {
				offerTimeout(q, i, time.Duration(1+i%5)*time.Millisecond)
			} else {
				pollTimeout(q, time.Duration(1+i%5)*time.Millisecond)
			}
		}(i)
	}
	wg.Wait()
	expectLiveSegmentsBelow(t, q, liveSegmentCeiling)
	if n := q.Len(); n != 0 {
		t.Fatalf("Len = %d after storm, want 0 (stranded waiters)", n)
	}
	expectGoroutinesBelow(t, base+2)

	// The structure must still pair fine after the storm.
	done := make(chan int)
	go func() { done <- q.Take() }()
	q.Put(99)
	if got := <-done; got != 99 {
		t.Fatalf("post-storm transfer = %d, want 99", got)
	}
}

// TestUnlinkedSegmentsAreCollected proves unlinking actually releases the
// memory: a finalizer on the storm's first segment must fire once the
// storm resolves and head moves past it.
func TestUnlinkedSegmentsAreCollected(t *testing.T) {
	q := New[int](core.WaitConfig{})
	first := q.head.Load()
	collected := make(chan struct{})
	runtime.SetFinalizer(first, func(*segment[int]) { close(collected) })
	first = nil

	const waiters = 8 * SegSize
	var wg sync.WaitGroup
	for i := 0; i < waiters; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			pollTimeout(q, time.Duration(1+i%3)*time.Millisecond)
		}(i)
	}
	wg.Wait()
	expectLiveSegmentsBelow(t, q, liveSegmentCeiling)
	expectCollected(t, "the storm's first segment", collected)
}

// TestCancelStormMixedWithTraffic interleaves expiring waiters with real
// transfers, so segments resolve through a mix of DONE and BROKEN cells —
// the partially-broken-segment unlink path.
func TestCancelStormMixedWithTraffic(t *testing.T) {
	q := New[int](core.WaitConfig{})
	const rounds = 4 * SegSize
	var wg sync.WaitGroup
	for i := 0; i < rounds; i++ {
		wg.Add(2)
		go func(i int) {
			defer wg.Done()
			offerTimeout(q, i, time.Duration(1+i%3)*time.Millisecond)
		}(i)
		go func(i int) {
			defer wg.Done()
			pollTimeout(q, time.Duration(1+(i+1)%3)*time.Millisecond)
		}(i)
	}
	wg.Wait()
	expectLiveSegmentsBelow(t, q, liveSegmentCeiling)
	if n := q.Len(); n != 0 {
		t.Fatalf("Len = %d after mixed storm, want 0", n)
	}
}
