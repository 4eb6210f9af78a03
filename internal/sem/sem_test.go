package sem

import (
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"testing/quick"
	"time"
)

func TestSemaphoreBasicAcquireRelease(t *testing.T) {
	s := New(2)
	s.Acquire()
	s.Acquire()
	if s.TryAcquire() {
		t.Fatal("TryAcquire succeeded with zero permits")
	}
	s.Release()
	if !s.TryAcquire() {
		t.Fatal("TryAcquire failed with one permit")
	}
}

func TestSemaphoreBlocksAtZero(t *testing.T) {
	s := New(0)
	var acquired atomic.Bool
	go func() {
		s.Acquire()
		acquired.Store(true)
	}()
	time.Sleep(20 * time.Millisecond)
	if acquired.Load() {
		t.Fatal("Acquire returned with zero permits")
	}
	s.Release()
	deadline := time.Now().Add(5 * time.Second)
	for !acquired.Load() {
		if time.Now().After(deadline) {
			t.Fatal("Release did not unblock Acquire")
		}
		time.Sleep(time.Millisecond)
	}
}

func TestSemaphoreFIFOWakeupOrder(t *testing.T) {
	s := New(0)
	const n = 6
	order := make(chan int, n)
	for i := 0; i < n; i++ {
		i := i
		go func() {
			s.Acquire()
			order <- i
		}()
		// Ensure waiter i is queued before starting i+1.
		deadline := time.Now().Add(5 * time.Second)
		for s.Waiters() != i+1 {
			if time.Now().After(deadline) {
				t.Fatalf("waiter %d never queued", i)
			}
			time.Sleep(100 * time.Microsecond)
		}
	}
	for i := 0; i < n; i++ {
		s.Release()
		if got := <-order; got != i {
			t.Fatalf("wakeup #%d was waiter %d (FIFO violated)", i, got)
		}
	}
}

func TestSemaphoreAsMutex(t *testing.T) {
	s := New(1)
	var counter int
	var wg sync.WaitGroup
	const workers, rounds = 8, 1000
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < rounds; j++ {
				s.Acquire()
				counter++
				s.Release()
			}
		}()
	}
	wg.Wait()
	if counter != workers*rounds {
		t.Fatalf("counter = %d, want %d (mutual exclusion violated)", counter, workers*rounds)
	}
}

func TestSemaphoreCountingInvariant(t *testing.T) {
	// Property: after any sequence of k releases and j acquires
	// (j <= k + initial), available permits equal initial + k - j.
	f := func(initial uint8, releases uint8) bool {
		ini := int(initial % 16)
		rel := int(releases % 16)
		s := New(ini)
		for i := 0; i < rel; i++ {
			s.Release()
		}
		total := ini + rel
		for i := 0; i < total; i++ {
			if !s.TryAcquire() {
				return false
			}
		}
		return !s.TryAcquire() && s.Permits() == 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// TestBlockedAcquireReusesItsParker checks that a blocked Acquire borrows
// its parker from the semaphore and gives it back: once the first wait has
// made the parker's channel, a round of blocking and release allocates only
// the wait-list element, where a parker made for each wait would add its
// slot, and its notifier and channel.
func TestBlockedAcquireReusesItsParker(t *testing.T) {
	const rounds = 200
	s := New(0)
	done := make(chan struct{})
	go func() {
		for range rounds + 1 {
			s.Acquire()
		}
		close(done)
	}()
	round := func() {
		for s.Waiters() == 0 {
			runtime.Gosched()
		}
		s.Release()
	}
	round()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	for range rounds {
		round()
	}
	runtime.ReadMemStats(&m1)
	<-done
	if got := float64(m1.Mallocs-m0.Mallocs) / rounds; got > 1.5 {
		t.Errorf("a blocked Acquire and its Release make %.2f allocations, want at most 1.5 (the wait-list element)", got)
	}
}
