package baseline

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// sq is the demand-only surface every baseline shares.
type sq interface {
	Put(int)
	Take() int
}

// runBasicSuite exercises the demand operations common to every baseline.
func runBasicSuite(t *testing.T, name string, mk func() sq) {
	t.Run(name+"/PairsPutWithTake", func(t *testing.T) {
		q := mk()
		done := make(chan int)
		go func() { done <- q.Take() }()
		q.Put(42)
		if got := <-done; got != 42 {
			t.Fatalf("Take = %d, want 42", got)
		}
	})
	t.Run(name+"/PutBlocksUntilConsumer", func(t *testing.T) {
		q := mk()
		var delivered atomic.Bool
		go func() {
			q.Put(1)
			delivered.Store(true)
		}()
		time.Sleep(20 * time.Millisecond)
		if delivered.Load() {
			t.Fatal("Put returned before a consumer arrived")
		}
		if got := q.Take(); got != 1 {
			t.Fatalf("Take = %d, want 1", got)
		}
	})
	t.Run(name+"/ConservationUnderLoad", func(t *testing.T) {
		q := mk()
		const producers, consumers, perProducer = 4, 4, 250
		var mu sync.Mutex
		seen := make(map[int]bool)
		var wg sync.WaitGroup
		for p := 0; p < producers; p++ {
			wg.Add(1)
			go func(id int) {
				defer wg.Done()
				for i := 0; i < perProducer; i++ {
					q.Put(id<<20 | i)
				}
			}(p)
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
			t.Fatalf("delivered %d values, want %d", len(seen), producers*perProducer)
		}
	})
}

func TestAllBaselinesBasicContract(t *testing.T) {
	runBasicSuite(t, "Naive", func() sq { return NewNaive[int]() })
	runBasicSuite(t, "Hanson", func() sq { return NewHanson[int]() })
	runBasicSuite(t, "HansonFast", func() sq { return NewHansonFast[int]() })
	runBasicSuite(t, "Java5Fair", func() sq { return NewJava5[int](true) })
	runBasicSuite(t, "Java5Unfair", func() sq { return NewJava5[int](false) })
	runBasicSuite(t, "Channel", func() sq { return chanAdapter{NewChannel[int]()} })
}

type chanAdapter struct{ c *Channel[int] }

func (a chanAdapter) Put(v int) { a.c.Put(v) }
func (a chanAdapter) Take() int { return a.c.Take() }

func TestJava5OfferPoll(t *testing.T) {
	for _, fair := range []bool{true, false} {
		q := NewJava5[int](fair)
		if q.Offer(1) {
			t.Fatal("Offer succeeded with no consumer")
		}
		if _, ok := q.Poll(); ok {
			t.Fatal("Poll succeeded with no producer")
		}
		done := make(chan int)
		go func() { done <- q.Take() }()
		deadline := time.Now().Add(5 * time.Second)
		for q.WaitingConsumers() != 1 {
			if time.Now().After(deadline) {
				t.Fatal("consumer never queued")
			}
			time.Sleep(100 * time.Microsecond)
		}
		if !q.Offer(9) {
			t.Fatal("Offer failed with a waiting consumer")
		}
		if got := <-done; got != 9 {
			t.Fatalf("Take = %d, want 9", got)
		}
	}
}

func TestJava5Timeouts(t *testing.T) {
	q := NewJava5[int](false)
	t0 := time.Now()
	if q.OfferTimeout(1, 20*time.Millisecond) {
		t.Fatal("OfferTimeout succeeded with no consumer")
	}
	if time.Since(t0) < 15*time.Millisecond {
		t.Fatal("OfferTimeout returned early")
	}
	if q.WaitingProducers() != 0 {
		t.Fatal("timed-out producer still queued")
	}
	if _, ok := q.PollTimeout(20 * time.Millisecond); ok {
		t.Fatal("PollTimeout succeeded with no producer")
	}
	if q.WaitingConsumers() != 0 {
		t.Fatal("timed-out consumer still queued")
	}
}

func TestJava5FairIsFIFO(t *testing.T) {
	q := NewJava5[int](true)
	const n = 6
	for i := 0; i < n; i++ {
		v := i
		go q.Put(v)
		deadline := time.Now().Add(5 * time.Second)
		for q.WaitingProducers() != i+1 {
			if time.Now().After(deadline) {
				t.Fatalf("producer %d never queued", i)
			}
			time.Sleep(100 * time.Microsecond)
		}
	}
	for i := 0; i < n; i++ {
		if got := q.Take(); got != i {
			t.Fatalf("Take = %d, want %d (FIFO violated)", got, i)
		}
	}
}

func TestJava5UnfairIsLIFO(t *testing.T) {
	q := NewJava5[int](false)
	const n = 6
	for i := 0; i < n; i++ {
		v := i
		go q.Put(v)
		deadline := time.Now().Add(5 * time.Second)
		for q.WaitingProducers() != i+1 {
			if time.Now().After(deadline) {
				t.Fatalf("producer %d never queued", i)
			}
			time.Sleep(100 * time.Microsecond)
		}
	}
	for i := n - 1; i >= 0; i-- {
		if got := q.Take(); got != i {
			t.Fatalf("Take = %d, want %d (LIFO violated)", got, i)
		}
	}
}

func TestJava5TimeoutFulfillRace(t *testing.T) {
	// Offer with tiny patience racing Poll with tiny patience: both must
	// agree on whether the transfer happened.
	q := NewJava5[int](false)
	for i := 0; i < 200; i++ {
		got := make(chan int, 1)
		go func() {
			if v, ok := q.PollTimeout(time.Millisecond); ok {
				got <- v
			} else {
				got <- -1
			}
		}()
		sent := q.OfferTimeout(i, time.Millisecond)
		v := <-got
		if sent != (v != -1) {
			t.Fatalf("iteration %d: producer says %v, consumer got %d", i, sent, v)
		}
	}
}

func TestChannelTimedSurface(t *testing.T) {
	q := NewChannel[int]()
	if q.Offer(1) {
		t.Fatal("Offer succeeded with no consumer")
	}
	if _, ok := q.Poll(); ok {
		t.Fatal("Poll succeeded with no producer")
	}
	if q.OfferTimeout(1, 10*time.Millisecond) {
		t.Fatal("OfferTimeout succeeded with no consumer")
	}
	if _, ok := q.PollTimeout(10 * time.Millisecond); ok {
		t.Fatal("PollTimeout succeeded with no producer")
	}
	go q.Put(5)
	if v, ok := q.PollTimeout(time.Second); !ok || v != 5 {
		t.Fatalf("PollTimeout = (%d,%v), want (5,true)", v, ok)
	}
	done := make(chan int)
	go func() { done <- q.Take() }()
	if !q.OfferTimeout(6, time.Second) {
		t.Fatal("OfferTimeout failed with a waiting consumer")
	}
	if got := <-done; got != 6 {
		t.Fatalf("Take = %d, want 6", got)
	}
}

func TestNaivePutSerializesProducers(t *testing.T) {
	// The putting flag admits one producer at a time; with two producers
	// and two consumers everything still transfers exactly once.
	q := NewNaive[int]()
	var wg sync.WaitGroup
	results := make(chan int, 2)
	wg.Add(2)
	go func() { defer wg.Done(); q.Put(1) }()
	go func() { defer wg.Done(); q.Put(2) }()
	results <- q.Take()
	results <- q.Take()
	wg.Wait()
	close(results)
	sum := 0
	for v := range results {
		sum += v
	}
	if sum != 3 {
		t.Fatalf("transferred sum = %d, want 3", sum)
	}
}

func TestHansonSixSynchronizationEvents(t *testing.T) {
	// Behavioural check of Hanson's protocol: after one complete
	// transfer, the semaphores are back in their initial state, ready
	// for the next producer.
	q := NewHanson[int]()
	done := make(chan int)
	go func() { done <- q.Take() }()
	q.Put(1)
	<-done
	if q.send.Permits() != 1 {
		t.Fatalf("send semaphore = %d after transfer, want 1", q.send.Permits())
	}
	if q.sync.Permits() != 0 || q.recv.Permits() != 0 {
		t.Fatalf("sync/recv = %d/%d after transfer, want 0/0",
			q.sync.Permits(), q.recv.Permits())
	}
}

// TestJava5TimedWaitReusesParker checks that a PollTimeout that waits out
// its deadline allocates only its node and wait-list element: the node's
// parker, with its channel and timer, is lent by the queue's parker table
// and serves the next wait again.
func TestJava5TimedWaitReusesParker(t *testing.T) {
	q := NewJava5[int](false)
	allocs := testing.AllocsPerRun(50, func() {
		if _, ok := q.PollTimeout(100 * time.Microsecond); ok {
			t.Fatal("PollTimeout succeeded with no producer")
		}
	})
	if allocs > 2 {
		t.Errorf("a timed-out PollTimeout makes %.1f allocations, want at most 2 (its node and wait-list element)", allocs)
	}
}
