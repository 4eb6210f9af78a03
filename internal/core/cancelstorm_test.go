package core

import (
	"math/rand/v2"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// cancelStorm drives producers whose waits are asynchronously canceled at
// random moments — the Go analogue of the paper's thread interruption —
// and checks that exactly the successful puts are received, no more, no
// less. This exercises the cancel-channel path of the shared wait loop (distinct
// from the deadline path the timeout tests cover).
func cancelStorm(t *testing.T, put func(int64, <-chan struct{}) Status, poll func(time.Duration) (int64, bool)) {
	t.Helper()
	const producers = 6
	const perProducer = 200
	var succeeded atomic.Int64
	var wg sync.WaitGroup

	for p := 0; p < producers; p++ {
		wg.Add(1)
		go func(id int64) {
			defer wg.Done()
			rng := rand.New(rand.NewPCG(uint64(id), 7))
			for i := int64(0); i < perProducer; i++ {
				cancel := make(chan struct{})
				timer := time.AfterFunc(time.Duration(rng.IntN(500))*time.Microsecond, func() {
					close(cancel)
				})
				if put(id<<32|i, cancel) == OK {
					succeeded.Add(1)
				}
				timer.Stop()
			}
		}(int64(p))
	}

	var received atomic.Int64
	var cg sync.WaitGroup
	cg.Add(1)
	go func() {
		defer cg.Done()
		for {
			if _, ok := poll(20 * time.Millisecond); !ok {
				return // producers exhausted and queue drained
			}
			received.Add(1)
		}
	}()
	wg.Wait()
	cg.Wait()

	if succeeded.Load() != received.Load() {
		t.Fatalf("producers report %d successes but %d values received",
			succeeded.Load(), received.Load())
	}
	if succeeded.Load() == 0 {
		t.Fatal("storm canceled everything; no transfers exercised the success path")
	}
}

func TestDualQueueCancelStormConservation(t *testing.T) {
	q := NewDualQueue[int64](WaitConfig{})
	cancelStorm(t,
		func(v int64, c <-chan struct{}) Status { return q.PutDeadline(v, time.Time{}, c) },
		q.PollTimeout,
	)
	if n := q.Len(); n != 0 {
		t.Fatalf("Len = %d after storm, want 0", n)
	}
}

func TestDualStackCancelStormConservation(t *testing.T) {
	q := NewDualStack[int64](WaitConfig{})
	cancelStorm(t,
		func(v int64, c <-chan struct{}) Status { return q.PutDeadline(v, time.Time{}, c) },
		q.PollTimeout,
	)
	if n := q.Len(); n != 0 {
		t.Fatalf("Len = %d after storm, want 0", n)
	}
}

// TestCancelRaceWithFulfillAgreement pins the razor-edge case: the cancel
// fires at (nearly) the same instant a consumer fulfills. Producer and
// consumer must agree on the outcome every single time.
func TestCancelRaceWithFulfillAgreement(t *testing.T) {
	run := func(t *testing.T, put func(int64, <-chan struct{}) Status, poll func(time.Duration) (int64, bool)) {
		for i := 0; i < 300; i++ {
			cancel := make(chan struct{})
			consumerGot := make(chan bool, 1)
			go func() {
				_, ok := poll(300 * time.Microsecond)
				consumerGot <- ok
			}()
			go func() {
				time.Sleep(time.Duration(i%7) * 50 * time.Microsecond)
				close(cancel)
			}()
			st := put(int64(i), cancel)
			got := <-consumerGot
			if (st == OK) != got {
				t.Fatalf("iteration %d: producer status %v but consumer got=%v", i, st, got)
			}
		}
	}
	t.Run("queue", func(t *testing.T) {
		q := NewDualQueue[int64](WaitConfig{})
		run(t, func(v int64, c <-chan struct{}) Status { return q.PutDeadline(v, time.Time{}, c) }, q.PollTimeout)
	})
	t.Run("stack", func(t *testing.T) {
		q := NewDualStack[int64](WaitConfig{})
		run(t, func(v int64, c <-chan struct{}) Status { return q.PutDeadline(v, time.Time{}, c) }, q.PollTimeout)
	})
}
