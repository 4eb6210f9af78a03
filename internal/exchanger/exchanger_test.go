package exchanger

import (
	"sync"
	"testing"
	"time"
)

func TestExchangeSwapsValues(t *testing.T) {
	e := New[int]()
	done := make(chan int)
	go func() { done <- e.Exchange(1) }()
	got := e.Exchange(2)
	other := <-done
	if got != 1 || other != 2 {
		t.Fatalf("exchange = (%d,%d), want (1,2)", got, other)
	}
}

func TestExchangeTimeoutExpires(t *testing.T) {
	e := New[int]()
	t0 := time.Now()
	if _, st := e.ExchangeDeadline(1, t0.Add(20*time.Millisecond), nil); st != Timeout {
		t.Fatalf("ExchangeDeadline with no partner = %v, want Timeout", st)
	}
	if time.Since(t0) < 15*time.Millisecond {
		t.Fatal("ExchangeDeadline returned early")
	}
}

func TestExchangeTimeoutSucceedsWithPartner(t *testing.T) {
	e := New[int]()
	done := make(chan int)
	go func() { done <- e.Exchange(10) }()
	v, st := e.ExchangeDeadline(20, time.Now().Add(5*time.Second), nil)
	if st != OK || v != 10 {
		t.Fatalf("ExchangeDeadline = (%d,%v), want (10,OK)", v, st)
	}
	if got := <-done; got != 20 {
		t.Fatalf("partner received %d, want 20", got)
	}
}

// TestExchangeCancel: cancel ends the wait even when a far deadline is
// also set — the two bounds are watched together, not one or the other.
func TestExchangeCancel(t *testing.T) {
	for _, deadline := range []time.Time{{}, time.Now().Add(time.Minute)} {
		e := New[int]()
		cancel := make(chan struct{})
		done := make(chan Status)
		go func() {
			_, st := e.ExchangeDeadline(1, deadline, cancel)
			done <- st
		}()
		time.Sleep(10 * time.Millisecond)
		close(cancel)
		select {
		case st := <-done:
			if st != Canceled {
				t.Fatalf("deadline %v: ExchangeDeadline status = %v, want Canceled", deadline, st)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("deadline %v: ExchangeDeadline ignored cancel", deadline)
		}
	}
}

func TestManyPairsAllMatched(t *testing.T) {
	// 2N parties must pair perfectly: every value appears exactly once
	// among the results, and nobody receives their own value... except
	// that pairing is arbitrary, so we only check conservation.
	e := New[int]()
	const pairs = 16
	results := make(chan int, 2*pairs)
	var wg sync.WaitGroup
	for i := 0; i < 2*pairs; i++ {
		wg.Add(1)
		v := i
		go func() {
			defer wg.Done()
			results <- e.Exchange(v)
		}()
	}
	wg.Wait()
	close(results)
	seen := make(map[int]bool)
	for v := range results {
		if seen[v] {
			t.Fatalf("value %d received twice", v)
		}
		seen[v] = true
	}
	if len(seen) != 2*pairs {
		t.Fatalf("received %d distinct values, want %d", len(seen), 2*pairs)
	}
}

func TestSingleSlotExchangerStillPairs(t *testing.T) {
	e := NewSize[int](1)
	const pairs = 8
	var wg sync.WaitGroup
	results := make(chan int, 2*pairs)
	for i := 0; i < 2*pairs; i++ {
		wg.Add(1)
		v := i
		go func() {
			defer wg.Done()
			results <- e.Exchange(v)
		}()
	}
	wg.Wait()
	close(results)
	n := 0
	for range results {
		n++
	}
	if n != 2*pairs {
		t.Fatalf("completed %d exchanges, want %d", n, 2*pairs)
	}
}

func TestArenaGiveTakePair(t *testing.T) {
	a := NewArena[int](4)
	got := make(chan int, 1)
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		if v, ok := a.TryTake(time.Second); ok {
			got <- v
		} else {
			got <- -1
		}
	}()
	time.Sleep(5 * time.Millisecond)
	if !a.TryGive(42, time.Second) {
		t.Fatal("TryGive failed with a waiting taker")
	}
	wg.Wait()
	if v := <-got; v != 42 {
		t.Fatalf("TryTake = %d, want 42", v)
	}
}

func TestArenaTimesOutWithoutCounterpart(t *testing.T) {
	a := NewArena[int](4)
	if a.TryGive(1, 5*time.Millisecond) {
		t.Fatal("TryGive succeeded with no taker")
	}
	if _, ok := a.TryTake(5 * time.Millisecond); ok {
		t.Fatal("TryTake succeeded with no giver")
	}
}

func TestArenaSameModePartiesDoNotMatch(t *testing.T) {
	// Two producers must never exchange with each other.
	a := NewArena[int](1)
	var wg sync.WaitGroup
	oks := make(chan bool, 2)
	for i := 0; i < 2; i++ {
		wg.Add(1)
		v := i
		go func() {
			defer wg.Done()
			oks <- a.TryGive(v, 20*time.Millisecond)
		}()
	}
	wg.Wait()
	close(oks)
	for ok := range oks {
		if ok {
			t.Fatal("a producer matched without any consumer present")
		}
	}
}

func TestArenaConservationUnderLoad(t *testing.T) {
	a := NewArena[int](0)
	const n = 500
	var given, taken sync.Map
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		for i := 0; i < n; i++ {
			if a.TryGive(i, time.Millisecond) {
				given.Store(i, true)
			}
		}
	}()
	go func() {
		defer wg.Done()
		for i := 0; i < n; i++ {
			if v, ok := a.TryTake(time.Millisecond); ok {
				if _, dup := taken.LoadOrStore(v, true); dup {
					t.Errorf("value %d taken twice", v)
				}
			}
		}
	}()
	wg.Wait()
	// Everything taken must have been given.
	taken.Range(func(k, _ any) bool {
		if _, ok := given.Load(k); !ok {
			t.Errorf("value %v taken but not recorded as given", k)
		}
		return true
	})
	nGiven, nTaken := 0, 0
	given.Range(func(_, _ any) bool { nGiven++; return true })
	taken.Range(func(_, _ any) bool { nTaken++; return true })
	if nGiven != nTaken {
		t.Fatalf("gave %d values but took %d", nGiven, nTaken)
	}
}

func TestZeroSizedExchange(t *testing.T) {
	// Regression: zero-sized T must not confuse the hole sentinels.
	e := New[struct{}]()
	if _, st := e.ExchangeDeadline(struct{}{}, time.Now().Add(2*time.Millisecond), nil); st == OK {
		t.Fatal("ExchangeDeadline succeeded with no partner")
	}
	done := make(chan struct{})
	go func() {
		e.Exchange(struct{}{})
		close(done)
	}()
	e.Exchange(struct{}{})
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("zero-sized exchange hung")
	}
	a := NewArena[struct{}](2)
	if a.TryGive(struct{}{}, 2*time.Millisecond) {
		t.Fatal("TryGive succeeded with no taker")
	}
}
