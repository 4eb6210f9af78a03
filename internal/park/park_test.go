package park

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestUnparkBeforeParkIsNotLost(t *testing.T) {
	p := New()
	p.Unpark()
	done := make(chan struct{})
	go func() {
		p.Park() // must not block: permit already stored
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("Park blocked despite a stored permit")
	}
}

func TestUnparksCoalesce(t *testing.T) {
	p := New()
	p.Unpark()
	p.Unpark()
	p.Unpark()
	if !p.TryPark() {
		t.Fatal("first TryPark failed after Unparks")
	}
	if p.TryPark() {
		t.Fatal("multiple Unparks stored more than one permit")
	}
}

func TestParkBlocksUntilUnpark(t *testing.T) {
	p := New()
	var woke atomic.Bool
	go func() {
		p.Park()
		woke.Store(true)
	}()
	time.Sleep(20 * time.Millisecond)
	if woke.Load() {
		t.Fatal("Park returned without a permit")
	}
	p.Unpark()
	deadline := time.Now().Add(5 * time.Second)
	for !woke.Load() {
		if time.Now().After(deadline) {
			t.Fatal("Unpark did not wake the parked goroutine")
		}
		time.Sleep(time.Millisecond)
	}
}

func TestParkTimeoutExpires(t *testing.T) {
	p := New()
	t0 := time.Now()
	if p.ParkTimeout(20 * time.Millisecond) {
		t.Fatal("ParkTimeout returned true without a permit")
	}
	if elapsed := time.Since(t0); elapsed < 15*time.Millisecond {
		t.Fatalf("ParkTimeout returned after %v, too early", elapsed)
	}
}

func TestParkTimeoutConsumesPermit(t *testing.T) {
	p := New()
	p.Unpark()
	if !p.ParkTimeout(time.Second) {
		t.Fatal("ParkTimeout missed a stored permit")
	}
}

func TestParkTimeoutNonPositivePolls(t *testing.T) {
	p := New()
	if p.ParkTimeout(0) {
		t.Fatal("zero-timeout park returned true without a permit")
	}
	p.Unpark()
	if !p.ParkTimeout(0) {
		t.Fatal("zero-timeout park missed a stored permit")
	}
	if p.ParkTimeout(-time.Second) {
		t.Fatal("negative-timeout park returned true without a permit")
	}
}

func TestParkDeadlineZeroMeansForever(t *testing.T) {
	p := New()
	done := make(chan bool)
	go func() { done <- p.ParkDeadline(time.Time{}) }()
	time.Sleep(10 * time.Millisecond)
	p.Unpark()
	select {
	case ok := <-done:
		if !ok {
			t.Fatal("ParkDeadline(zero) returned false")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("ParkDeadline(zero) never woke")
	}
}

func TestWaitResults(t *testing.T) {
	p := New()
	p.Unpark()
	if r := p.Wait(time.Time{}, nil); r != Unparked {
		t.Fatalf("Wait = %v, want Unparked", r)
	}
	if r := p.Wait(time.Now().Add(10*time.Millisecond), nil); r != DeadlineExceeded {
		t.Fatalf("Wait = %v, want DeadlineExceeded", r)
	}
	if r := p.Wait(time.Now().Add(-time.Second), nil); r != DeadlineExceeded {
		t.Fatalf("Wait(past deadline) = %v, want DeadlineExceeded", r)
	}
	cancel := make(chan struct{})
	close(cancel)
	if r := p.Wait(time.Time{}, cancel); r != Canceled {
		t.Fatalf("Wait = %v, want Canceled", r)
	}
	// Permit beats everything when already available.
	p.Unpark()
	if r := p.Wait(time.Now().Add(time.Hour), cancel); r != Unparked {
		t.Fatalf("Wait = %v, want Unparked (fast path)", r)
	}
	// A cancel closed while the waiter is blocked wakes it as Canceled.
	blocked := make(chan struct{})
	done := make(chan WaitResult)
	go func() { done <- p.Wait(time.Time{}, blocked) }()
	time.Sleep(10 * time.Millisecond)
	close(blocked)
	if r := <-done; r != Canceled {
		t.Fatalf("Wait = %v, want Canceled (cancel while blocked)", r)
	}
}

func TestManyParkUnparkCycles(t *testing.T) {
	p := New()
	const rounds = 10000
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		for i := 0; i < rounds; i++ {
			p.Park()
		}
	}()
	go func() {
		defer wg.Done()
		for i := 0; i < rounds; i++ {
			p.Unpark()
			// Pace the permits: each Unpark must be consumed, so
			// wait for the state word to drop the permit first.
			for p.state.Load() == pPermit {
				time.Sleep(time.Microsecond)
			}
		}
	}()
	wg.Wait()
}

func TestConcurrentUnparkersSingleParker(t *testing.T) {
	// Permits coalesce, so N concurrent Unparks wake at least one Park;
	// the parker must never deadlock nor wake more times than Unparks.
	p := New()
	var wakes atomic.Int64
	stop := make(chan struct{})
	go func() {
		for {
			select {
			case <-stop:
				return
			default:
			}
			if p.ParkTimeout(time.Millisecond) {
				wakes.Add(1)
			}
		}
	}()
	var wg sync.WaitGroup
	const unparks = 1000
	for i := 0; i < 10; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < unparks/10; j++ {
				p.Unpark()
				time.Sleep(10 * time.Microsecond)
			}
		}()
	}
	wg.Wait()
	time.Sleep(20 * time.Millisecond)
	close(stop)
	if w := wakes.Load(); w == 0 || w > unparks {
		t.Fatalf("wakes = %d, want between 1 and %d", w, unparks)
	}
}

func TestParkUnparkCycleDoesNotAllocate(t *testing.T) {
	// The permit fast path (Unpark then Park) must be allocation-free,
	// and a slow-path wait must only touch pooled notifiers/timers. The
	// fast path is deterministic, so pin it to exactly zero.
	p := New()
	if n := testing.AllocsPerRun(1000, func() {
		p.Unpark()
		p.Park()
	}); n != 0 {
		t.Fatalf("Unpark+Park fast path allocated %v allocs/op, want 0", n)
	}
	// Slow path: warm the pools, then require steady-state zero. The
	// partner goroutine only spins on the state word, so its loop does
	// not allocate either.
	if raceEnabled {
		t.Skip("sync.Pool drops Puts under -race, so the pooled notifier path cannot be held to zero allocations")
	}
	stop := make(chan struct{})
	go func() {
		for {
			select {
			case <-stop:
				return
			default:
			}
			p.Unpark()
		}
	}()
	for i := 0; i < 100; i++ {
		p.ParkTimeout(time.Second)
	}
	if n := testing.AllocsPerRun(200, func() {
		p.ParkTimeout(time.Second)
	}); n > 0 {
		t.Fatalf("steady-state ParkTimeout allocated %v allocs/op, want 0", n)
	}
	close(stop)
}

// TestWaitIgnoresStaleTimerTick: a pooled timer can carry a tick from its
// previous owner (a fire that raced that owner's Stop-and-drain). A wait
// that recycles it must not report its own deadline as exceeded early.
func TestWaitIgnoresStaleTimerTick(t *testing.T) {
	stale := time.NewTimer(0)
	time.Sleep(5 * time.Millisecond) // fired; the tick sits undrained in C
	timerPool.Put(stale)

	p := New()
	const d = 50 * time.Millisecond
	t0 := time.Now()
	if r := p.Wait(t0.Add(d), nil); r != DeadlineExceeded {
		t.Fatalf("Wait = %v, want DeadlineExceeded", r)
	}
	if got := time.Since(t0); got < d {
		t.Fatalf("Wait returned DeadlineExceeded after %v, before its %v deadline", got, d)
	}
}
