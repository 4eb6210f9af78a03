package spin

import (
	"sync"
	"testing"
)

func TestBudgetsRespectPlatform(t *testing.T) {
	timed, untimed := TimedSpins(), UntimedSpins()
	if Multicore() {
		if timed != MaxTimedSpins || untimed != MaxUntimedSpins {
			t.Fatalf("multicore budgets = (%d,%d), want (%d,%d)",
				timed, untimed, MaxTimedSpins, MaxUntimedSpins)
		}
	} else {
		if timed != 0 || untimed != 0 {
			t.Fatalf("uniprocessor budgets = (%d,%d), want (0,0)", timed, untimed)
		}
	}
	if MaxUntimedSpins <= MaxTimedSpins {
		t.Fatal("untimed spin budget should exceed timed budget")
	}
}

func TestPauseDoesNotBlock(t *testing.T) {
	// Pause must always return promptly, including the yield iterations.
	for i := 0; i < 100; i++ {
		Pause(i)
	}
}

func TestBackoffGrowsAndResets(t *testing.T) {
	var b Backoff
	for i := 0; i < 12; i++ {
		b.Wait() // must never block indefinitely
	}
	if b.n == 0 {
		t.Fatal("backoff never grew")
	}
	b.Reset()
	if b.n != 0 {
		t.Fatalf("Reset left n=%d", b.n)
	}
}

func TestCounter(t *testing.T) {
	var c Counter
	c.Add(5)
	c.Add(-2)
	if c.Load() != 3 {
		t.Fatalf("Load = %d, want 3", c.Load())
	}
	c.Store(10)
	if c.Load() != 10 {
		t.Fatalf("Load = %d, want 10", c.Load())
	}
}

func TestCounterConcurrent(t *testing.T) {
	var c Counter
	var wg sync.WaitGroup
	const workers, rounds = 8, 10000
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < rounds; j++ {
				c.Add(1)
			}
		}()
	}
	wg.Wait()
	if c.Load() != workers*rounds {
		t.Fatalf("Load = %d, want %d", c.Load(), workers*rounds)
	}
}

func TestBackoffPeriodicCapReset(t *testing.T) {
	// Pin the promised sequence: the shift ramps 1..backoffMaxShift, holds
	// at the cap for backoffCapResets-1 further waits, then restarts from
	// the initial yield instead of sleeping at the cap forever.
	var b Backoff
	want := []int{1, 2, 3, 4, 5, 6, 7, 8, // ramp
		8, 8, 8, // held at cap (caps = 1..3)
		1, 2, // reset fired on the 4th cap-level wait, ramp restarts
	}
	for i, w := range want {
		b.Wait()
		if b.n != w {
			t.Fatalf("after wait %d: n = %d, want %d", i+1, b.n, w)
		}
	}
	b.Reset()
	if b.n != 0 || b.caps != 0 {
		t.Fatalf("Reset left n=%d caps=%d", b.n, b.caps)
	}
}

func TestCalibratorAdaptsWithinBounds(t *testing.T) {
	if !Multicore() {
		t.Skip("calibrator is inert on a uniprocessor")
	}
	c := NewCalibrator(0)
	if got := c.Untimed(); got != MaxUntimedSpins {
		t.Fatalf("initial untimed budget = %d, want ceiling %d", got, MaxUntimedSpins)
	}
	// Instant fulfillments (spun=0) must decay the budget to the floor —
	// and never below it.
	for i := 0; i < 200; i++ {
		c.Observe(0, false)
	}
	if got := c.Untimed(); got != MaxTimedSpins {
		t.Fatalf("after instant fulfillments: untimed = %d, want floor %d", got, MaxTimedSpins)
	}
	if got := c.Timed(); got != MaxTimedSpins>>4 {
		t.Fatalf("timed = %d, want %d", got, MaxTimedSpins>>4)
	}
	// Parked waits must push it back to the ceiling — and never above.
	for i := 0; i < 200; i++ {
		c.Observe(MaxUntimedSpins, true)
	}
	if got := c.Untimed(); got != MaxUntimedSpins {
		t.Fatalf("after parked waits: untimed = %d, want ceiling %d", got, MaxUntimedSpins)
	}
	if got := c.Timed(); got != MaxTimedSpins {
		t.Fatalf("timed = %d, want %d", got, MaxTimedSpins)
	}
	// A mid-range signal settles between the bounds: fulfilled after 100
	// spins → signal 200.
	for i := 0; i < 200; i++ {
		c.Observe(100, false)
	}
	if got := c.Untimed(); got <= MaxTimedSpins || got >= MaxUntimedSpins {
		t.Fatalf("mid-range untimed = %d, want strictly between %d and %d",
			got, MaxTimedSpins, MaxUntimedSpins)
	}
}
