package spin

import "testing"

func TestBudgetsRespectPlatform(t *testing.T) {
	want := 0
	if Multicore() {
		want = MaxUntimedSpins
	}
	if got := UntimedSpins(); got != want {
		t.Fatalf("untimed budget = %d, want %d (multicore=%v)", got, want, Multicore())
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
