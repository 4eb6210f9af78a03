package park

import (
	"testing"
	"time"

	"synchq/internal/fault"
)

// TestInjectedSpuriousWake: a faulty parker may return Unparked without a
// permit. The waiter contract (re-validate on every Unparked return) makes
// this safe; this test pins down the mechanism itself.
func TestInjectedSpuriousWake(t *testing.T) {
	inj := fault.New(fault.Config{Seed: 9, SpuriousWakeRate: 1, Budget: 1})
	_, p := (&Table{F: inj}).Lend()

	start := time.Now()
	if r := p.Wait(time.Now().Add(time.Minute), nil); r != Unparked {
		t.Fatalf("Wait = %v, want spurious Unparked", r)
	}
	if elapsed := time.Since(start); elapsed > 10*time.Second {
		t.Fatalf("spurious wake took %v; it should fire before blocking", elapsed)
	}
	if n := inj.Count(fault.ParkSpurious); n != 1 {
		t.Fatalf("spurious-wake count = %d, want 1", n)
	}

	// Budget spent: the next wait blocks for real and times out normally.
	if r := p.Wait(time.Now().Add(5*time.Millisecond), nil); r != DeadlineExceeded {
		t.Fatalf("post-budget Wait = %v, want DeadlineExceeded", r)
	}
	if n := inj.Count(fault.ParkSpurious); n != 1 {
		t.Fatalf("budget overrun: spurious-wake count = %d, want 1", n)
	}
}

// TestInjectedTimerSkew: a skewed timer still respects the wait contract —
// the wait ends with DeadlineExceeded, within the configured skew bound of
// the requested deadline.
func TestInjectedTimerSkew(t *testing.T) {
	const maxSkew = 5 * time.Millisecond
	inj := fault.New(fault.Config{Seed: 9, TimerSkewRate: 1, MaxTimerSkew: maxSkew})
	_, p := (&Table{F: inj}).Lend()

	deadline := 20 * time.Millisecond
	start := time.Now()
	if r := p.Wait(time.Now().Add(deadline), nil); r != DeadlineExceeded {
		t.Fatalf("Wait = %v, want DeadlineExceeded", r)
	}
	elapsed := time.Since(start)
	if elapsed < deadline-maxSkew-time.Millisecond {
		t.Errorf("skewed wait returned after %v; shortening bound is %v", elapsed, deadline-maxSkew)
	}
	// Upper bound is loose: scheduling delay stacks on top of the skew.
	if elapsed > deadline+maxSkew+2*time.Second {
		t.Errorf("skewed wait returned after %v; lengthening bound is %v", elapsed, deadline+maxSkew)
	}
	if n := inj.Count(fault.TimerSkew); n < 1 {
		t.Errorf("timer-skew count = %d, want >= 1", n)
	}

	// A real unpark still wins immediately even with skew armed.
	p.Unpark()
	if r := p.Wait(time.Now().Add(time.Minute), nil); r != Unparked {
		t.Fatalf("Wait with permit = %v, want Unparked", r)
	}
}
