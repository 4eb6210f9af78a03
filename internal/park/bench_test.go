package park

import (
	"testing"
	"time"
)

// BenchmarkUnparkPark measures the stored-permit fast path: Unpark followed
// by a Park that never blocks.
func BenchmarkUnparkPark(b *testing.B) {
	p := New()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.Unpark()
		p.Park()
	}
}

// BenchmarkPingPong measures a full block/wake round trip between two
// goroutines — the descheduling cost the paper's spin-then-park policy
// tries to avoid paying on near-simultaneous arrivals.
func BenchmarkPingPong(b *testing.B) {
	a, z := New(), New()
	go func() {
		for {
			a.Park()
			z.Unpark()
		}
	}()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a.Unpark()
		z.Park()
	}
}

// BenchmarkParkTimeoutMiss measures a timed wait that expires — the
// parker's own timer, re-armed, on the path every failed timed offer/poll
// takes.
func BenchmarkParkTimeoutMiss(b *testing.B) {
	p := New()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.ParkTimeout(time.Microsecond)
	}
}

// BenchmarkWaitFastPath measures Wait when the permit is already stored.
func BenchmarkWaitFastPath(b *testing.B) {
	p := New()
	deadline := time.Now().Add(time.Hour)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.Unpark()
		p.Wait(deadline, nil)
	}
}
