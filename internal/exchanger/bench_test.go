package exchanger

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// A single pair exchanging through arenas of different sizes: slot 0 is
// always the meeting point for two parties, so size should not matter
// here — this is the elimination overhead floor.
func BenchmarkPairExchange(b *testing.B) {
	for _, slots := range []int{1, 4, 16} {
		b.Run(fmt.Sprintf("slots=%d", slots), func(b *testing.B) {
			e := NewSize[int](slots)
			var wg sync.WaitGroup
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 0; i < b.N; i++ {
					e.Exchange(i)
				}
			}()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				e.Exchange(i)
			}
			wg.Wait()
		})
	}
}

// Many pairs exchanging concurrently: with more slots, meetings spread and
// contention on any single word drops — the paper's elimination payoff,
// visible only with real hardware parallelism.
//
// Parties share one global work target rather than per-party quotas:
// pairwise matching with fixed quotas can strand a single party whose
// potential partners have all finished (an unbounded Exchange would then
// wait forever). With a shared counter, any party below the target implies
// every party is still participating, so a partner always arrives.
func BenchmarkManyPairsExchange(b *testing.B) {
	for _, cfg := range []struct{ pairs, slots int }{
		{4, 1}, {4, 8}, {16, 1}, {16, 8},
	} {
		b.Run(fmt.Sprintf("pairs=%d/slots=%d", cfg.pairs, cfg.slots), func(b *testing.B) {
			e := NewSize[int](cfg.slots)
			var wg sync.WaitGroup
			var done atomic.Int64
			target := int64(b.N)
			b.ResetTimer()
			for p := 0; p < 2*cfg.pairs; p++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for done.Load() < target {
						if _, st := e.ExchangeDeadline(1, time.Now().Add(time.Millisecond), nil); st == OK {
							done.Add(1)
						}
					}
				}()
			}
			wg.Wait()
		})
	}
}
