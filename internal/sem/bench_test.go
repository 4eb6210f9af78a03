package sem

import (
	"sync"
	"testing"
)

// The uncontended acquire/release round trip, per semaphore variant. This
// quantifies the fast-path streamlining the paper's §3.1 attributes to
// dl.util.concurrent: Fast should be several times cheaper than the
// queue-based Semaphore when no blocking occurs.
func BenchmarkUncontendedAcquireRelease(b *testing.B) {
	b.Run("fifo", func(b *testing.B) {
		s := New(1)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			s.Acquire()
			s.Release()
		}
	})
	b.Run("fast", func(b *testing.B) {
		s := NewFast(1)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			s.Acquire()
			s.Release()
		}
	})
}

// Contended mutual exclusion through each semaphore variant.
func BenchmarkContendedMutex(b *testing.B) {
	type s interface {
		Acquire()
		Release()
	}
	run := func(b *testing.B, sem s) {
		const workers = 4
		var wg sync.WaitGroup
		per := b.N / workers
		b.ResetTimer()
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 0; i < per; i++ {
					sem.Acquire()
					sem.Release()
				}
			}()
		}
		wg.Wait()
	}
	b.Run("fifo", func(b *testing.B) { run(b, New(1)) })
	b.Run("fast", func(b *testing.B) { run(b, NewFast(1)) })
}
