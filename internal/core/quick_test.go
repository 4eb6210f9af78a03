package core

import (
	"sync"
	"testing"
	"testing/quick"
	"time"

	"synchq/internal/spin"
)

// TestQuickConservationRandomShapes drives randomized producer/consumer
// counts and transfer totals through both algorithms and checks value
// conservation — the property-based version of the fixed-shape
// conservation tests.
func TestQuickConservationRandomShapes(t *testing.T) {
	run := func(fair bool, producers, consumers uint8, nSeed uint16) bool {
		p := int(producers%5) + 1
		c := int(consumers%5) + 1
		n := int64(nSeed%400) + 50

		var put func(int64)
		var take func() int64
		if fair {
			q := NewDualQueue[int64](WaitConfig{})
			put, take = q.Put, q.Take
		} else {
			q := NewDualStack[int64](WaitConfig{})
			put, take = q.Put, q.Take
		}

		quota := func(total int64, k, i int) int64 {
			q := total / int64(k)
			if int64(i) < total%int64(k) {
				q++
			}
			return q
		}
		var wg sync.WaitGroup
		var mu sync.Mutex
		var sumOut int64
		var sumIn int64
		next := int64(0)
		for i := 0; i < p; i++ {
			wg.Add(1)
			cnt := quota(n, p, i)
			go func(cnt int64) {
				defer wg.Done()
				for j := int64(0); j < cnt; j++ {
					mu.Lock()
					v := next
					next++
					sumIn += v
					mu.Unlock()
					put(v)
				}
			}(cnt)
		}
		for i := 0; i < c; i++ {
			wg.Add(1)
			cnt := quota(n, c, i)
			go func(cnt int64) {
				defer wg.Done()
				var local int64
				for j := int64(0); j < cnt; j++ {
					local += take()
				}
				mu.Lock()
				sumOut += local
				mu.Unlock()
			}(cnt)
		}
		wg.Wait()
		return sumIn == sumOut
	}
	f := func(fair bool, producers, consumers uint8, nSeed uint16) bool {
		return run(fair, producers, consumers, nSeed)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

// TestQuickAsyncQueueMatchesFIFOModel checks that the dual queue in
// asynchronous mode (PutAsync + Poll from one goroutine) behaves exactly
// like a sequential FIFO queue — the degenerate case in which the dual
// queue must coincide with its M&S ancestor.
func TestQuickAsyncQueueMatchesFIFOModel(t *testing.T) {
	f := func(ops []int16) bool {
		q := NewDualQueue[int16](WaitConfig{})
		var model []int16
		for _, op := range ops {
			if op >= 0 {
				q.PutAsync(op)
				model = append(model, op)
			} else {
				v, ok := q.Poll()
				if len(model) == 0 {
					if ok {
						return false
					}
					continue
				}
				if !ok || v != model[0] {
					return false
				}
				model = model[1:]
			}
		}
		return q.Len() == len(model)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestQuickPolarOpsNeverBlockOrInvent: any sequence of Offer/Poll from a
// single goroutine on the synchronous structures must fail every time
// (there is never a waiting counterpart) and leave the structure empty.
func TestQuickPolarOpsNeverBlockOrInvent(t *testing.T) {
	f := func(ops []bool, fair bool) bool {
		var offer func(int) bool
		var poll func() (int, bool)
		var empty func() bool
		if fair {
			q := NewDualQueue[int](WaitConfig{})
			offer, poll, empty = q.Offer, q.Poll, q.IsEmpty
		} else {
			q := NewDualStack[int](WaitConfig{})
			offer, poll, empty = q.Offer, q.Poll, q.IsEmpty
		}
		for i, isOffer := range ops {
			if isOffer {
				if offer(i) {
					return false
				}
			} else if _, ok := poll(); ok {
				return false
			}
		}
		return empty()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// TestQuickWaitConfigSpins checks the one spin value's mapping onto the
// structure's calibrator: n > 0 pins untimed waits at n spins and timed
// waits at n>>4, a negative value never spins, and zero adapts between the
// floor MaxTimedSpins and the ceiling MaxUntimedSpins, starting at the
// ceiling (or never spins on a uniprocessor).
func TestQuickWaitConfigSpins(t *testing.T) {
	pinned := func(n int16) bool {
		if n == 0 {
			return true // adaptive: checked below
		}
		c := NewDualQueue[int](WaitConfig{Spins: int(n)}).cal
		want := max(int(n), 0)
		for i := 0; i < 32; i++ {
			if c.Untimed() != want || c.Timed() != want>>4 {
				return false
			}
			c.Observe(i, i%2 == 0) // a pinned budget learns nothing
		}
		return true
	}
	if err := quick.Check(pinned, nil); err != nil {
		t.Fatal(err)
	}

	c := NewDualStack[int](WaitConfig{}).cal
	if !spin.Multicore() {
		if c.Untimed() != 0 || c.Timed() != 0 {
			t.Fatalf("uniprocessor default budgets = (%d, %d), want (0, 0)", c.Untimed(), c.Timed())
		}
		return
	}
	if c.Untimed() != spin.MaxUntimedSpins || c.Timed() != spin.MaxTimedSpins {
		t.Fatalf("default budgets start at (%d, %d), want the ceiling (%d, %d)",
			c.Untimed(), c.Timed(), spin.MaxUntimedSpins, spin.MaxTimedSpins)
	}
	for i := 0; i < 200; i++ {
		c.Observe(0, false)
	}
	if c.Untimed() != spin.MaxTimedSpins {
		t.Fatalf("default budget after instant fulfillments = %d, want the floor %d", c.Untimed(), spin.MaxTimedSpins)
	}
	for i := 0; i < 200; i++ {
		c.Observe(0, true)
	}
	if c.Untimed() != spin.MaxUntimedSpins {
		t.Fatalf("default budget after parked waits = %d, want the ceiling %d", c.Untimed(), spin.MaxUntimedSpins)
	}
}

// TestZeroSizedAndPointerPayloads exercises payload types with tricky
// representations: zero-sized structs (all values alias one address) and
// pointers (nil must be transferable), both of which stress the internal
// sentinel encoding.
func TestZeroSizedAndPointerPayloads(t *testing.T) {
	t.Run("struct{}", func(t *testing.T) {
		q := NewDualQueue[struct{}](WaitConfig{})
		done := make(chan struct{})
		go func() {
			q.Take()
			close(done)
		}()
		q.Put(struct{}{})
		select {
		case <-done:
		case <-time.After(5 * time.Second):
			t.Fatal("zero-sized payload transfer hung")
		}
	})
	t.Run("nil pointer", func(t *testing.T) {
		q := NewDualStack[*int](WaitConfig{})
		done := make(chan *int, 1)
		go func() { done <- q.Take() }()
		q.Put(nil)
		if got := <-done; got != nil {
			t.Fatalf("Take = %v, want nil", got)
		}
	})
	t.Run("large struct", func(t *testing.T) {
		type big struct {
			a [64]int64
			s string
		}
		q := NewDualQueue[big](WaitConfig{})
		want := big{s: "payload"}
		want.a[63] = 42
		done := make(chan big, 1)
		go func() { done <- q.Take() }()
		q.Put(want)
		got := <-done
		if got.s != "payload" || got.a[63] != 42 {
			t.Fatalf("large payload corrupted: %+v", got)
		}
	})
}

// TestZeroSizedSentinelsRemainDistinct guards the sentinel encoding
// directly: for zero-sized T every &T{} may share an address, so the
// implementation must never depend on value identity — only on the
// specific sentinel pointers. A timeout on a zero-sized queue must not be
// mistaken for fulfillment.
func TestZeroSizedSentinelsRemainDistinct(t *testing.T) {
	q := NewDualQueue[struct{}](WaitConfig{})
	if q.OfferTimeout(struct{}{}, 5*time.Millisecond) {
		t.Fatal("OfferTimeout succeeded with no consumer (sentinel confusion?)")
	}
	if _, ok := q.PollTimeout(5 * time.Millisecond); ok {
		t.Fatal("PollTimeout succeeded with no producer (sentinel confusion?)")
	}
	s := NewDualStack[struct{}](WaitConfig{})
	if s.OfferTimeout(struct{}{}, 5*time.Millisecond) {
		t.Fatal("stack OfferTimeout succeeded (sentinel confusion?)")
	}
}
