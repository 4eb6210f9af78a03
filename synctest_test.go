//go:build goexperiment.synctest

// synctest.Run requires the go 1.23 timer channels, which this module's
// go 1.22 line would otherwise turn off.
//go:debug asynctimerchan=0

package synchq_test

import (
	"sync"
	"testing"
	"testing/synctest"
	"time"

	"synchq"
)

// TestBubbledParksStayInTheirQueue: a channel made inside a synctest bubble
// belongs to that bubble, and any receive on it from outside panics. Takes
// that park inside a bubble make their parkers' channels there; a Take
// that parks afterwards, on a new queue outside the bubble, must block on
// a channel of its own queue's parker, not on one the bubble left behind.
func TestBubbledParksStayInTheirQueue(t *testing.T) {
	const takers = 64
	synctest.Run(func() {
		q := synchq.New[int](synchq.Fair(true))
		var wg sync.WaitGroup
		for range takers {
			wg.Add(1)
			go func() {
				defer wg.Done()
				q.Take()
			}()
		}
		synctest.Wait() // every taker is parked
		for i := range takers {
			q.Put(i)
		}
		wg.Wait()
	})

	m := synchq.NewMetrics()
	q := synchq.New[int](synchq.Fair(true), synchq.Instrument(m))
	got := make(chan int)
	go func() { got <- q.Take() }()
	for m.Stats().Counters["parks"] == 0 {
		time.Sleep(100 * time.Microsecond)
	}
	q.Put(7)
	if v := <-got; v != 7 {
		t.Fatalf("Take = %d, want 7", v)
	}
}
