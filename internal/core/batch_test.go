package core

import (
	"sync"
	"testing"
	"time"
)

func TestPutAllAsyncBuffersInOrder(t *testing.T) {
	q := NewDualQueue[int](WaitConfig{})
	n, st := q.PutAllAsync([]int{1, 2, 3, 4, 5})
	if n != 5 || st != OK {
		t.Fatalf("PutAll = (%d, %v), want (5, OK)", n, st)
	}
	for want := 1; want <= 5; want++ {
		v, ok := poll(q)
		if !ok || v != want {
			t.Fatalf("Poll = (%d, %v), want (%d, true)", v, ok, want)
		}
	}
	if _, ok := poll(q); ok {
		t.Fatal("queue not empty after draining the burst")
	}
}

func TestPutAllAsyncServesWaitingConsumersFirst(t *testing.T) {
	q := NewDualQueue[int](WaitConfig{})
	got := make(chan int, 2)
	var wg sync.WaitGroup
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got <- q.Take()
		}()
	}
	for !q.HasWaitingConsumer() {
		time.Sleep(time.Millisecond)
	}
	n, st := q.PutAllAsync([]int{10, 20, 30, 40})
	if n != 4 || st != OK {
		t.Fatalf("PutAll = (%d, %v), want (4, OK)", n, st)
	}
	wg.Wait()
	close(got)
	seen := map[int]bool{}
	for v := range got {
		seen[v] = true
	}
	// The two waiting consumers must have received the batch's first two
	// items; the rest stays buffered in order.
	if !seen[10] || !seen[20] {
		t.Fatalf("waiting consumers got %v, want the front of the batch {10, 20}", seen)
	}
	for _, want := range []int{30, 40} {
		if v, ok := poll(q); !ok || v != want {
			t.Fatalf("Poll = (%d, %v), want (%d, true)", v, ok, want)
		}
	}
}

func TestPutAllAsyncEmptyAndClosed(t *testing.T) {
	q := NewDualQueue[int](WaitConfig{})
	if n, st := q.PutAllAsync(nil); n != 0 || st != OK {
		t.Fatalf("PutAll(nil) = (%d, %v), want (0, OK)", n, st)
	}
	q.Close()
	if n, st := q.PutAllAsync([]int{1, 2}); n != 0 || st != Closed {
		t.Fatalf("PutAll on closed = (%d, %v), want (0, Closed)", n, st)
	}
	// Nothing from the refused burst may have been buffered.
	if _, ok := poll(q); ok {
		t.Fatal("closed queue buffered part of a refused burst")
	}
}

func TestTransferBatchPartialFillOnTimeout(t *testing.T) {
	q := NewDualQueue[int](WaitConfig{})
	taken := make(chan int, 2)
	go func() {
		taken <- q.Take()
		taken <- q.Take()
	}()
	n, st := q.PutBatch([]int{1, 2, 3, 4}, time.Now().Add(100*time.Millisecond), nil)
	if n != 2 || st != Timeout {
		t.Fatalf("TransferBatch = (%d, %v), want (2, Timeout)", n, st)
	}
	if a, b := <-taken, <-taken; a != 1 || b != 2 {
		t.Fatalf("consumers got (%d, %d), want (1, 2)", a, b)
	}
	// Aborted items are reclaimed: nothing buffered, nothing pollable.
	if v, ok := poll(q); ok {
		t.Fatalf("Poll after aborted batch = %d, want miss", v)
	}
}

func TestTakeBatchMixesBufferedAndOrder(t *testing.T) {
	q := NewDualQueue[int](WaitConfig{})
	q.PutAllAsync([]int{1, 2, 3, 4, 5})
	buf, st := q.TakeBatch(nil, 3, time.Time{}, nil)
	if st != OK || len(buf) != 3 {
		t.Fatalf("TakeBatch = (%v, %v), want 3 values, OK", buf, st)
	}
	for i, want := range []int{1, 2, 3} {
		if buf[i] != want {
			t.Fatalf("buf[%d] = %d, want %d", i, buf[i], want)
		}
	}
	// Appending to a caller buffer preserves what was already there.
	buf2, st := q.TakeBatch(buf, 10, time.Time{}, nil)
	if st != OK || len(buf2) != 5 || buf2[3] != 4 || buf2[4] != 5 {
		t.Fatalf("second TakeBatch = (%v, %v), want append of 4, 5", buf2, st)
	}
}

// drainTo is the transfer queue's DrainTo as the facade builds it: a
// zero-patience TakeBatch, whose Timeout the facade reads as "nothing more
// to give" and only whose Closed it reports.
func drainTo(q *DualQueue[int], max int) ([]int, Status) {
	return q.TakeBatch(nil, max, DeadlineFor(0), nil)
}

// TestDrainToClosedDrainsBufferedFirst is the regression test for the
// closed-drain contract: DrainTo on a closed TransferQueue must keep
// returning buffered asynchronous deposits — the promise Take and Poll
// already keep — and report Closed only once the buffer is empty.
func TestDrainToClosedDrainsBufferedFirst(t *testing.T) {
	q := NewDualQueue[int](WaitConfig{})
	q.PutAllAsync([]int{1, 2, 3})
	q.Close()

	buf, st := drainTo(q, 2)
	if st != OK || len(buf) != 2 || buf[0] != 1 || buf[1] != 2 {
		t.Fatalf("DrainTo on closed queue with buffered deposits = (%v, %v), want ([1 2], OK)", buf, st)
	}
	// The last deposit comes out even as the drain hits the closed end.
	buf, st = drainTo(q, 2)
	if len(buf) != 1 || buf[0] != 3 {
		t.Fatalf("second DrainTo = (%v, %v), want the final deposit [3]", buf, st)
	}
	// Only now — buffer empty — may DrainTo report Closed.
	buf, st = drainTo(q, 2)
	if len(buf) != 0 || st != Closed {
		t.Fatalf("DrainTo on drained closed queue = (%v, %v), want ([], Closed)", buf, st)
	}
}

func TestDrainToOpenQueueNeverReportsClosed(t *testing.T) {
	q := NewDualQueue[int](WaitConfig{})
	if buf, st := drainTo(q, 4); len(buf) != 0 || st != Timeout {
		t.Fatalf("DrainTo on empty open queue = (%v, %v), want ([], Timeout)", buf, st)
	}
	q.PutAllAsync([]int{7})
	if buf, st := drainTo(q, 4); st != OK || len(buf) != 1 || buf[0] != 7 {
		t.Fatalf("DrainTo = (%v, %v), want ([7], OK)", buf, st)
	}
}

func TestDualBatchLoopFallbacks(t *testing.T) {
	for _, tc := range []struct {
		name string
		mk   func() interface {
			PutBatch([]int, time.Time, <-chan struct{}) (int, Status)
			TakeBatch([]int, int, time.Time, <-chan struct{}) ([]int, Status)
		}
	}{
		{"queue", func() interface {
			PutBatch([]int, time.Time, <-chan struct{}) (int, Status)
			TakeBatch([]int, int, time.Time, <-chan struct{}) ([]int, Status)
		} {
			return NewDualQueue[int](WaitConfig{})
		}},
		{"stack", func() interface {
			PutBatch([]int, time.Time, <-chan struct{}) (int, Status)
			TakeBatch([]int, int, time.Time, <-chan struct{}) ([]int, Status)
		} {
			return NewDualStack[int](WaitConfig{})
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			q := tc.mk()
			if n, st := q.PutBatch(nil, time.Time{}, nil); n != 0 || st != OK {
				t.Fatalf("PutBatch(nil) = (%d, %v), want (0, OK)", n, st)
			}
			if buf, st := q.TakeBatch(nil, 0, time.Time{}, nil); len(buf) != 0 || st != OK {
				t.Fatalf("TakeBatch(max=0) = (%v, %v), want ([], OK)", buf, st)
			}
			done := make(chan []int)
			go func() {
				var buf []int
				for len(buf) < 4 {
					got, st := q.TakeBatch(buf, 4-len(buf), time.Time{}, nil)
					if st != OK {
						t.Errorf("TakeBatch status = %v", st)
						break
					}
					buf = got
				}
				done <- buf
			}()
			if n, st := q.PutBatch([]int{1, 2, 3, 4}, time.Time{}, nil); n != 4 || st != OK {
				t.Fatalf("PutBatch = (%d, %v), want (4, OK)", n, st)
			}
			buf := <-done
			seen := map[int]bool{}
			for _, v := range buf {
				seen[v] = true
			}
			if len(seen) != 4 {
				t.Fatalf("received %v, want 4 distinct values", buf)
			}
		})
	}
}

func TestPutBatchPartialOnTimeoutDualQueue(t *testing.T) {
	q := NewDualQueue[int](WaitConfig{})
	got := make(chan int, 1)
	go func() { got <- q.Take() }()
	n, st := q.PutBatch([]int{1, 2, 3}, time.Now().Add(100*time.Millisecond), nil)
	if n != 1 || st != Timeout {
		t.Fatalf("PutBatch = (%d, %v), want (1, Timeout)", n, st)
	}
	if v := <-got; v != 1 {
		t.Fatalf("consumer got %d, want the batch's first item 1", v)
	}
}
