package segq

import (
	"math/bits"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"synchq/internal/core"
	"synchq/internal/fault"
)

func TestPutBatchDeliversToWaiters(t *testing.T) {
	const n = 12
	q := New[int](core.WaitConfig{})
	got := make(chan int, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got <- q.Take()
		}()
	}
	for !q.HasWaitingConsumer() {
		time.Sleep(time.Millisecond)
	}
	items := make([]int, n)
	for i := range items {
		items[i] = i
	}
	d, st := q.PutBatch(items, time.Time{}, nil)
	if d != n || st != core.OK {
		t.Fatalf("PutBatch = (%d, %v), want (%d, OK)", d, st, n)
	}
	wg.Wait()
	close(got)
	seen := make(map[int]bool)
	for v := range got {
		if seen[v] {
			t.Fatalf("value %d delivered twice", v)
		}
		seen[v] = true
	}
	if len(seen) != n {
		t.Fatalf("delivered %d distinct values, want %d", len(seen), n)
	}
}

func TestPutBatchPartialFillOnTimeout(t *testing.T) {
	q := New[int](core.WaitConfig{})
	taken := make(chan int, 2)
	go func() {
		taken <- q.Take()
		taken <- q.Take()
	}()
	items := []int{1, 2, 3, 4, 5}
	d, st := q.PutBatch(items, time.Now().Add(100*time.Millisecond), nil)
	if st != core.Timeout {
		t.Fatalf("status = %v, want Timeout", st)
	}
	if d != 2 {
		t.Fatalf("delivered = %d, want 2", d)
	}
	// The partial-fill contract: items[d:] holds exactly the undelivered
	// values in order (the retry slice), whatever run positions delivered.
	for i, want := range []int{3, 4, 5} {
		if items[d+i] != want {
			t.Fatalf("items[%d] = %d, want undelivered %d compacted into the tail", d+i, items[d+i], want)
		}
	}
	if a, b := <-taken, <-taken; a != 1 || b != 2 {
		t.Fatalf("consumers got (%d, %d), want the batch's first two items (1, 2)", a, b)
	}
	// The unwind must reclaim the undelivered items: nothing may remain
	// pollable, and the queue must still pair normally afterwards.
	if v, ok := poll(q); ok {
		t.Fatalf("Poll after aborted batch = %d, want miss", v)
	}
	done := make(chan int)
	go func() { done <- q.Take() }()
	q.Put(42)
	if got := <-done; got != 42 {
		t.Fatalf("post-batch handoff = %d, want 42", got)
	}
}

// TestCompactTail checks the partial-fill compaction against a reference
// for every done mask of runs of 1 to 8 items: with n positions marked
// delivered, items[n:] must hold exactly the unmarked items, in order.
func TestCompactTail(t *testing.T) {
	for k := 1; k <= 8; k++ {
		for done := uint16(0); done < 1<<k; done++ {
			items := make([]int, k)
			var want []int
			for j := range items {
				items[j] = 100 + j
				if done&(1<<j) == 0 {
					want = append(want, items[j])
				}
			}
			compactTail(items, done)
			if n := bits.OnesCount16(done); !slices.Equal(items[n:], want) {
				t.Fatalf("k=%d done=%0*b: items[%d:] = %v, want %v", k, k, done, n, items[n:], want)
			}
		}
	}
}

// TestPutBatchPartialFillNotPrefix covers the partial fill whose delivered
// positions are not a prefix: a consumer takes the run's second install
// while the first, whose consumer never arrives, times out. items[1:] must
// still be the one undelivered item.
func TestPutBatchPartialFillNotPrefix(t *testing.T) {
	q := New[int](core.WaitConfig{})
	q.takec.Add(1) // a consumer claimed index 0 and never arrives
	taken := make(chan int, 1)
	go func() {
		for kind(q.head.Load().at(1).Load()) != cItem {
			runtime.Gosched()
		}
		v, _ := q.TakeDeadline(time.Now().Add(10*time.Second), nil) // claims index 1
		taken <- v
	}()
	items := []int{1, 2}
	d, st := q.PutBatch(items, time.Now().Add(100*time.Millisecond), nil)
	if d != 1 || st != core.Timeout {
		t.Fatalf("PutBatch = (%d, %v), want (1, Timeout)", d, st)
	}
	if v := <-taken; v != 2 {
		t.Fatalf("consumer at index 1 got %d, want the second item", v)
	}
	if items[1] != 1 {
		t.Fatalf("items[1:] = %v, want [1]: the undelivered first item compacted into the tail", items[1:])
	}
}

func TestPutBatchCanceled(t *testing.T) {
	q := New[int](core.WaitConfig{})
	cancel := make(chan struct{})
	close(cancel)
	d, st := q.PutBatch([]int{1, 2, 3}, time.Now().Add(time.Hour), cancel)
	if d != 0 || st != core.Canceled {
		t.Fatalf("PutBatch = (%d, %v), want (0, Canceled)", d, st)
	}
}

func TestPutBatchEmptyAndClosed(t *testing.T) {
	q := New[int](core.WaitConfig{})
	if d, st := q.PutBatch(nil, time.Time{}, nil); d != 0 || st != core.OK {
		t.Fatalf("PutBatch(nil) = (%d, %v), want (0, OK)", d, st)
	}
	q.Close()
	if d, st := q.PutBatch([]int{1}, time.Time{}, nil); d != 0 || st != core.Closed {
		t.Fatalf("PutBatch on closed = (%d, %v), want (0, Closed)", d, st)
	}
}

func TestPutBatchCloseMidWait(t *testing.T) {
	q := New[int](core.WaitConfig{})
	res := make(chan core.Status, 1)
	go func() {
		_, st := q.PutBatch([]int{1, 2, 3}, time.Time{}, nil)
		res <- st
	}()
	for !q.HasWaitingProducer() {
		time.Sleep(time.Millisecond)
	}
	q.Close()
	if st := <-res; st != core.Closed {
		t.Fatalf("PutBatch across Close = %v, want Closed", st)
	}
}

func TestTakeBatchFillsFromCommittedProducers(t *testing.T) {
	const n = 10
	q := New[int](core.WaitConfig{})
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(v int) {
			defer wg.Done()
			q.Put(v)
		}(i)
	}
	buf, st := q.TakeBatch(nil, n, time.Time{}, nil)
	// The first take waits; the fill claims whatever was committed when it
	// ran, so several rounds may be needed — but nothing may be lost.
	for len(buf) < n {
		if st != core.OK {
			t.Fatalf("TakeBatch status = %v, want OK", st)
		}
		buf, st = q.TakeBatch(buf, n-len(buf), time.Time{}, nil)
	}
	wg.Wait()
	seen := make(map[int]bool)
	for _, v := range buf {
		if seen[v] {
			t.Fatalf("value %d taken twice", v)
		}
		seen[v] = true
	}
	if len(seen) != n {
		t.Fatalf("took %d distinct values, want %d", len(seen), n)
	}
}

func TestTakeBatchMaxZeroAndTimeout(t *testing.T) {
	q := New[int](core.WaitConfig{})
	if buf, st := q.TakeBatch(nil, 0, time.Time{}, nil); len(buf) != 0 || st != core.OK {
		t.Fatalf("TakeBatch(max=0) = (%v, %v), want ([], OK)", buf, st)
	}
	if buf, st := q.TakeBatch(nil, 3, core.DeadlineFor(0), nil); len(buf) != 0 || st != core.Timeout {
		t.Fatalf("TakeBatch on empty = (%v, %v), want ([], Timeout)", buf, st)
	}
}

func TestTakeBatchClosed(t *testing.T) {
	q := New[int](core.WaitConfig{})
	q.Close()
	if buf, st := q.TakeBatch(nil, 3, time.Time{}, nil); len(buf) != 0 || st != core.Closed {
		t.Fatalf("TakeBatch on closed = (%v, %v), want ([], Closed)", buf, st)
	}
}

func TestBatchFIFOWithinBatch(t *testing.T) {
	// One consumer taking sequentially must see a batch's items in slice
	// order: the multi-cell claim assigns items to run indexes in ascending
	// order and consumer indexes are FIFO by construction.
	q := New[int](core.WaitConfig{})
	const n = SegSize + 24 // spans multiple runs (runMax chunks) and segments
	items := make([]int, n)
	for i := range items {
		items[i] = i
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		if d, st := q.PutBatch(items, time.Time{}, nil); d != n || st != core.OK {
			t.Errorf("PutBatch = (%d, %v), want (%d, OK)", d, st, n)
		}
	}()
	for i := 0; i < n; i++ {
		if got := q.Take(); got != i {
			t.Fatalf("take %d = %d, want %d (in-batch FIFO violated)", i, got, i)
		}
	}
	<-done
}

func TestBatchConcurrentConservation(t *testing.T) {
	const producers, perBatch, batches = 4, 7, 50
	q := New[int64](core.WaitConfig{})
	var sum atomic.Int64
	var wg sync.WaitGroup
	for p := 0; p < producers; p++ {
		wg.Add(1)
		go func(id int64) {
			defer wg.Done()
			for b := int64(0); b < batches; b++ {
				items := make([]int64, perBatch)
				for i := range items {
					items[i] = id*batches*perBatch + b*perBatch + int64(i)
				}
				if d, st := q.PutBatch(items, time.Time{}, nil); d != perBatch || st != core.OK {
					t.Errorf("PutBatch = (%d, %v), want (%d, OK)", d, st, perBatch)
					return
				}
			}
		}(int64(p))
	}
	const total = producers * perBatch * batches
	var cg sync.WaitGroup
	var taken atomic.Int64
	for c := 0; c < producers; c++ {
		cg.Add(1)
		go func() {
			defer cg.Done()
			for taken.Load() < total {
				buf, st := q.TakeBatch(nil, 5, time.Now().Add(50*time.Millisecond), nil)
				if st != core.OK && st != core.Timeout {
					t.Errorf("TakeBatch status = %v", st)
					return
				}
				for _, v := range buf {
					sum.Add(v)
				}
				taken.Add(int64(len(buf)))
			}
		}()
	}
	wg.Wait()
	cg.Wait()
	if want := int64(total) * (total - 1) / 2; sum.Load() != want {
		t.Fatalf("sum of delivered values = %d, want %d (conservation violated)", sum.Load(), want)
	}
	if !isEmpty(q) {
		t.Fatal("queue not empty after balanced batch run")
	}
}

// TestTakeBatchResultSizedByClaim runs the batch workload's shape — two
// producers of 32-item PutBatch calls against two consumers of
// TakeBatch(nil, 32) — and bounds the result slices' unused capacity.
// A result sized by the run its taker has already claimed, and grown by
// each later run's claim, is short only by those runs' misses, under 1%
// of the items here; one sized by the committed-producer surplus read
// before the claim also loses whatever part of that surplus the other
// consumer claims in between, about 2%.
func TestTakeBatchResultSizedByClaim(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's slowdown makes misses, not sizing, the slack (see raceEnabled)")
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	const producers, consumers, rounds, batch = 2, 2, 2000, 32
	q := New[int64](core.WaitConfig{})
	var slack, items atomic.Int64
	var pw, cw sync.WaitGroup
	for p := 0; p < producers; p++ {
		pw.Add(1)
		go func() {
			defer pw.Done()
			buf := make([]int64, batch)
			for r := 0; r < rounds; r++ {
				if n, st := q.PutBatch(buf, time.Time{}, nil); n != batch || st != core.OK {
					t.Errorf("PutBatch = (%d, %v), want (%d, OK)", n, st, batch)
					return
				}
			}
		}()
	}
	for c := 0; c < consumers; c++ {
		cw.Add(1)
		go func() {
			defer cw.Done()
			for {
				got, st := q.TakeBatch(nil, batch, time.Time{}, nil)
				slack.Add(int64(cap(got) - len(got)))
				items.Add(int64(len(got)))
				if st != core.OK {
					return
				}
			}
		}()
	}
	pw.Wait()
	q.Close()
	cw.Wait()
	if want := int64(producers * rounds * batch); items.Load() != want {
		t.Fatalf("consumers took %d items, want %d", items.Load(), want)
	}
	share := float64(slack.Load()) / float64(items.Load())
	t.Logf("unused result capacity: %d slots, %.2f%% of %d items", slack.Load(), 100*share, items.Load())
	if share > 0.02 {
		t.Errorf("unused result capacity is %.1f%% of the items taken, want <= 2%%: TakeBatch sized its result before claiming", 100*share)
	}
}

// TestTakeBatchSizesAfterItsClaim freezes a TakeBatch between its first
// take and its claim, with seven more producer indexes committed, and
// closes the queue meanwhile: the claim then owns nothing, so the result
// must hold just the value taken. A result sized from the committed
// surplus before the claim would carry room for seven values the call
// never owned.
func TestTakeBatchSizesAfterItsClaim(t *testing.T) {
	hold, entered := make(chan struct{}), make(chan struct{})
	inj := fault.New(fault.Config{
		PreemptRate: 1,
		Budget:      1,
		Sites:       []fault.Site{fault.SegResolvePause},
		PreemptFunc: func(fault.Site) { close(entered); <-hold },
	})
	q := New[int](core.WaitConfig{Fault: inj})
	put := make(chan int)
	go func() {
		n, _ := q.PutBatch([]int{1, 2, 3, 4, 5, 6, 7, 8}, time.Time{}, nil)
		put <- n
	}()
	waitCond(t, func() bool { return q.Len() == 8 })
	type result struct {
		got []int
		st  core.Status
	}
	took := make(chan result)
	go func() {
		got, st := q.TakeBatch(nil, 8, time.Time{}, nil)
		took <- result{got, st}
	}()
	<-entered // the first take resolved cell 0 and has not claimed yet
	q.Close()
	close(hold)
	r := <-took
	if r.st != core.Closed || len(r.got) != 1 || r.got[0] != 1 {
		t.Fatalf("TakeBatch = (%v, %v), want ([1], Closed)", r.got, r.st)
	}
	if c := cap(r.got); c != 1 {
		t.Errorf("result capacity %d, want 1: sized for indexes the call never claimed", c)
	}
	if n := <-put; n != 1 {
		t.Errorf("PutBatch delivered %d, want 1", n)
	}
}
