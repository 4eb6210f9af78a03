package pool

// Tests for envelope recycling: an envelope goes back on the pool's free
// list only after both its fate reference (the claim winner's) and its
// dispatch reference (whoever can still call dispatch on it) are dropped.
// A shed task's wrapper still sitting in a buffered queue pins its
// envelope until a worker dispatches the inert wrapper.

import (
	"context"
	"errors"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"synchq"
)

// TestEnvelopeTombstoneNeverRuns sheds a buffered task while its wrapper
// is still queued behind a wedged worker. The shed task must never run,
// and the tasks submitted after it must each run exactly once, in
// submission order: were the shed envelope reused while its wrapper is
// still queued, the newest task would ride that stale wrapper and run
// first, ahead of the older survivors.
func TestEnvelopeTombstoneNeverRuns(t *testing.T) {
	const budget = 3
	p := New(NewBuffered(), Config{
		KeepAlive:    time.Minute,
		MaxWorkers:   1,
		CoreWorkers:  1,
		MaxPending:   budget,
		OnSaturation: ShedOldest,
	})
	var mu sync.Mutex
	var order []int
	runs := make([]int, 2*(budget+1))
	task := func(id int) Task {
		return func() {
			mu.Lock()
			order = append(order, id)
			runs[id]++
			mu.Unlock()
		}
	}
	wedge := func() chan struct{} {
		gate := make(chan struct{})
		if err := p.Submit(func() { <-gate }); err != nil {
			t.Fatal(err)
		}
		waitFor(t, "worker wedged", func() bool { return p.Stats().Active == 1 })
		return gate
	}

	// Round one: task 0 is shed by the budget+1'th submission while its
	// wrapper is still queued.
	gate := wedge()
	for id := 0; id <= budget; id++ {
		if err := p.Submit(task(id)); err != nil {
			t.Fatalf("submit %d: %v", id, err)
		}
	}
	if st := p.Stats(); st.Shed != 1 || st.Pending != budget {
		t.Fatalf("shed=%d pending=%d, want 1/%d", st.Shed, st.Pending, budget)
	}
	close(gate)
	waitFor(t, "survivors ran", func() bool {
		st := p.Stats()
		return st.Completed == 1+budget && st.Active == 0
	})

	// Round two reuses the recycled envelopes, the tombstone's among them:
	// every task must still run exactly once.
	gate = wedge()
	for id := budget + 1; id < len(runs); id++ {
		if err := p.Submit(task(id)); err != nil {
			t.Fatalf("submit %d: %v", id, err)
		}
	}
	close(gate)
	res := p.Drain(context.Background())
	if !res.Drained {
		t.Fatalf("drain: %+v", res)
	}

	mu.Lock()
	defer mu.Unlock()
	if runs[0] != 0 {
		t.Fatalf("shed task ran %d times", runs[0])
	}
	for id := 1; id < len(runs); id++ {
		if id == budget+1 {
			continue // shed by round two's budget+1'th submission
		}
		if runs[id] != 1 {
			t.Fatalf("task %d ran %d times, want once (order %v)", id, runs[id], order)
		}
	}
	for i := 1; i < len(order); i++ {
		if order[i] < order[i-1] {
			t.Fatalf("run order %v, want submission order", order)
		}
	}
	st := p.Stats()
	if st.Shed != 2 || st.Completed != 2+2*budget {
		t.Fatalf("shed=%d completed=%d, want 2/%d (%+v)", st.Shed, st.Completed, 2+2*budget, st)
	}
	if gap := st.ConservationGap(); gap != 0 {
		t.Fatalf("conservation gap %d: %+v", gap, st)
	}
}

// TestEnvelopeReuseStorm races submitters against every way an envelope
// can be settled — hand-offs, ShedOldest evictions of buffered and
// synchronous backlogs, CallerRuns dispatch on the submitter, timed-out
// BlockWithDeadline and SubmitContext admissions — and ends each pool with
// a forced Drain while a wedged task holds a worker. Whatever the
// interleaving, no task body may run twice (a returned task must not have
// run either), the ledger must settle exactly, and the drain must return:
// a watchdog fails a wedged storm with every goroutine's stack. Run it
// under -race.
func TestEnvelopeReuseStorm(t *testing.T) {
	fair := func() Queue { return synchq.New[Task](synchq.Fair(true)) }
	cases := []struct {
		name string
		q    func() Queue
		cfg  Config
	}{
		{"handoff-shed-oldest", fair, Config{MaxWorkers: 3, MaxPending: 4, OnSaturation: ShedOldest}},
		{"buffered-shed-oldest", NewBuffered, Config{MaxWorkers: 2, CoreWorkers: 2, MaxPending: 4, OnSaturation: ShedOldest, DispatchBatch: 4}},
		{"caller-runs", fair, Config{MaxWorkers: 2, MaxPending: 4, OnSaturation: CallerRuns}},
		{"block-with-deadline", fair, Config{MaxWorkers: 2, OnSaturation: BlockWithDeadline, SaturationPatience: 50 * time.Microsecond}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			tc.cfg.KeepAlive = 5 * time.Millisecond
			envelopeStorm(t, New(tc.q(), tc.cfg))
		})
	}
}

func envelopeStorm(t *testing.T, p *Pool) {
	const (
		submitters = 4
		maxTasks   = 1 << 16
		stormFor   = 20 * time.Millisecond
	)
	var runs [maxTasks]atomic.Int32
	var next atomic.Int64
	body := func(id int64) Task {
		return func() {
			runs[id].Add(1)
			if id%3 == 0 {
				runtime.Gosched()
			}
		}
	}

	gate := make(chan struct{})
	if err := p.Submit(func() { <-gate }); err != nil {
		t.Fatal(err)
	}
	// Running before the storm starts, so no ShedOldest can evict it.
	waitFor(t, "wedge running", func() bool { return p.Stats().Active == 1 })
	var wg sync.WaitGroup
	for s := 0; s < submitters; s++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				id := next.Add(1) - 1
				if id >= maxTasks {
					return
				}
				var err error
				if id%4 == 0 {
					// A deadline short enough to expire at admission or
					// while queued.
					ctx, cancel := context.WithTimeout(context.Background(), 20*time.Microsecond)
					err = p.SubmitContext(ctx, body(id))
					cancel()
				} else {
					err = p.Submit(body(id))
				}
				switch {
				case err == nil, errors.Is(err, ErrSaturated), errors.Is(err, ErrExpired),
					errors.Is(err, context.DeadlineExceeded):
				case errors.Is(err, ErrDraining), errors.Is(err, ErrShutdown):
					return
				default:
					t.Errorf("submit %d: %v", id, err)
					return
				}
			}
		}()
	}

	time.Sleep(stormFor)
	// Force the drain: its phase 2 cannot finish while the wedge runs, and
	// the wedge is released only once the forced drain has shut the pool.
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Millisecond)
	defer cancel()
	go func() {
		for !p.shut.Load() {
			time.Sleep(100 * time.Microsecond)
		}
		close(gate)
	}()
	settled := make(chan DrainResult, 1)
	go func() {
		res := p.Drain(ctx)
		wg.Wait()
		settled <- res
	}()
	var res DrainResult
	select {
	case res = <-settled:
	case <-time.After(20 * time.Second):
		// A corrupted pending or free list can wedge a walker holding
		// pendMu; fail with every stack instead of hanging the run.
		buf := make([]byte, 1<<20)
		n := runtime.Stack(buf, true)
		t.Fatalf("storm wedged\n%s", buf[:n])
	}
	if !res.Forced {
		t.Errorf("drain was not forced: %+v", res)
	}

	var ran int64
	for id := range runs {
		switch n := runs[id].Load(); {
		case n > 1:
			t.Fatalf("task %d ran %d times", id, n)
		case n == 1:
			ran++
		}
	}
	st := p.Stats()
	if st.Live != 0 || st.Active != 0 || st.Pending != 0 {
		t.Fatalf("unsettled pool after drain: %+v", st)
	}
	if gap := st.ConservationGap(); gap != 0 {
		t.Fatalf("conservation gap %d: %+v", gap, st)
	}
	if ran != st.Completed-1 { // the wedge completed too
		t.Fatalf("%d bodies ran, pool completed %d besides the wedge", ran, st.Completed-1)
	}
	if int64(len(res.Returned)) != st.Returned {
		t.Fatalf("drain returned %d tasks, ledger says %d", len(res.Returned), st.Returned)
	}
	// A returned task never ran: running it now is its first run.
	for _, task := range res.Returned {
		task()
	}
	for id := range runs {
		if n := runs[id].Load(); n > 1 {
			t.Fatalf("returned task %d had already run", id)
		}
	}
	t.Logf("ran %d, shed %d, returned %d, rejected %d of %d submitted",
		ran, st.Shed, st.Returned, st.Rejected, min(next.Load(), maxTasks))
}
