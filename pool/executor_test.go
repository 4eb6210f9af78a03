package pool

// Tests for the executor tier's robustness machinery: the Submit/Shutdown
// spawn-race fix (deterministically frozen with the pool-spawn-race-pause
// fault site), deadline-aware admission and pre-dispatch shedding, the
// backpressure policies, the multi-phase drain with its conservation
// guarantee, goroutine-leak-free lifecycle, and crash-loop containment.

import (
	"context"
	"errors"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"synchq"
	"synchq/internal/fault"
)

// waitFor polls cond until it holds or the deadline passes.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestSubmitShutdownSpawnRaceRegression deterministically replays the
// Submit/Shutdown spawn race: the pool-spawn-race-pause site freezes
// Submit between winning the worker-count CAS and committing the worker,
// Shutdown then runs to completion (wake-up sweep included), and only
// then is the frozen Submit released. Pre-fix, Submit spawned a worker
// into the dead pool — the task ran after Shutdown and the worker parked
// for a full keep-alive, invisible to the sweep. Post-fix, the post-spawn
// re-check unwinds the spawn and Submit reports ErrShutdown.
func TestSubmitShutdownSpawnRaceRegression(t *testing.T) {
	hold := make(chan struct{})
	entered := make(chan struct{})
	inj := fault.New(fault.Config{
		Seed:        1,
		PreemptRate: 1,
		Budget:      1,
		Sites:       []fault.Site{fault.PoolSpawnRacePause},
		PreemptFunc: func(fault.Site) { close(entered); <-hold },
	})
	p := New(newQueue(), Config{KeepAlive: time.Hour, Fault: inj})

	res := make(chan error, 1)
	go func() {
		res <- p.Submit(func() { t.Error("task ran in a shut-down pool") })
	}()
	<-entered    // Submit is frozen inside the race window
	p.Shutdown() // completes fully while the window is open
	close(hold)  // release Submit

	if err := <-res; !errors.Is(err, ErrShutdown) {
		t.Fatalf("Submit in the spawn-race window = %v, want ErrShutdown", err)
	}
	st := p.Stats()
	if st.Spawned != 0 || st.Live != 0 {
		t.Fatalf("worker escaped the re-check: spawned=%d live=%d", st.Spawned, st.Live)
	}
	done := make(chan struct{})
	go func() { p.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("Wait hung: the race leaked a worker")
	}
}

// TestDeadlineExpiredTaskShedBeforeDispatch covers deadline-aware
// admission end to end: a task accepted into a buffered backlog whose
// context deadline lapses while it queues must be shed before dispatch —
// never run — and show up in the Shed column of the ledger.
func TestDeadlineExpiredTaskShedBeforeDispatch(t *testing.T) {
	p := New(NewBuffered(), Config{KeepAlive: 50 * time.Millisecond, MaxWorkers: 1, CoreWorkers: 1})
	gate := make(chan struct{})
	if err := p.Submit(func() { <-gate }); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "worker busy", func() bool { return p.Stats().Active == 1 })

	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	var ran atomic.Bool
	if err := p.SubmitContext(ctx, func() { ran.Store(true) }); err != nil {
		t.Fatalf("buffered SubmitContext: %v", err)
	}
	time.Sleep(40 * time.Millisecond) // deadline lapses while queued
	close(gate)

	res := p.Drain(context.Background())
	if !res.Drained {
		t.Fatalf("drain did not complete cleanly: %+v", res)
	}
	if ran.Load() {
		t.Fatal("expired task was executed")
	}
	st := p.Stats()
	if st.Shed != 1 {
		t.Fatalf("Shed = %d, want 1 (stats: %+v)", st.Shed, st)
	}
	if gap := st.ConservationGap(); gap != 0 {
		t.Fatalf("conservation gap %d: %+v", gap, st)
	}
}

// TestSubmitContextRejectsAtAdmission pins the admission-time checks: an
// already-expired or canceled context never admits the task.
func TestSubmitContextRejectsAtAdmission(t *testing.T) {
	p := New(newQueue(), Config{KeepAlive: 20 * time.Millisecond})
	defer func() { p.Shutdown(); p.Wait() }()

	expired, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer cancel()
	if err := p.SubmitContext(expired, func() {}); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("expired ctx = %v, want DeadlineExceeded", err)
	}
	canceled, cancel2 := context.WithCancel(context.Background())
	cancel2()
	if err := p.SubmitContext(canceled, func() {}); !errors.Is(err, context.Canceled) {
		t.Fatalf("canceled ctx = %v, want Canceled", err)
	}
	st := p.Stats()
	if st.Rejected != 2 || st.Accepted != 0 {
		t.Fatalf("rejected=%d accepted=%d, want 2/0", st.Rejected, st.Accepted)
	}
}

// TestWaitPolicyHonorsCancellation replaces the old busy-spin contract: a
// Submit blocked at saturation under the Wait policy must return with the
// context's cause as soon as the caller cancels, not spin until shutdown.
func TestWaitPolicyHonorsCancellation(t *testing.T) {
	p := New(newQueue(), Config{KeepAlive: 100 * time.Millisecond, MaxWorkers: 1, OnSaturation: Wait})
	gate := make(chan struct{})
	if err := p.Submit(func() { <-gate }); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "worker busy", func() bool { return p.Stats().Active == 1 })

	ctx, cancel := context.WithCancel(context.Background())
	res := make(chan error, 1)
	go func() { res <- p.SubmitContext(ctx, func() {}) }()
	select {
	case err := <-res:
		t.Fatalf("blocked Submit returned early: %v", err)
	case <-time.After(20 * time.Millisecond):
	}
	cancel()
	select {
	case err := <-res:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("canceled blocked Submit = %v, want Canceled", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("canceled Submit never returned")
	}
	close(gate)
	p.Shutdown()
	p.Wait()
}

// TestBlockedSubmitContextParksNoExtraGoroutine: a SubmitContext blocked
// under the Wait policy must cost only its own goroutine. Its context and
// the pool's shutdown both wake it through context.AfterFunc
// registrations, not a merger goroutine per submission; half the blocked
// submitters here are woken by cancellation and the rest by Shutdown.
func TestBlockedSubmitContextParksNoExtraGoroutine(t *testing.T) {
	q := &offerCountingQueue{SynchronousQueue: synchq.New[Task](synchq.Fair(false))}
	p := New(q, Config{KeepAlive: time.Minute, MaxWorkers: 1, OnSaturation: Wait})
	gate := make(chan struct{})
	if err := p.Submit(func() { <-gate }); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "worker busy", func() bool { return p.Stats().Active == 1 })

	const n = 16
	before := runtime.NumGoroutine()
	cancels := make([]context.CancelFunc, n)
	res := make(chan error, n)
	for i := range cancels {
		var ctx context.Context
		ctx, cancels[i] = context.WithCancel(context.Background())
		go func() { res <- p.SubmitContext(ctx, func() {}) }()
	}
	waitFor(t, "submitters blocked in OfferWait", func() bool { return q.offering.Load() == n })
	if grew := runtime.NumGoroutine() - before; grew > n+n/4 {
		t.Fatalf("%d blocked SubmitContext calls added %d goroutines, want about %d (one each)", n, grew, n)
	}

	for _, cancel := range cancels[:n/2] {
		cancel()
	}
	for i := 0; i < n/2; i++ {
		if err := <-res; !errors.Is(err, context.Canceled) {
			t.Fatalf("canceled blocked Submit = %v, want Canceled", err)
		}
	}
	p.Shutdown()
	for i := 0; i < n/2; i++ {
		if err := <-res; !errors.Is(err, ErrShutdown) {
			t.Fatalf("blocked Submit at Shutdown = %v, want ErrShutdown", err)
		}
	}
	for _, cancel := range cancels[n/2:] {
		cancel()
	}
	close(gate)
	p.Wait()
	waitFor(t, "goroutines to settle", func() bool {
		return runtime.NumGoroutine() <= before-1 // the gated worker has exited too
	})
}

// offerCountingQueue counts the OfferWait calls in progress, so a test
// can wait until every blocked submitter has reached its blocking offer.
type offerCountingQueue struct {
	*synchq.SynchronousQueue[Task]
	offering atomic.Int64
}

func (q *offerCountingQueue) OfferWait(t Task, deadline time.Time, cancel <-chan struct{}) bool {
	q.offering.Add(1)
	defer q.offering.Add(-1)
	return q.SynchronousQueue.OfferWait(t, deadline, cancel)
}

// TestBlockWithDeadlinePolicy bounds backpressure: the blocked offer gives
// up after SaturationPatience with ErrSaturated instead of waiting
// forever.
func TestBlockWithDeadlinePolicy(t *testing.T) {
	p := New(newQueue(), Config{
		KeepAlive:          100 * time.Millisecond,
		MaxWorkers:         1,
		OnSaturation:       BlockWithDeadline,
		SaturationPatience: 20 * time.Millisecond,
	})
	gate := make(chan struct{})
	if err := p.Submit(func() { <-gate }); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "worker busy", func() bool { return p.Stats().Active == 1 })

	t0 := time.Now()
	err := p.Submit(func() {})
	if !errors.Is(err, ErrSaturated) {
		t.Fatalf("BlockWithDeadline at saturation = %v, want ErrSaturated", err)
	}
	if el := time.Since(t0); el < 10*time.Millisecond {
		t.Fatalf("gave up after %v — did not actually block", el)
	}
	close(gate)
	p.Shutdown()
	p.Wait()
}

// TestShedOldestEvictsForNewest drives the buffered newest-wins policy:
// at the admission budget the oldest pending task is shed to admit the
// new one, every submission is accepted, and the ledger stays exact.
func TestShedOldestEvictsForNewest(t *testing.T) {
	p := New(NewBuffered(), Config{
		KeepAlive:    50 * time.Millisecond,
		MaxWorkers:   1,
		CoreWorkers:  1,
		MaxPending:   2,
		OnSaturation: ShedOldest,
	})
	gate := make(chan struct{})
	if err := p.Submit(func() { <-gate }); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "worker busy", func() bool { return p.Stats().Active == 1 })

	var mu sync.Mutex
	var ranIDs []int
	for i := 1; i <= 5; i++ {
		i := i
		if err := p.Submit(func() {
			mu.Lock()
			ranIDs = append(ranIDs, i)
			mu.Unlock()
		}); err != nil {
			t.Fatalf("submit %d under ShedOldest: %v", i, err)
		}
	}
	close(gate)
	res := p.Drain(context.Background())
	if !res.Drained {
		t.Fatalf("drain: %+v", res)
	}
	st := p.Stats()
	if st.Shed != 3 || st.Completed != 3 { // gate task + newest two
		t.Fatalf("shed=%d completed=%d, want 3/3 (%+v)", st.Shed, st.Completed, st)
	}
	if gap := st.ConservationGap(); gap != 0 {
		t.Fatalf("conservation gap %d: %+v", gap, st)
	}
	mu.Lock()
	defer mu.Unlock()
	if len(ranIDs) != 2 || ranIDs[0] != 4 || ranIDs[1] != 5 {
		t.Fatalf("survivors = %v, want newest [4 5]", ranIDs)
	}
}

// TestDrainForcedReturnsBacklog drives phase 3: a worker wedged on a task
// keeps the backlog pending past the drain deadline, so the drain forces,
// hands every undispatched task back, and the ledger settles with zero
// loss once the wedge clears.
func TestDrainForcedReturnsBacklog(t *testing.T) {
	p := New(NewBuffered(), Config{KeepAlive: 50 * time.Millisecond, MaxWorkers: 1, CoreWorkers: 1})
	gate := make(chan struct{})
	if err := p.Submit(func() { <-gate }); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "worker busy", func() bool { return p.Stats().Active == 1 })

	var ran atomic.Int64
	for i := 0; i < 10; i++ {
		if err := p.Submit(func() { ran.Add(1) }); err != nil {
			t.Fatal(err)
		}
	}
	go func() {
		time.Sleep(80 * time.Millisecond)
		close(gate) // un-wedge the worker after the drain deadline
	}()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
	defer cancel()
	res := p.Drain(ctx)
	if !res.Forced || res.Drained {
		t.Fatalf("expected forced drain, got %+v", res)
	}
	if len(res.Returned) != 10 {
		t.Fatalf("returned %d tasks, want 10", len(res.Returned))
	}
	if ran.Load() != 0 {
		t.Fatalf("%d returned tasks also ran", ran.Load())
	}
	st := p.Stats()
	if st.Returned != 10 || st.Completed != 1 {
		t.Fatalf("returned=%d completed=%d, want 10/1", st.Returned, st.Completed)
	}
	if gap := st.ConservationGap(); gap != 0 {
		t.Fatalf("conservation gap %d: %+v", gap, st)
	}
	// The caller owns the returned tasks — running them must work.
	for _, task := range res.Returned {
		task()
	}
	if ran.Load() != 10 {
		t.Fatalf("returned tasks not runnable: ran %d", ran.Load())
	}
}

// TestDrainUnderSubmitStorm races Drain against eight submitters: the
// quiesce phase must cut admission over cleanly (every submitter sees
// ErrDraining/ErrShutdown from one point on), the drain must settle the
// ledger exactly, and no goroutine may survive.
func TestDrainUnderSubmitStorm(t *testing.T) {
	p := New(newQueue(), Config{KeepAlive: 20 * time.Millisecond, MaxWorkers: 8, OnSaturation: CallerRuns})
	var stormed sync.WaitGroup
	stop := make(chan struct{})
	for s := 0; s < 8; s++ {
		stormed.Add(1)
		go func() {
			defer stormed.Done()
			for {
				err := p.Submit(func() { time.Sleep(50 * time.Microsecond) })
				if errors.Is(err, ErrDraining) || errors.Is(err, ErrShutdown) {
					return
				}
				if err != nil {
					t.Errorf("storm submit: %v", err)
					return
				}
				select {
				case <-stop:
					return
				default:
				}
			}
		}()
	}
	time.Sleep(10 * time.Millisecond)
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	res := p.Drain(ctx)
	close(stop)
	stormed.Wait()
	if !res.Drained && !res.Forced {
		t.Fatalf("drain reached no terminal phase: %+v", res)
	}
	st := p.Stats()
	if st.Live != 0 || st.Active != 0 || st.Pending != 0 {
		t.Fatalf("unsettled pool after drain: %+v", st)
	}
	if gap := st.ConservationGap(); gap != 0 {
		t.Fatalf("conservation gap %d: %+v", gap, st)
	}
	if err := p.Submit(func() {}); !errors.Is(err, ErrShutdown) {
		t.Fatalf("post-drain Submit = %v, want ErrShutdown", err)
	}
}

// TestKeepAliveExpiryLeaksNoGoroutines is the lifecycle leak detector:
// after a burst, every worker must retire through keep-alive expiry and
// the goroutine count must return to its pre-pool level.
func TestKeepAliveExpiryLeaksNoGoroutines(t *testing.T) {
	before := runtime.NumGoroutine()
	p := New(newQueue(), Config{KeepAlive: 5 * time.Millisecond})
	var done sync.WaitGroup
	for i := 0; i < 20; i++ {
		done.Add(1)
		if err := p.Submit(func() { done.Done() }); err != nil {
			t.Fatal(err)
		}
	}
	done.Wait()
	waitFor(t, "workers to expire", func() bool { return p.Stats().Live == 0 })
	p.Shutdown()
	p.Wait()
	waitFor(t, "goroutines to settle", func() bool {
		runtime.GC() // flush finalizer goroutines out of the count
		return runtime.NumGoroutine() <= before
	})
}

// TestPanicStormEngagesCrashLoopBackoff: a run of consecutive panicking
// tasks must trip the crash-loop breaker — pausing pool growth — without
// killing workers, and one healthy task must re-arm normal operation.
func TestPanicStormEngagesCrashLoopBackoff(t *testing.T) {
	p := New(newQueue(), Config{KeepAlive: 200 * time.Millisecond, CoreWorkers: 1, MaxWorkers: 4})
	// Serial panic storm through the single core worker.
	for i := 0; i < crashLoopThreshold+2; i++ {
		done := make(chan struct{})
		submitOne(t, p, func() { defer close(done); panic("storm") })
		<-done
	}
	waitFor(t, "panics tallied", func() bool {
		return p.Stats().Panicked == crashLoopThreshold+2
	})
	if p.Stats().CrashLoops < 1 {
		t.Fatalf("breaker did not trip: %+v", p.Stats())
	}

	// With the breaker tripped and the core worker busy, the grow path
	// is paused: Submit saturates below MaxWorkers.
	gate := make(chan struct{})
	submitOne(t, p, func() { <-gate })
	waitFor(t, "worker busy", func() bool { return p.Stats().Active == 1 })
	if err := p.Submit(func() {}); !errors.Is(err, ErrSaturated) {
		t.Fatalf("growth during crash loop = %v, want ErrSaturated (backoff)", err)
	}
	if st := p.Stats(); st.Spawned != 1 {
		t.Fatalf("pool grew during a crash loop: spawned=%d", st.Spawned)
	}
	close(gate) // the healthy task completes and re-arms growth

	waitFor(t, "breaker reset", func() bool { return !p.crashLoop.Load() })
	gate2 := make(chan struct{})
	submitOne(t, p, func() { <-gate2 })
	waitFor(t, "worker busy again", func() bool { return p.Stats().Active == 1 })
	ok := make(chan struct{})
	if err := p.Submit(func() { close(ok) }); err != nil {
		t.Fatalf("post-recovery growth failed: %v", err)
	}
	select {
	case <-ok:
	case <-time.After(5 * time.Second):
		t.Fatal("grown worker never ran the task")
	}
	close(gate2)
	p.Shutdown()
	p.Wait()
	if gap := p.Stats().ConservationGap(); gap != 0 {
		t.Fatalf("conservation gap %d: %+v", gap, p.Stats())
	}
}

// submitOne lands a task on a synchronous pool, retrying the benign
// window where the worker has not yet returned to its poll.
func submitOne(t *testing.T, p *Pool, task Task) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		err := p.Submit(task)
		if err == nil {
			return
		}
		if !errors.Is(err, ErrSaturated) || time.Now().After(deadline) {
			t.Fatalf("submit: %v", err)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestMaxPendingBoundsBacklog pins the admission budget: with Reject at
// the budget, the accepted-but-undispatched backlog never exceeds
// MaxPending.
func TestMaxPendingBoundsBacklog(t *testing.T) {
	p := New(NewBuffered(), Config{KeepAlive: 50 * time.Millisecond, MaxWorkers: 1, CoreWorkers: 1, MaxPending: 3})
	gate := make(chan struct{})
	if err := p.Submit(func() { <-gate }); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "worker busy", func() bool { return p.Stats().Active == 1 })

	accepted, saturated := 0, 0
	for i := 0; i < 10; i++ {
		switch err := p.Submit(func() {}); {
		case err == nil:
			accepted++
		case errors.Is(err, ErrSaturated):
			saturated++
		default:
			t.Fatalf("submit %d: %v", i, err)
		}
		if pend := p.Stats().Pending; pend > 3 {
			t.Fatalf("pending backlog %d exceeds budget 3", pend)
		}
	}
	if accepted != 3 || saturated != 7 {
		t.Fatalf("accepted=%d saturated=%d, want 3/7", accepted, saturated)
	}
	close(gate)
	res := p.Drain(context.Background())
	if !res.Drained {
		t.Fatalf("drain: %+v", res)
	}
	if gap := p.Stats().ConservationGap(); gap != 0 {
		t.Fatalf("conservation gap %d: %+v", gap, p.Stats())
	}
}

// TestDispatchBatchConservation pins the batched-dispatch path: with
// DispatchBatch set, a worker that wakes for one task claims a burst of
// backlog through the queue's DrainTo facet and runs every claimed task
// through the normal dispatch wrapper — so under burst load the ledger
// must balance exactly, and a poison pill swept up mid-batch must still
// shut the worker down. Runs over both queue shapes that provide the
// facet: the buffered work queue and a synchronous hand-off queue.
func TestDispatchBatchConservation(t *testing.T) {
	shapes := []struct {
		name string
		q    Queue
	}{
		{"buffered", NewBuffered()},
		{"synchronous", newQueue()},
	}
	for _, shape := range shapes {
		t.Run(shape.name, func(t *testing.T) {
			p := New(shape.q, Config{
				KeepAlive: 50 * time.Millisecond, MaxWorkers: 4, CoreWorkers: 2,
				DispatchBatch: 8,
				// The synchronous shape saturates under a 4-producer burst
				// (no backlog to absorb it); Wait gives bounded hand-off
				// backpressure instead of ErrSaturated.
				OnSaturation: Wait,
			})
			const producers, perProducer = 4, 100
			var ran atomic.Int64
			var wg sync.WaitGroup
			for i := 0; i < producers; i++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for j := 0; j < perProducer; j++ {
						if err := p.Submit(func() { ran.Add(1) }); err != nil {
							t.Errorf("submit: %v", err)
							return
						}
					}
				}()
			}
			wg.Wait()
			waitFor(t, "all tasks completed", func() bool {
				return ran.Load() == producers*perProducer
			})

			p.Shutdown()
			done := make(chan struct{})
			go func() { p.Wait(); close(done) }()
			select {
			case <-done:
			case <-time.After(5 * time.Second):
				t.Fatal("Wait hung: a worker missed shutdown under batched dispatch")
			}
			st := p.Stats()
			if st.Completed != producers*perProducer {
				t.Fatalf("Completed = %d, want %d (stats: %+v)", st.Completed, producers*perProducer, st)
			}
			if gap := st.ConservationGap(); gap != 0 {
				t.Fatalf("conservation gap %d under batched dispatch: %+v", gap, st)
			}
		})
	}
}
