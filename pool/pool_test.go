package pool

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"synchq"
)

func newQueue() Queue {
	return synchq.New[Task](synchq.Fair(false))
}

func TestSubmitRunsTask(t *testing.T) {
	p := New(newQueue(), Config{KeepAlive: 20 * time.Millisecond})
	done := make(chan struct{})
	if err := p.Submit(func() { close(done) }); err != nil {
		t.Fatal(err)
	}
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("task never ran")
	}
	p.Shutdown()
	p.Wait()
}

func TestTasksRunConcurrentlyOnDemand(t *testing.T) {
	// A cached pool must grow: two blocking tasks need two workers.
	p := New(newQueue(), Config{KeepAlive: 20 * time.Millisecond})
	gate := make(chan struct{})
	var running atomic.Int32
	for i := 0; i < 2; i++ {
		err := p.Submit(func() {
			running.Add(1)
			<-gate
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	deadline := time.Now().Add(5 * time.Second)
	for running.Load() != 2 {
		if time.Now().After(deadline) {
			t.Fatalf("only %d tasks running; pool failed to grow", running.Load())
		}
		time.Sleep(time.Millisecond)
	}
	close(gate)
	p.Shutdown()
	p.Wait()
}

func TestIdleWorkerIsReusedViaHandoff(t *testing.T) {
	p := New(newQueue(), Config{KeepAlive: time.Second})
	run := func() {
		done := make(chan struct{})
		if err := p.Submit(func() { close(done) }); err != nil {
			t.Fatal(err)
		}
		<-done
	}
	run()
	// Give the worker time to come back to Poll.
	time.Sleep(20 * time.Millisecond)
	run()
	st := p.Stats()
	if st.Handoffs == 0 {
		t.Fatalf("no synchronous hand-offs recorded: %+v", st)
	}
	if st.Spawned != 1 {
		t.Fatalf("spawned %d workers, want 1 (idle worker should be reused)", st.Spawned)
	}
	p.Shutdown()
	p.Wait()
}

func TestWorkersExpireAfterKeepAlive(t *testing.T) {
	p := New(newQueue(), Config{KeepAlive: 10 * time.Millisecond})
	done := make(chan struct{})
	if err := p.Submit(func() { close(done) }); err != nil {
		t.Fatal(err)
	}
	<-done
	deadline := time.Now().Add(5 * time.Second)
	for p.Stats().Live != 0 {
		if time.Now().After(deadline) {
			t.Fatalf("worker did not expire: %+v", p.Stats())
		}
		time.Sleep(time.Millisecond)
	}
}

func TestSubmitAfterShutdownFails(t *testing.T) {
	p := New(newQueue(), Config{KeepAlive: 10 * time.Millisecond})
	p.Shutdown()
	if err := p.Submit(func() {}); !errors.Is(err, ErrShutdown) {
		t.Fatalf("Submit after shutdown = %v, want ErrShutdown", err)
	}
	p.Wait()
}

func TestNilTaskRejected(t *testing.T) {
	p := New(newQueue(), Config{})
	if err := p.Submit(nil); !errors.Is(err, ErrNilTask) {
		t.Fatalf("Submit(nil) = %v, want ErrNilTask", err)
	}
	p.Shutdown()
}

func TestShutdownWakesIdleWorkers(t *testing.T) {
	// Long keep-alive, but Shutdown must still complete promptly by
	// poisoning idle workers.
	p := New(newQueue(), Config{KeepAlive: time.Hour})
	done := make(chan struct{})
	if err := p.Submit(func() { close(done) }); err != nil {
		t.Fatal(err)
	}
	<-done
	time.Sleep(20 * time.Millisecond) // let the worker reach Poll
	t0 := time.Now()
	p.Shutdown()
	p.Wait()
	if time.Since(t0) > 5*time.Second {
		t.Fatal("Shutdown took too long; idle worker not poisoned")
	}
}

func TestMaxWorkersRejectPolicy(t *testing.T) {
	p := New(newQueue(), Config{KeepAlive: time.Second, MaxWorkers: 1, OnSaturation: Reject})
	gate := make(chan struct{})
	if err := p.Submit(func() { <-gate }); err != nil {
		t.Fatal(err)
	}
	// Wait until the single worker is busy.
	time.Sleep(10 * time.Millisecond)
	err := p.Submit(func() {})
	if !errors.Is(err, ErrSaturated) {
		t.Fatalf("Submit at saturation = %v, want ErrSaturated", err)
	}
	close(gate)
	p.Shutdown()
	p.Wait()
}

func TestMaxWorkersCallerRunsPolicy(t *testing.T) {
	p := New(newQueue(), Config{KeepAlive: time.Second, MaxWorkers: 1, OnSaturation: CallerRuns})
	gate := make(chan struct{})
	if err := p.Submit(func() { <-gate }); err != nil {
		t.Fatal(err)
	}
	time.Sleep(10 * time.Millisecond)
	ran := false
	if err := p.Submit(func() { ran = true }); err != nil {
		t.Fatal(err)
	}
	if !ran {
		t.Fatal("CallerRuns did not run the task on the submitter")
	}
	close(gate)
	p.Shutdown()
	p.Wait()
}

func TestMaxWorkersWaitPolicy(t *testing.T) {
	p := New(newQueue(), Config{KeepAlive: time.Second, MaxWorkers: 1, OnSaturation: Wait})
	gate := make(chan struct{})
	if err := p.Submit(func() { <-gate }); err != nil {
		t.Fatal(err)
	}
	time.Sleep(10 * time.Millisecond)
	submitted := make(chan error, 1)
	go func() { submitted <- p.Submit(func() {}) }()
	select {
	case <-submitted:
		t.Fatal("Wait policy returned while the pool was saturated")
	case <-time.After(20 * time.Millisecond):
	}
	close(gate) // worker frees up and polls; the waiting Submit lands
	select {
	case err := <-submitted:
		if err != nil {
			t.Fatalf("waiting Submit failed: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("waiting Submit never completed")
	}
	p.Shutdown()
	p.Wait()
}

func TestManySubmittersAllTasksRun(t *testing.T) {
	p := New(newQueue(), Config{KeepAlive: 20 * time.Millisecond})
	const submitters, perSubmitter = 8, 200
	var ran atomic.Int64
	var wg sync.WaitGroup
	for i := 0; i < submitters; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < perSubmitter; j++ {
				for p.Submit(func() { ran.Add(1) }) != nil {
					t.Error("Submit failed unexpectedly")
					return
				}
			}
		}()
	}
	wg.Wait()
	deadline := time.Now().Add(10 * time.Second)
	for ran.Load() != submitters*perSubmitter {
		if time.Now().After(deadline) {
			t.Fatalf("ran %d tasks, want %d", ran.Load(), submitters*perSubmitter)
		}
		time.Sleep(time.Millisecond)
	}
	p.Shutdown()
	p.Wait()
	if got := p.Stats().Completed; got != submitters*perSubmitter {
		t.Fatalf("Completed = %d, want %d", got, submitters*perSubmitter)
	}
}

func TestPoolOverEveryQueueKind(t *testing.T) {
	kinds := map[string]func() Queue{
		"fair":   func() Queue { return synchq.New[Task](synchq.Fair(true)) },
		"unfair": func() Queue { return synchq.New[Task](synchq.Fair(false)) },
	}
	for name, mk := range kinds {
		t.Run(name, func(t *testing.T) {
			p := New(mk(), Config{KeepAlive: 20 * time.Millisecond})
			var ran atomic.Int64
			for i := 0; i < 100; i++ {
				if err := p.Submit(func() { ran.Add(1) }); err != nil {
					t.Fatal(err)
				}
			}
			deadline := time.Now().Add(5 * time.Second)
			for ran.Load() != 100 {
				if time.Now().After(deadline) {
					t.Fatalf("ran %d/100 tasks", ran.Load())
				}
				time.Sleep(time.Millisecond)
			}
			p.Shutdown()
			p.Wait()
		})
	}
}

func TestFutureGet(t *testing.T) {
	p := New(newQueue(), Config{KeepAlive: 20 * time.Millisecond})
	fut, err := SubmitFunc(p, func() (int, error) { return 7, nil })
	if err != nil {
		t.Fatal(err)
	}
	v, err := fut.Get()
	if err != nil || v != 7 {
		t.Fatalf("Get = (%d,%v), want (7,nil)", v, err)
	}
	if !fut.Done() {
		t.Fatal("Done() false after Get")
	}
	p.Shutdown()
	p.Wait()
}

func TestFuturePanicBecomesError(t *testing.T) {
	p := New(newQueue(), Config{KeepAlive: 20 * time.Millisecond})
	fut, err := SubmitFunc(p, func() (int, error) { panic("boom") })
	if err != nil {
		t.Fatal(err)
	}
	if _, err := fut.Get(); err == nil {
		t.Fatal("panicking task produced no error")
	}
	p.Shutdown()
	p.Wait()
}

func TestFutureGetContext(t *testing.T) {
	p := New(newQueue(), Config{KeepAlive: 50 * time.Millisecond})
	gate := make(chan struct{})
	fut, err := SubmitFunc(p, func() (int, error) { <-gate; return 1, nil })
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Millisecond)
	defer cancel()
	if _, err := fut.GetContext(ctx); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("GetContext = %v, want DeadlineExceeded", err)
	}
	close(gate)
	if v, err := fut.Get(); err != nil || v != 1 {
		t.Fatalf("Get after unblock = (%d,%v)", v, err)
	}
	p.Shutdown()
	p.Wait()
}

func TestPanickingTaskDoesNotKillWorkerOrProcess(t *testing.T) {
	p := New(newQueue(), Config{KeepAlive: 200 * time.Millisecond})
	if err := p.Submit(func() { panic("task bug") }); err != nil {
		t.Fatal(err)
	}
	// The pool must remain fully serviceable afterwards.
	done := make(chan struct{})
	if err := p.Submit(func() { close(done) }); err != nil {
		t.Fatal(err)
	}
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("pool unserviceable after a panicking task")
	}
	deadline := time.Now().Add(5 * time.Second)
	for p.Stats().Panicked != 1 {
		if time.Now().After(deadline) {
			t.Fatalf("Panicked = %d, want 1", p.Stats().Panicked)
		}
		time.Sleep(time.Millisecond)
	}
	p.Shutdown()
	p.Wait()
}

func TestCoreWorkersSurviveKeepAlive(t *testing.T) {
	p := New(newQueue(), Config{KeepAlive: 10 * time.Millisecond, CoreWorkers: 2})
	var done sync.WaitGroup
	done.Add(3)
	for i := 0; i < 3; i++ {
		gate := make(chan struct{})
		if err := p.Submit(func() { close(gate); done.Done() }); err != nil {
			t.Fatal(err)
		}
		<-gate
	}
	done.Wait()
	// Beyond several keep-alive periods, exactly the core must remain.
	deadline := time.Now().Add(5 * time.Second)
	for p.Stats().Live != 2 {
		if time.Now().After(deadline) {
			t.Fatalf("Live = %d, want 2 core workers", p.Stats().Live)
		}
		time.Sleep(time.Millisecond)
	}
	// Core workers must still serve.
	ok := make(chan struct{})
	if err := p.Submit(func() { close(ok) }); err != nil {
		t.Fatal(err)
	}
	select {
	case <-ok:
	case <-time.After(5 * time.Second):
		t.Fatal("core worker did not pick up work")
	}
	p.Shutdown()
	p.Wait()
}

func TestFixedPoolRunsEverythingWithBoundedWorkers(t *testing.T) {
	p := NewFixed(3)
	const tasks = 500
	var ran atomic.Int64
	for i := 0; i < tasks; i++ {
		if err := p.Submit(func() { ran.Add(1) }); err != nil {
			t.Fatal(err)
		}
	}
	deadline := time.Now().Add(10 * time.Second)
	for ran.Load() != tasks {
		if time.Now().After(deadline) {
			t.Fatalf("ran %d/%d tasks", ran.Load(), tasks)
		}
		time.Sleep(time.Millisecond)
	}
	st := p.Stats()
	if st.Spawned > 3 {
		t.Fatalf("fixed pool spawned %d workers, cap is 3", st.Spawned)
	}
	p.Shutdown()
	p.Wait()
	if p.Stats().Live != 0 {
		t.Fatalf("Live = %d after shutdown", p.Stats().Live)
	}
}

func TestFixedPoolSubmitNeverBlocks(t *testing.T) {
	p := NewFixed(1)
	gate := make(chan struct{})
	if err := p.Submit(func() { <-gate }); err != nil {
		t.Fatal(err)
	}
	// With the single worker busy, further submissions buffer without
	// blocking the submitter.
	start := time.Now()
	for i := 0; i < 100; i++ {
		if err := p.Submit(func() {}); err != nil {
			t.Fatal(err)
		}
	}
	if time.Since(start) > 5*time.Second {
		t.Fatal("buffered Submit blocked")
	}
	close(gate)
	p.Shutdown()
	p.Wait()
}

func TestFixedPoolShutdownDrainsBacklog(t *testing.T) {
	p := NewFixed(1)
	var ran atomic.Int64
	gate := make(chan struct{})
	if err := p.Submit(func() { <-gate; ran.Add(1) }); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		if err := p.Submit(func() { ran.Add(1) }); err != nil {
			t.Fatal(err)
		}
	}
	close(gate)
	// FIFO backlog sits ahead of any poison, so everything already
	// submitted runs before the worker exits.
	deadline := time.Now().Add(10 * time.Second)
	for ran.Load() != 11 {
		if time.Now().After(deadline) {
			t.Fatalf("ran %d/11 before shutdown", ran.Load())
		}
		time.Sleep(time.Millisecond)
	}
	p.Shutdown()
	p.Wait()
}

func TestBufferedQueueFIFO(t *testing.T) {
	q := NewBuffered()
	order := make(chan int, 3)
	for i := 1; i <= 3; i++ {
		i := i
		if !q.Offer(func() { order <- i }) {
			t.Fatal("buffered Offer failed")
		}
	}
	for want := 1; want <= 3; want++ {
		task, ok := q.PollTimeout(time.Second)
		if !ok {
			t.Fatal("PollTimeout failed with buffered tasks")
		}
		task()
		if got := <-order; got != want {
			t.Fatalf("task order %d, want %d (FIFO violated)", got, want)
		}
	}
	if _, ok := q.PollTimeout(5 * time.Millisecond); ok {
		t.Fatal("PollTimeout succeeded on drained buffer")
	}

	// DrainTo claims exactly the oldest max deposits, in order.
	for i := 1; i <= 3; i++ {
		i := i
		q.Offer(func() { order <- i })
	}
	batch := q.(BatchQueue).DrainTo(nil, 2)
	if len(batch) != 2 {
		t.Fatalf("DrainTo(nil, 2) over 3 deposits returned %d tasks", len(batch))
	}
	for i, task := range batch {
		task()
		if got := <-order; got != i+1 {
			t.Fatalf("DrainTo task %d ran %d, want %d", i, got, i+1)
		}
	}
	if task, ok := q.PollTimeout(time.Second); !ok {
		t.Fatal("the deposit DrainTo left behind is missing")
	} else if task(); <-order != 3 {
		t.Fatal("the deposit DrainTo left behind is not the newest")
	}

	// A PollWait with no deadline withdraws when its cancel fires while
	// it waits, and the withdrawn reservation swallows nothing: the next
	// offer goes to the next poll.
	wq := q.(WaitQueue)
	cancel := make(chan struct{})
	type polled struct {
		task Task
		ok   bool
	}
	res := make(chan polled)
	go func() {
		task, ok := wq.PollWait(time.Time{}, cancel)
		res <- polled{task, ok}
	}()
	time.Sleep(10 * time.Millisecond)
	close(cancel)
	select {
	case r := <-res:
		if r.ok || r.task != nil {
			t.Fatalf("canceled PollWait = (%v, %v), want (nil, false)", r.task, r.ok)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("PollWait never observed its cancel")
	}
	q.Offer(func() { order <- 4 })
	task, ok := wq.PollWait(time.Now().Add(time.Second), nil)
	if !ok {
		t.Fatal("offer after a canceled PollWait was not delivered to the next poll")
	}
	if task(); <-order != 4 {
		t.Fatal("next poll after a canceled PollWait ran the wrong task")
	}
}
