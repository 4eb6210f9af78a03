package pool_test

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"synchq"
	"synchq/pool"
)

// A cached pool grows on demand and hands tasks straight to idle workers.
func ExamplePool() {
	p := pool.New(synchq.New[pool.Task](synchq.Fair(false)), pool.Config{})
	var wg sync.WaitGroup
	results := make([]int, 4)
	for i := 0; i < 4; i++ {
		wg.Add(1)
		i := i
		if err := p.Submit(func() {
			defer wg.Done()
			results[i] = i * i
		}); err != nil {
			panic(err)
		}
	}
	wg.Wait()
	fmt.Println(results)
	p.Shutdown()
	p.Wait()
	// Output: [0 1 4 9]
}

// SubmitFunc returns a Future for the task's result.
func ExampleSubmitFunc() {
	p := pool.New(synchq.New[pool.Task](synchq.Fair(false)), pool.Config{})
	fut, err := pool.SubmitFunc(p, func() (string, error) {
		return "computed", nil
	})
	if err != nil {
		panic(err)
	}
	v, _ := fut.Get()
	fmt.Println(v)
	p.Shutdown()
	p.Wait()
	// Output: computed
}

// SubmitContext makes admission deadline-aware: a context that is already
// done is refused at the door, with the context's own error.
func ExamplePool_SubmitContext() {
	p := pool.New(synchq.New[pool.Task](synchq.Fair(false)), pool.Config{})
	defer func() { p.Shutdown(); p.Wait() }()

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	err := p.SubmitContext(ctx, func() {})
	fmt.Println("canceled submission:", err)

	expired, cancel2 := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer cancel2()
	err = p.SubmitContext(expired, func() {})
	fmt.Println("expired submission:", err)

	st := p.Stats()
	fmt.Println("accepted:", st.Accepted, "rejected:", st.Rejected)
	// Output:
	// canceled submission: context canceled
	// expired submission: context deadline exceeded
	// accepted: 0 rejected: 2
}

// A bounded admission budget with the ShedOldest policy keeps the backlog
// fresh under overload: the newest work evicts the oldest.
func ExamplePool_shedding() {
	p := pool.New(pool.NewBuffered(), pool.Config{
		CoreWorkers:  1,
		MaxWorkers:   1,
		MaxPending:   2,
		OnSaturation: pool.ShedOldest,
	})

	// Wedge the only worker so submissions pile into the pending budget.
	release := make(chan struct{})
	if err := p.Submit(func() { <-release }); err != nil {
		panic(err)
	}
	for p.Stats().Active == 0 {
		time.Sleep(time.Millisecond)
	}

	var mu sync.Mutex
	var ran []int
	for i := 1; i <= 4; i++ {
		i := i
		if err := p.Submit(func() {
			mu.Lock()
			ran = append(ran, i)
			mu.Unlock()
		}); err != nil {
			panic(err)
		}
	}

	close(release)
	p.Drain(nil) // nil context: wait for the surviving backlog
	fmt.Println("ran:", ran)
	fmt.Println("shed:", p.Stats().Shed)
	// Output:
	// ran: [3 4]
	// shed: 2
}

// Drain shuts down gracefully in phases; when its context expires first,
// the undispatched backlog is returned to the caller instead of being
// lost, and the conservation ledger still balances exactly.
func ExamplePool_Drain() {
	p := pool.New(pool.NewBuffered(), pool.Config{CoreWorkers: 1, MaxWorkers: 1})

	release := make(chan struct{})
	if err := p.Submit(func() { <-release }); err != nil {
		panic(err)
	}
	for p.Stats().Active == 0 {
		time.Sleep(time.Millisecond)
	}

	var ran atomic.Int64
	for i := 0; i < 3; i++ {
		if err := p.Submit(func() { ran.Add(1) }); err != nil {
			panic(err)
		}
	}

	go func() { time.Sleep(20 * time.Millisecond); close(release) }()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Millisecond)
	defer cancel()
	res := p.Drain(ctx)
	for _, task := range res.Returned {
		task() // the caller owns returned tasks: run, log, or requeue
	}

	st := p.Stats()
	fmt.Println("every task ran:", ran.Load() == 3)
	fmt.Println("ledger gap:", st.ConservationGap())
	// Output:
	// every task ran: true
	// ledger gap: 0
}
