// Threadpool: the paper's "real-world" scenario — a cached thread pool
// whose task hand-off runs through a synchronous queue, the Go analogue of
// java.util.concurrent.ThreadPoolExecutor with newCachedThreadPool.
//
// The pool grows when a burst of tasks arrives faster than idle workers
// can absorb it, hands tasks directly to idle workers when it can (the
// synchronous queue's Offer succeeds only if a worker is waiting in Poll),
// and shrinks again when workers see no work for the keep-alive interval.
// The example prints the pool's vital signs after each phase so the
// grow/handoff/shrink lifecycle is visible.
//
// The later phases exercise the executor tier layered on the hand-off
// core: deadline-aware admission with SubmitContext, and a multi-phase
// graceful drain whose conservation ledger balances exactly — every
// accepted task either ran or was deliberately shed, none lost.
//
// Run with:
//
//	go run ./examples/threadpool
package main

import (
	"context"
	"fmt"
	"sync"
	"time"

	"synchq"
	"synchq/pool"
)

func main() {
	q := synchq.New[pool.Task](synchq.Fair(false))
	p := pool.New(q, pool.Config{
		KeepAlive: 200 * time.Millisecond,
	})

	report := func(phase string) {
		st := p.Stats()
		fmt.Printf("%-22s live=%-3d spawned=%-3d completed=%-4d handoffs=%d\n",
			phase, st.Live, st.Spawned, st.Completed, st.Handoffs)
	}

	// Phase 1: a burst of slow tasks forces the pool to grow — no worker
	// is ever idle, so every submission spawns.
	var burst sync.WaitGroup
	for i := 0; i < 8; i++ {
		burst.Add(1)
		if err := p.Submit(func() {
			defer burst.Done()
			time.Sleep(50 * time.Millisecond) // simulated work
		}); err != nil {
			panic(err)
		}
	}
	burst.Wait()
	report("after burst:")

	// Phase 2: a trickle of quick tasks is served by idle workers via
	// synchronous hand-off; the pool should not grow further.
	for i := 0; i < 100; i++ {
		var one sync.WaitGroup
		one.Add(1)
		if err := p.Submit(func() { one.Done() }); err != nil {
			panic(err)
		}
		one.Wait()
	}
	report("after trickle:")

	// Phase 3: idle beyond keep-alive: workers retire themselves.
	time.Sleep(500 * time.Millisecond)
	report("after idle period:")

	// Futures: submit work with a result.
	fut, err := pool.SubmitFunc(p, func() (int, error) {
		sum := 0
		for i := 1; i <= 1000; i++ {
			sum += i
		}
		return sum, nil
	})
	if err != nil {
		panic(err)
	}
	if v, err := fut.Get(); err == nil {
		fmt.Println("future result:", v)
	}

	// Phase 4: deadline-aware admission. A submission whose context is
	// already done is refused at the door with the context's own error;
	// a live deadline would instead travel with the task, shedding it
	// before dispatch if it expired while queued.
	ctx, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	err = p.SubmitContext(ctx, func() { fmt.Println("never runs") })
	cancel()
	fmt.Println("expired submission refused:", err)

	// Phase 5: graceful drain instead of an abrupt shutdown. Admission
	// quiesces, the workers finish the accepted backlog within the
	// context's bound, and the conservation ledger settles exactly:
	// Accepted == Completed + Shed + Returned.
	dctx, dcancel := context.WithTimeout(context.Background(), time.Second)
	res := p.Drain(dctx)
	dcancel()
	st := p.Stats()
	fmt.Printf("drained=%v forced=%v returned=%d ledger-gap=%d\n",
		res.Drained, res.Forced, len(res.Returned), st.ConservationGap())
	report("after drain:")
}
