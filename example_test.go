package synchq_test

import (
	"fmt"
	"sync"
	"time"

	"synchq"
)

// A producer and a consumer rendezvous: Put returns only once Take has the
// value.
func ExampleSynchronousQueue() {
	q := synchq.New[string](synchq.Fair(false))
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		fmt.Println("took:", q.Take())
	}()
	q.Put("hello")
	wg.Wait()
	// Output: took: hello
}

// Offer refuses to transfer unless a consumer is already waiting — the
// primitive a cached thread pool uses to decide between reusing an idle
// worker and spawning a new one.
func ExampleSynchronousQueue_Offer() {
	q := synchq.New[int](synchq.Fair(true))
	fmt.Println("no consumer:", q.Offer(1))

	ready := make(chan struct{})
	got := make(chan int)
	go func() {
		close(ready)
		got <- q.Take()
	}()
	<-ready
	// Wait until the consumer is parked in the queue.
	for !q.HasWaitingConsumer() {
		time.Sleep(time.Millisecond)
	}
	fmt.Println("consumer waiting:", q.Offer(2))
	fmt.Println("received:", <-got)
	// Output:
	// no consumer: false
	// consumer waiting: true
	// received: 2
}

// PollTimeout bounds the wait with a patience interval.
func ExampleSynchronousQueue_PollTimeout() {
	q := synchq.New[int](synchq.Fair(false))
	if _, ok := q.PollTimeout(10 * time.Millisecond); !ok {
		fmt.Println("timed out: no producer arrived")
	}
	// Output: timed out: no producer arrived
}

// A TransferQueue lets each producer choose synchronous or asynchronous
// delivery on a per-message basis.
func ExampleTransferQueue() {
	q := synchq.NewTransferQueue[string]()

	q.Put("async: buffered immediately") // returns at once
	fmt.Println(q.Take())

	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		fmt.Println(q.Take())
	}()
	q.Transfer("sync: waits for the consumer") // returns after Take
	wg.Wait()
	// Output:
	// async: buffered immediately
	// sync: waits for the consumer
}

// PutAll deposits a whole burst with a single tail splice, and TakeBatch
// drains it with one wait for the first value plus a no-wait fill for the
// rest — the batched stage shape used in examples/pipeline.
func ExampleTransferQueue_PutAll() {
	q := synchq.NewTransferQueue[string]()
	q.PutAll([]string{"a", "b", "c", "d"}) // one burst, one splice
	fmt.Println("batch:", q.TakeBatch(3))  // waits for the first, fills the rest
	fmt.Println("rest:", q.TakeBatch(3))
	// Output:
	// batch: [a b c]
	// rest: [d]
}

// Two goroutines swap values through an Exchanger.
func ExampleExchanger() {
	x := synchq.NewExchanger[string]()
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		fmt.Println("B got:", x.Exchange("from B"))
	}()
	fmt.Println("A got:", x.Exchange("from A"))
	wg.Wait()
	// Unordered output:
	// A got: from B
	// B got: from A
}
