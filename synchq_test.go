package synchq_test

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"synchq"
)

func TestNewDefaultsToUnfair(t *testing.T) {
	q := synchq.New[int]()
	if q.Fair() {
		t.Fatal("New() produced a fair queue; default should be unfair")
	}
	if synchq.New[int](synchq.Fair(false)).Fair() {
		t.Fatal("New(Fair(false)) produced a fair queue")
	}
	if !synchq.New[int](synchq.Fair(true)).Fair() {
		t.Fatal("New(Fair(true)) produced an unfair queue")
	}
}

func roundTrip(t *testing.T, q *synchq.SynchronousQueue[int]) {
	t.Helper()
	done := make(chan int)
	go func() { done <- q.Take() }()
	q.Put(42)
	if got := <-done; got != 42 {
		t.Fatalf("Take = %d, want 42", got)
	}
}

func TestPutTakeBothVariants(t *testing.T) {
	roundTrip(t, synchq.New[int](synchq.Fair(true)))
	roundTrip(t, synchq.New[int](synchq.Fair(false)))
	roundTrip(t, synchq.New[int](synchq.EliminatingAdaptive()))
}

func TestOfferPollSurface(t *testing.T) {
	for _, fair := range []bool{true, false} {
		q := synchq.New[int](synchq.Fair(fair))
		if q.Offer(1) {
			t.Fatal("Offer succeeded on empty queue")
		}
		if _, ok := q.Poll(); ok {
			t.Fatal("Poll succeeded on empty queue")
		}
		if q.OfferTimeout(1, 5*time.Millisecond) {
			t.Fatal("OfferTimeout succeeded with no consumer")
		}
		if _, ok := q.PollTimeout(5 * time.Millisecond); ok {
			t.Fatal("PollTimeout succeeded with no producer")
		}
		go q.Put(5)
		if v, ok := q.PollTimeout(5 * time.Second); !ok || v != 5 {
			t.Fatalf("PollTimeout = (%d,%v), want (5,true)", v, ok)
		}
	}
}

func TestPutContextCancel(t *testing.T) {
	q := synchq.New[int](synchq.Fair(true))
	ctx, cancel := context.WithCancel(context.Background())
	errc := make(chan error)
	go func() { errc <- q.PutContext(ctx, 1) }()
	time.Sleep(5 * time.Millisecond)
	cancel()
	if err := <-errc; !errors.Is(err, context.Canceled) {
		t.Fatalf("PutContext = %v, want context.Canceled", err)
	}
}

func TestTakeContextDeadline(t *testing.T) {
	q := synchq.New[int](synchq.Fair(false))
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Millisecond)
	defer cancel()
	_, err := q.TakeContext(ctx)
	if !errors.Is(err, context.DeadlineExceeded) && !errors.Is(err, synchq.ErrTimeout) {
		t.Fatalf("TakeContext = %v, want deadline error", err)
	}
}

func TestTakeContextSuccess(t *testing.T) {
	q := synchq.New[int](synchq.Fair(true))
	go q.Put(9)
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	v, err := q.TakeContext(ctx)
	if err != nil || v != 9 {
		t.Fatalf("TakeContext = (%d,%v), want (9,nil)", v, err)
	}
}

func TestPollWaitOfferWait(t *testing.T) {
	q := synchq.New[int](synchq.Fair(false))
	cancel := make(chan struct{})
	got := make(chan int, 1)
	go func() {
		if v, ok := q.PollWait(time.Time{}, cancel); ok {
			got <- v
		} else {
			got <- -1
		}
	}()
	time.Sleep(5 * time.Millisecond)
	if !q.OfferWait(3, time.Now().Add(time.Second), nil) {
		t.Fatal("OfferWait failed with a waiting consumer")
	}
	if v := <-got; v != 3 {
		t.Fatalf("PollWait = %d, want 3", v)
	}
	// Cancellation path.
	done := make(chan bool)
	cancel2 := make(chan struct{})
	go func() {
		_, ok := q.PollWait(time.Time{}, cancel2)
		done <- ok
	}()
	time.Sleep(5 * time.Millisecond)
	close(cancel2)
	if ok := <-done; ok {
		t.Fatal("PollWait returned a value after cancellation")
	}
}

// observed is the surface TestObservers checks: demand operations, a
// timed poll, and the three observers, which must never contradict each
// other.
type observed interface {
	Put(int)
	Take() int
	PollTimeout(time.Duration) (int, bool)
	HasWaitingConsumer() bool
	HasWaitingProducer() bool
	IsEmpty() bool
}

// transferObserved reads a TransferQueue through the observed surface: Put
// is the synchronous Transfer (a producer that parks), a waiting producer
// is buffered data, and empty means neither probe sees a waiter.
type transferObserved struct{ *synchq.TransferQueue[int] }

func (t transferObserved) Put(v int)                { t.Transfer(v) }
func (t transferObserved) HasWaitingProducer() bool { return t.HasBufferedData() }
func (t transferObserved) IsEmpty() bool {
	return !t.HasWaitingConsumer() && !t.HasBufferedData()
}

// TestObservers runs the observers over every queue configuration: a
// parked operation must be seen by its probe and make IsEmpty false, and
// once every waiter has gone IsEmpty must agree with the probes on the
// first read. The two-timeouts case is the fair queue's trap: the tail
// poll times out first and defers its unlink, the front one times out
// second, and a structural emptiness check would then see the dead tail
// node the probes already read past.
func TestObservers(t *testing.T) {
	impls := map[string]func() observed{
		"transfer": func() observed { return transferObserved{synchq.NewTransferQueue[int]()} },
	}
	for name, mk := range queueConfigs() {
		impls[name] = func() observed { return mk() }
	}
	waitFor := func(t *testing.T, what string, cond func() bool) {
		t.Helper()
		deadline := time.Now().Add(5 * time.Second)
		for !cond() {
			if time.Now().After(deadline) {
				t.Fatalf("%s never observed", what)
			}
			time.Sleep(100 * time.Microsecond)
		}
	}
	for name, mk := range impls {
		t.Run(name, func(t *testing.T) {
			t.Run("fresh", func(t *testing.T) {
				q := mk()
				if !q.IsEmpty() || q.HasWaitingConsumer() || q.HasWaitingProducer() {
					t.Fatal("fresh queue misreports state")
				}
			})
			t.Run("parked-take", func(t *testing.T) {
				q := mk()
				got := make(chan int, 1)
				go func() { got <- q.Take() }()
				waitFor(t, "waiting consumer", q.HasWaitingConsumer)
				if q.IsEmpty() || q.HasWaitingProducer() {
					t.Error("parked Take: IsEmpty or HasWaitingProducer reads true")
				}
				q.Put(1)
				if v := <-got; v != 1 {
					t.Fatalf("Take = %d, want 1", v)
				}
			})
			t.Run("parked-put", func(t *testing.T) {
				q := mk()
				go q.Put(2)
				waitFor(t, "waiting producer", q.HasWaitingProducer)
				if q.IsEmpty() || q.HasWaitingConsumer() {
					t.Error("parked Put: IsEmpty or HasWaitingConsumer reads true")
				}
				if v := q.Take(); v != 2 {
					t.Fatalf("Take = %d, want 2", v)
				}
			})
			t.Run("two-timeouts", func(t *testing.T) {
				q := mk()
				front := make(chan bool, 1)
				go func() { _, ok := q.PollTimeout(40 * time.Millisecond); front <- ok }()
				waitFor(t, "front consumer", q.HasWaitingConsumer)
				if _, ok := q.PollTimeout(5 * time.Millisecond); ok {
					t.Fatal("tail PollTimeout received a value")
				}
				if <-front {
					t.Fatal("front PollTimeout received a value")
				}
				// IsEmpty first: a later probe may tidy the structure.
				empty := q.IsEmpty()
				cons, prod := q.HasWaitingConsumer(), q.HasWaitingProducer()
				if !empty || cons || prod {
					t.Fatalf("after both timeouts IsEmpty = %v, HasWaitingConsumer = %v, HasWaitingProducer = %v; want true, false, false",
						empty, cons, prod)
				}
			})
		})
	}
}

func TestBaselineConstructors(t *testing.T) {
	run := func(q synchq.Queue[int]) {
		done := make(chan int)
		go func() { done <- q.Take() }()
		q.Put(8)
		if got := <-done; got != 8 {
			t.Fatalf("Take = %d, want 8", got)
		}
	}
	run(synchq.NewNaive[int]())
	run(synchq.NewHanson[int]())
	run(synchq.NewJava5Fair[int]())
	run(synchq.NewJava5Unfair[int]())
	run(synchq.NewGoChannel[int]())
}

func TestTransferQueuePublicAPI(t *testing.T) {
	q := synchq.NewTransferQueue[string]()
	q.Put("a") // async
	if v := q.Take(); v != "a" {
		t.Fatalf("Take = %q, want a", v)
	}
	if q.TryTransfer("b") {
		t.Fatal("TryTransfer succeeded with no consumer")
	}
	if q.TransferTimeout("c", 5*time.Millisecond) {
		t.Fatal("TransferTimeout succeeded with no consumer")
	}
	done := make(chan string)
	go func() { done <- q.Take() }()
	deadline := time.Now().Add(5 * time.Second)
	for !q.HasWaitingConsumer() {
		if time.Now().After(deadline) {
			t.Fatal("consumer never registered")
		}
		time.Sleep(100 * time.Microsecond)
	}
	q.Transfer("d")
	if got := <-done; got != "d" {
		t.Fatalf("Take = %q, want d", got)
	}
}

func TestTransferQueueContext(t *testing.T) {
	q := synchq.NewTransferQueue[int]()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Millisecond)
	defer cancel()
	if err := q.TransferContext(ctx, 1); err == nil {
		t.Fatal("TransferContext succeeded with no consumer")
	}
	if _, err := q.TakeContext(ctx); err == nil {
		t.Fatal("TakeContext succeeded; queue should be empty (timed-out transfer must not buffer)")
	}
	q.Put(5)
	ctx2, cancel2 := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel2()
	if v, err := q.TakeContext(ctx2); err != nil || v != 5 {
		t.Fatalf("TakeContext = (%d,%v), want (5,nil)", v, err)
	}
}

func TestExchangerPublicAPI(t *testing.T) {
	x := synchq.NewExchanger[int]()
	done := make(chan int)
	go func() { done <- x.Exchange(1) }()
	got := x.Exchange(2)
	if got != 1 || <-done != 2 {
		t.Fatal("exchange did not swap values")
	}
	if _, ok := x.ExchangeTimeout(1, 5*time.Millisecond); ok {
		t.Fatal("ExchangeTimeout succeeded with no partner")
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Millisecond)
	defer cancel()
	if _, err := x.ExchangeContext(ctx, 1); err == nil {
		t.Fatal("ExchangeContext succeeded with no partner")
	}
}

func TestEliminatingQueueRoundTrip(t *testing.T) {
	q := synchq.New[int](synchq.EliminatingAdaptive())
	const n = 1000
	var wg sync.WaitGroup
	var sum atomic.Int64
	wg.Add(2)
	go func() {
		defer wg.Done()
		for i := 1; i <= n; i++ {
			q.Put(i)
		}
	}()
	go func() {
		defer wg.Done()
		for i := 0; i < n; i++ {
			sum.Add(int64(q.Take()))
		}
	}()
	wg.Wait()
	if want := int64(n * (n + 1) / 2); sum.Load() != want {
		t.Fatalf("sum = %d, want %d (values lost or duplicated)", sum.Load(), want)
	}
}

func TestEliminatingQueueTimedOps(t *testing.T) {
	q := synchq.New[int](synchq.EliminatingAdaptive())
	if q.Offer(1) {
		t.Fatal("Offer succeeded with no consumer")
	}
	if _, ok := q.Poll(); ok {
		t.Fatal("Poll succeeded with no producer")
	}
	if q.OfferTimeout(1, 2*time.Millisecond) {
		t.Fatal("OfferTimeout succeeded with no consumer")
	}
	if _, ok := q.PollTimeout(2 * time.Millisecond); ok {
		t.Fatal("PollTimeout succeeded with no producer")
	}
	go q.Put(5)
	if v, ok := q.PollTimeout(5 * time.Second); !ok || v != 5 {
		t.Fatalf("PollTimeout = (%d,%v), want (5,true)", v, ok)
	}
}

func TestConcurrentLoadPublicAPI(t *testing.T) {
	for _, fair := range []bool{true, false} {
		q := synchq.New[int64](synchq.Fair(fair))
		const producers, consumers, per = 6, 6, 400
		var wg sync.WaitGroup
		var sum atomic.Int64
		for p := 0; p < producers; p++ {
			wg.Add(1)
			go func(id int64) {
				defer wg.Done()
				for i := int64(0); i < per; i++ {
					q.Put(id*per + i)
				}
			}(int64(p))
		}
		for c := 0; c < consumers; c++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 0; i < producers*per/consumers; i++ {
					sum.Add(q.Take())
				}
			}()
		}
		wg.Wait()
		total := int64(producers * per)
		if want := total * (total - 1) / 2; sum.Load() != want {
			t.Fatalf("fair=%v: sum = %d, want %d", fair, sum.Load(), want)
		}
	}
}

func TestPublicReservationAPI(t *testing.T) {
	for _, fair := range []bool{true, false} {
		q := synchq.New[int](synchq.Fair(fair))

		// Pending take ticket, fulfilled by a later producer.
		_, tk, ok := q.TakeReserve()
		if ok || tk == nil {
			t.Fatal("expected a pending take ticket")
		}
		if _, ok := tk.TryFollowup(); ok {
			t.Fatal("TryFollowup succeeded with no producer")
		}
		go q.Put(42)
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		v, err := tk.Await(ctx)
		cancel()
		if err != nil || v != 42 {
			t.Fatalf("Await = (%d,%v), want (42,nil)", v, err)
		}

		// Pending put ticket, aborted.
		ptk, ok := q.PutReserve(1)
		if ok {
			t.Fatal("unexpected immediate delivery")
		}
		if !ptk.Abort() {
			t.Fatal("Abort failed")
		}
		if _, ok := q.Poll(); ok {
			t.Fatal("aborted offer visible to Poll")
		}

		// AwaitTimeout path.
		_, tk2, _ := q.TakeReserve()
		if _, ok := tk2.AwaitTimeout(10 * time.Millisecond); ok {
			t.Fatal("AwaitTimeout succeeded with no producer")
		}
	}
}
