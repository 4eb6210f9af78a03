package segq

import (
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"synchq/internal/core"
	"synchq/internal/metrics"
)

func TestBasicHandoff(t *testing.T) {
	q := New[int](core.WaitConfig{})
	done := make(chan int)
	go func() { done <- q.Take() }()
	q.Put(42)
	if got := <-done; got != 42 {
		t.Fatalf("Take = %d, want 42", got)
	}
}

func TestConcurrentConservation(t *testing.T) {
	const producers, perProducer = 8, 500
	q := New[int64](core.WaitConfig{})
	var sum atomic.Int64
	var wg sync.WaitGroup
	for p := 0; p < producers; p++ {
		wg.Add(1)
		go func(id int64) {
			defer wg.Done()
			for i := int64(0); i < perProducer; i++ {
				q.Put(id*perProducer + i)
			}
		}(int64(p))
	}
	var cg sync.WaitGroup
	for c := 0; c < producers; c++ {
		cg.Add(1)
		go func() {
			defer cg.Done()
			for i := 0; i < perProducer; i++ {
				sum.Add(q.Take())
			}
		}()
	}
	wg.Wait()
	cg.Wait()
	const n = producers * perProducer
	if want := int64(n * (n - 1) / 2); sum.Load() != want {
		t.Fatalf("sum of delivered values = %d, want %d", sum.Load(), want)
	}
	if !isEmpty(q) {
		t.Fatal("queue not empty after balanced run")
	}
}

func TestOfferPollMisses(t *testing.T) {
	q := New[int](core.WaitConfig{})
	if offer(q, 1) {
		t.Fatal("Offer succeeded on an empty queue")
	}
	if _, ok := poll(q); ok {
		t.Fatal("Poll succeeded on an empty queue")
	}
	if offerTimeout(q, 2, 2*time.Millisecond) {
		t.Fatal("OfferTimeout succeeded with no consumer")
	}
	if _, ok := pollTimeout(q, 2*time.Millisecond); ok {
		t.Fatal("PollTimeout succeeded with no producer")
	}
}

func TestPollFindsWaitingProducer(t *testing.T) {
	q := New[int](core.WaitConfig{})
	go q.Put(7)
	waitCond(t, q.HasWaitingProducer)
	v, ok := poll(q)
	if !ok || v != 7 {
		t.Fatalf("Poll = (%d, %v), want (7, true)", v, ok)
	}
}

func TestOfferFindsWaitingConsumer(t *testing.T) {
	q := New[int](core.WaitConfig{})
	got := make(chan int)
	go func() { got <- q.Take() }()
	waitCond(t, q.HasWaitingConsumer)
	if !offer(q, 9) {
		t.Fatal("Offer missed a waiting consumer")
	}
	if v := <-got; v != 9 {
		t.Fatalf("consumer received %d, want 9", v)
	}
}

func TestCancel(t *testing.T) {
	q := New[int](core.WaitConfig{})
	cancel := make(chan struct{})
	done := make(chan core.Status)
	go func() {
		_, st := q.TakeDeadline(time.Time{}, cancel)
		done <- st
	}()
	waitCond(t, q.HasWaitingConsumer)
	close(cancel)
	if st := <-done; st != core.Canceled {
		t.Fatalf("canceled take status = %v, want Canceled", st)
	}
}

// TestPoisonedRunThenPairing drives a burst of zero-patience polls on an
// empty queue (each poisons one producer-side cell), then checks a real
// transfer still completes promptly — exercising the segment-skip path
// that fast-forwards the producer counter over fully-broken segments.
func TestPoisonedRunThenPairing(t *testing.T) {
	q := New[int](core.WaitConfig{})
	for i := 0; i < 10*SegSize; i++ {
		if _, ok := poll(q); ok {
			t.Fatal("Poll succeeded on an empty queue")
		}
	}
	done := make(chan int)
	go func() { done <- q.Take() }()
	q.Put(5)
	if got := <-done; got != 5 {
		t.Fatalf("post-storm transfer = %d, want 5", got)
	}
}

func TestCloseWakesWaiters(t *testing.T) {
	q := New[int](core.WaitConfig{})
	const waiters = 6
	statuses := make(chan core.Status, 2*waiters)
	for i := 0; i < waiters; i++ {
		go func(v int) {
			statuses <- q.PutDeadline(v, time.Time{}, nil)
		}(i)
		go func() {
			_, st := q.TakeDeadline(time.Time{}, nil)
			statuses <- st
		}()
	}
	// Waiters pair among themselves; whatever remains must be evicted.
	time.Sleep(5 * time.Millisecond)
	q.Close()
	oks, closeds := 0, 0
	for i := 0; i < 2*waiters; i++ {
		switch st := <-statuses; st {
		case core.OK:
			oks++
		case core.Closed:
			closeds++
		default:
			t.Fatalf("unexpected status %v", st)
		}
	}
	if oks%2 != 0 {
		t.Fatalf("odd number of OK outcomes (%d): a transfer completed one-sided", oks)
	}
	if !q.Closed() {
		t.Fatal("Closed() = false after Close")
	}
	if st := q.PutDeadline(1, time.Time{}, nil); st != core.Closed {
		t.Fatalf("post-close put status = %v, want Closed", st)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("demand Put on closed queue did not panic")
		}
	}()
	q.Put(1)
}

func TestReserveTicketLifecycle(t *testing.T) {
	q := New[int](core.WaitConfig{})

	// Pending reservation fulfilled by a producer.
	_, tk, ok, st := q.reserve(false, 0)
	if ok || st != core.OK || tk == nil {
		t.Fatalf("reserve on empty queue = (ok=%v, st=%v, tk=%v)", ok, st, tk)
	}
	if _, ok := tk.TryFollowup(); ok {
		t.Fatal("TryFollowup reported delivery before any producer")
	}
	if !offer(q, 11) {
		t.Fatal("Offer missed the reservation")
	}
	v, ok := tk.TryFollowup()
	if !ok || v != 11 {
		t.Fatalf("TryFollowup = (%d, %v), want (11, true)", v, ok)
	}

	// Aborted reservation: a later producer must not be captured by it.
	_, tk2, ok, _ := q.reserve(false, 0)
	if ok {
		t.Fatal("second reserve immediately fulfilled")
	}
	if !tk2.Abort() {
		t.Fatal("Abort of a pending reservation failed")
	}
	if offer(q, 12) {
		t.Fatal("Offer succeeded against an aborted reservation")
	}

	// Await path.
	_, tk3, ok, _ := q.reserve(false, 0)
	if ok {
		t.Fatal("third reserve immediately fulfilled")
	}
	go q.Put(13)
	v, st = tk3.Await(time.Now().Add(time.Second), nil)
	if st != core.OK || v != 13 {
		t.Fatalf("Await = (%d, %v), want (13, OK)", v, st)
	}

	// Immediate fulfillment: reservation against a waiting producer.
	go q.Put(14)
	waitCond(t, q.HasWaitingProducer)
	v, tk4, ok, st := q.reserve(false, 0)
	if !ok || st != core.OK || tk4 != nil || v != 14 {
		t.Fatalf("reserve vs waiting producer = (%d, tk=%v, ok=%v, st=%v)", v, tk4, ok, st)
	}

	// Put-side reservation delivered to a consumer.
	_, tk5, ok, _ := q.reserve(true, 15)
	if ok {
		t.Fatal("put reserve immediately fulfilled on empty queue")
	}
	v, ok = poll(q)
	if !ok || v != 15 {
		t.Fatalf("Poll vs put reservation = (%d, %v), want (15, true)", v, ok)
	}
	if _, ok := tk5.TryFollowup(); !ok {
		t.Fatal("put ticket TryFollowup did not observe delivery")
	}
}

func TestReserveClosedQueue(t *testing.T) {
	q := New[int](core.WaitConfig{})
	q.Close()
	if _, _, _, st := q.reserve(false, 0); st != core.Closed {
		t.Fatalf("reserve on closed queue status = %v, want Closed", st)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("ReserveTake on closed queue did not panic")
		}
	}()
	q.ReserveTake()
}

func TestTicketClosedWhileWaiting(t *testing.T) {
	q := New[int](core.WaitConfig{})
	_, tk, ok, _ := q.reserve(false, 0)
	if ok {
		t.Fatal("reserve immediately fulfilled")
	}
	q.Close()
	if _, st := tk.Await(time.Time{}, nil); st != core.Closed {
		t.Fatalf("Await on closed queue status = %v, want Closed", st)
	}
}

// TestSegmentedAllocBudget checks the core's headline memory claims: the
// segment amortizes its allocation across SegSize hand-offs, so a
// steady-state transfer allocates well under one object per operation,
// and a batch adds no per-item bookkeeping on top of its segments. The
// byte limits pin the cell size and the segment's size class: a 64-cell
// segment of one-word cells is 832 bytes (a header line, 256 bytes of
// state words, 512 of values), which Go's 8-byte malloc header for
// pointerful objects over 512 bytes puts in the 896-byte class, 14 bytes
// per transfer, where cells of two words (1088 bytes, the 1152-byte
// class) cost 18.
func TestSegmentedAllocBudget(t *testing.T) {
	const batch = 32
	for _, tc := range []struct {
		name string
		// take is the consumer's loop body; round is one measured
		// producer round.
		take  func(q *Queue[int64]) core.Status
		round func(q *Queue[int64], items []int64)
		// budget bounds objects per round, consumer side included.
		budget float64
		why    string
		// items is the number of transfers per round; maxBytes bounds
		// heap bytes per transferred item (TotalAlloc delta / items),
		// consumer side included. Each limit sits a byte above the
		// 14-byte segment cost (plus 8 bytes of result slice per batch
		// item), below the 18 of two-word cells.
		items    int
		maxBytes float64
	}{
		{
			name: "put",
			take: func(q *Queue[int64]) core.Status {
				_, st := q.TakeDeadline(time.Now().Add(time.Second), nil)
				return st
			},
			round: func(q *Queue[int64], _ []int64) { q.Put(1) },
			// A parked side's parker makes its notifier and timer once,
			// on its first wait, so the budget just has to stay clearly
			// below one-object-per-op to prove amortization works.
			budget:   0.75,
			why:      "want amortized < 0.75",
			items:    1,
			maxBytes: 15,
		},
		{
			// A 32-item PutBatch against TakeBatch(nil, 32): the
			// segments the items pass through (half a segment per
			// round) and one result slice per TakeBatch call are all
			// that may reach the heap. Growing putRun's pending
			// installs or the result by doubling costs about five
			// objects per 16-cell run.
			name: "batch",
			take: func(q *Queue[int64]) core.Status {
				_, st := q.TakeBatch(nil, batch, time.Now().Add(time.Second), nil)
				return st
			},
			round: func(q *Queue[int64], items []int64) {
				if n, st := q.PutBatch(items, time.Time{}, nil); n != len(items) || st != core.OK {
					panic("PutBatch did not deliver the whole batch")
				}
			},
			budget:   3,
			why:      "want the segments plus one result slice per take, not a regrown or doubled result",
			items:    batch,
			maxBytes: 23,
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			q := New[int64](core.WaitConfig{})
			var consumed sync.WaitGroup
			consumed.Add(1)
			go func() {
				defer consumed.Done()
				for tc.take(q) == core.OK {
				}
			}()
			items := make([]int64, batch)
			const rounds = 2000
			// Measure at the one P AllocsPerRun sets, after a warm-up
			// there, so the runtime's costs of the consumer's timed waits
			// stay out of the window: the process's first timer set-up,
			// and the growth of the surviving P's timer heap when the
			// other P's timers move to it — each 13–16 KB, 6–8 bytes per
			// item of this run.
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
			for i := 0; i < rounds; i++ {
				tc.round(q, items)
			}
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			allocs := testing.AllocsPerRun(rounds, func() { tc.round(q, items) })
			runtime.ReadMemStats(&after)
			// AllocsPerRun makes one warm-up round on top of rounds.
			bytes := float64(after.TotalAlloc-before.TotalAlloc) / float64((rounds+1)*tc.items)
			q.Close()
			consumed.Wait()
			if allocs > tc.budget {
				t.Fatalf("%s allocates %.2f objects/round, %s (budget %.2f)", tc.name, allocs, tc.why, tc.budget)
			}
			if bytes > tc.maxBytes {
				t.Errorf("%s allocates %.1f bytes/item, want <= %.0f: the segment no longer packs one-word cells into its size class", tc.name, bytes, tc.maxBytes)
			}
			t.Logf("%s: %.2f objects/round, %.1f bytes/item", tc.name, allocs, bytes)
		})
	}
}

func TestMetricsWiring(t *testing.T) {
	h := metrics.New()
	q := New[int](core.WaitConfig{Metrics: h})
	go q.Put(1)
	waitCond(t, q.HasWaitingProducer)
	if v, ok := poll(q); !ok || v != 1 {
		t.Fatalf("Poll = (%d, %v)", v, ok)
	}
	if offerTimeout(q, 2, time.Millisecond) {
		t.Fatal("OfferTimeout succeeded with no consumer")
	}
	if got := h.Load(metrics.Fulfillments); got != 1 {
		t.Fatalf("Fulfillments = %d, want 1", got)
	}
	if got := h.Load(metrics.Timeouts); got == 0 {
		t.Fatal("Timeouts = 0 after a timed-out offer")
	}
}

// waitCond polls cond until true, failing the test after a deadline.
func waitCond(t *testing.T, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatal("condition not reached")
		}
		time.Sleep(50 * time.Microsecond)
	}
}

// TestZeroPatienceOfferWaitsForCommittedConsumer pins the attempt-first
// grace: a consumer has committed index 0 but not yet arrived, so a
// zero-patience Offer installs its cell, and the spin budget — not the
// already-expired deadline — must bound how long it waits there. The
// shared wait loop's deadline arm has to yield to the unspent budget on
// this core; without that the Offer would break the cell within
// microseconds and report a miss although its consumer was on its way.
func TestZeroPatienceOfferWaitsForCommittedConsumer(t *testing.T) {
	q := New[int](core.WaitConfig{Spins: 1 << 30}) // timed budget 1<<26: far beyond the window below
	q.takec.Add(1)                                 // a consumer committed index 0
	s := q.head.Load()
	c := s.at(0)
	offered := make(chan bool)
	go func() { offered <- offer(q, 7) }()
	for c.Load() == cEmpty {
		runtime.Gosched()
	}
	for end := time.Now().Add(2 * time.Millisecond); time.Now().Before(end); runtime.Gosched() {
		if st := c.Load(); kind(st) != cItem {
			t.Fatalf("cell state %d while the committed consumer was still on its way; the Offer gave up its cell", st)
		}
	}
	// Arrive as the consumer that committed index 0.
	tk := Ticket[int]{q: q, s: s, i: 0}
	v, st, w := tk.arrive(0, &never, false)
	q.parkers.Wake(w)
	if st != core.OK || tk.c != nil || v != 7 {
		t.Fatalf("consumer arrival = (%d, pending=%v, %v), want (7, false, OK)", v, tk.c != nil, st)
	}
	if !<-offered {
		t.Fatal("Offer reported a miss although its committed consumer took the value")
	}
}

// TestSpareSlot pins the one-segment spare. New builds no spare, so the
// first append allocates; an append-race loser put back in the slot is
// reused exactly once, and counts as a reuse; and no segment that was ever
// linked enters the slot.
func TestSpareSlot(t *testing.T) {
	h := metrics.New()
	q := New[int](core.WaitConfig{Metrics: h})
	counts := func() (allocs, reuses int64) { return h.Load(metrics.NodeAllocs), h.Load(metrics.NodeReuses) }

	if q.spare.Load() != nil {
		t.Fatal("New built a spare segment")
	}
	s1 := q.appendSegment(q.head.Load())
	if a, r := counts(); s1.id != 1 || a != 1 || r != 0 {
		t.Fatalf("first append: id %d, allocs %d, reuses %d; want 1, 1, 0", s1.id, a, r)
	}

	// An append-race loser: built for the tail, then put back when another
	// appender linked first (appendSegment's lost-CAS arm).
	loser := q.getSegment(s1.id + 1)
	q.putSpare(loser)
	s2 := q.appendSegment(s1)
	if a, r := counts(); s2 != loser || a != 2 || r != 1 {
		t.Fatalf("append after a lost race: reused the loser %v, allocs %d, reuses %d; want true, 2, 1", s2 == loser, a, r)
	}
	if q.spare.Load() != nil {
		t.Fatal("the slot still holds the reused loser")
	}
	if s3 := q.appendSegment(s2); s3 == loser || s3 == s1 {
		t.Fatal("a linked segment came back out of the spare slot")
	}
	if a, r := counts(); a != 3 || r != 1 {
		t.Fatalf("third append: allocs %d, reuses %d, want 3, 1 (the loser is reused once)", a, r)
	}

	// Under racing appends, whatever sits in the slot was never linked.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	q = New[int](core.WaitConfig{Metrics: h})
	const pairs, each = 4, 2000
	var wg sync.WaitGroup
	for p := 0; p < pairs; p++ {
		wg.Add(2)
		go func() {
			defer wg.Done()
			for i := 0; i < each; i++ {
				q.Put(i)
			}
		}()
		go func() {
			defer wg.Done()
			for i := 0; i < each; i++ {
				q.Take()
			}
		}()
	}
	wg.Wait()
	sp := q.spare.Load()
	if sp == nil {
		return
	}
	if sp.next.Load() != nil || sp.prev.Load() != nil {
		t.Fatal("the spare segment carries list links")
	}
	for s := q.head.Load(); s != nil; s = s.next.Load() {
		if s == sp {
			t.Fatal("the spare segment is linked into the list")
		}
	}
}
