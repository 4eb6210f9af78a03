package core

import (
	"sync"
	"testing"
	"time"

	"synchq/internal/fault"
	"synchq/internal/metrics"
	"synchq/internal/verify"
)

// This file verifies graceful shutdown: Close must wake every waiter with
// the Closed status, reject subsequent operations, lose no in-flight
// transfer (each hand-off completes in both parties or in neither), and —
// for the transfer queue — keep every asynchronous deposit it accepted.

// runCloseStorm closes the structure in the middle of a full-throttle
// producer/consumer storm of unbounded (block-until-closed) operations,
// then checks that every goroutine returned, that the recorded history is
// conserving and synchronous, and that the two sides agree on how many
// transfers completed — i.e. close never tears a hand-off in half.
func runCloseStorm(t *testing.T, ops Handoff[int64], producers, consumers int) {
	t.Helper()
	rec := verify.NewRecorder()
	var wg sync.WaitGroup
	for p := 0; p < producers; p++ {
		wg.Add(1)
		go func(id int64) {
			defer wg.Done()
			log := rec.NewThread()
			for seq := int64(0); ; seq++ {
				v := id<<40 | seq
				inv := log.Begin()
				st := ops.PutDeadline(v, time.Time{}, nil)
				log.End(verify.Put, v, inv, st == OK)
				if st == Closed {
					return
				}
				if st != OK {
					t.Errorf("put %d: unexpected status %v", v, st)
					return
				}
			}
		}(int64(p))
	}
	for c := 0; c < consumers; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			log := rec.NewThread()
			for {
				inv := log.Begin()
				v, st := ops.TakeDeadline(time.Time{}, nil)
				log.End(verify.Take, v, inv, st == OK)
				if st == Closed {
					return
				}
				if st != OK {
					t.Errorf("take: unexpected status %v", st)
					return
				}
			}
		}()
	}

	time.Sleep(20 * time.Millisecond)
	ops.Close()
	// The acceptance criterion "every waiter returns Closed" is this Wait
	// terminating: a missed wakeup would hang the test.
	wg.Wait()

	if !ops.Closed() {
		t.Fatal("Closed() false after Close")
	}
	ops.Close() // idempotent
	if st := ops.PutDeadline(99, time.Time{}, nil); st != Closed {
		t.Fatalf("put after close: got %v, want Closed", st)
	}
	if _, st := ops.TakeDeadline(time.Time{}, nil); st != Closed {
		t.Fatalf("take after close: got %v, want Closed", st)
	}

	res := verify.Check(rec.History(), true)
	if !res.Ok() {
		for _, e := range res.Errors {
			t.Errorf("history violation: %s", e)
		}
	}
	if res.Transfers == 0 {
		t.Error("storm completed no transfers before close")
	}
}

func TestDualQueueCloseUnderLoad(t *testing.T) {
	runCloseStorm(t, NewDualQueue[int64](WaitConfig{}), 6, 6)
}

func TestDualStackCloseUnderLoad(t *testing.T) {
	runCloseStorm(t, NewDualStack[int64](WaitConfig{}), 6, 6)
}

func TestTransferQueueCloseUnderLoad(t *testing.T) {
	runCloseStorm(t, NewDualQueue[int64](WaitConfig{}), 6, 6)
}

// TestCloseWakesParkedWaiters parks waiters on both sides (producers on
// the queue, consumers too would deadlock a synchronous structure — so
// two phases) and closes; every waiter must return Closed and the
// ClosedWakeups counter must see them.
func TestCloseWakesParkedWaiters(t *testing.T) {
	for _, tc := range []struct {
		name  string
		fresh func(h *metrics.Handle) Handoff[int64]
	}{
		{"queue", func(h *metrics.Handle) Handoff[int64] {
			return NewDualQueue[int64](WaitConfig{Metrics: h})
		}},
		{"stack", func(h *metrics.Handle) Handoff[int64] {
			return NewDualStack[int64](WaitConfig{Metrics: h})
		}},
		{"transfer", func(h *metrics.Handle) Handoff[int64] {
			return NewDualQueue[int64](WaitConfig{Metrics: h})
		}},
	} {
		for _, side := range []string{"producers", "consumers"} {
			t.Run(tc.name+"/"+side, func(t *testing.T) {
				h := metrics.New()
				ops := tc.fresh(h)
				const waiters = 4
				results := make(chan Status, waiters)
				for i := 0; i < waiters; i++ {
					go func(v int64) {
						if side == "producers" {
							results <- ops.PutDeadline(v, time.Time{}, nil)
						} else {
							_, st := ops.TakeDeadline(time.Time{}, nil)
							results <- st
						}
					}(int64(i))
				}
				// Let the waiters engage and park before closing.
				time.Sleep(10 * time.Millisecond)
				ops.Close()
				for i := 0; i < waiters; i++ {
					select {
					case st := <-results:
						if st != Closed {
							t.Fatalf("waiter returned %v, want Closed", st)
						}
					case <-time.After(5 * time.Second):
						t.Fatal("waiter not woken by Close")
					}
				}
				if got := h.Snapshot().Get(metrics.ClosedWakeups); got < waiters {
					t.Errorf("closed-wakeups = %d, want >= %d", got, waiters)
				}
			})
		}
	}
}

// TestTransferQueueCloseKeepsDeposits checks the §5 drain guarantee under
// a concurrent close: every asynchronous Put that reported OK must later
// surface exactly once — through a consumer or through Drain — and every
// Put that reported Closed must never surface.
func TestTransferQueueCloseKeepsDeposits(t *testing.T) {
	tq := NewDualQueue[int64](WaitConfig{})
	const producers, perProducer = 4, 2000

	accepted := make([]map[int64]bool, producers)
	var wg sync.WaitGroup
	for p := 0; p < producers; p++ {
		accepted[p] = make(map[int64]bool, perProducer)
		wg.Add(1)
		go func(id int64) {
			defer wg.Done()
			for seq := int64(0); seq < perProducer; seq++ {
				v := id<<40 | seq
				if tq.PutAsync(v) == OK {
					accepted[id][v] = true
				} else {
					return // closed: all later Puts would be refused too
				}
			}
		}(int64(p))
	}

	taken := make(map[int64]bool)
	var takenMu sync.Mutex
	var cwg sync.WaitGroup
	for c := 0; c < 2; c++ {
		cwg.Add(1)
		go func() {
			defer cwg.Done()
			for {
				v, st := tq.TakeDeadline(time.Time{}, nil)
				if st != OK {
					return // Closed, and the buffer is empty
				}
				takenMu.Lock()
				if taken[v] {
					t.Errorf("value %d delivered twice", v)
				}
				taken[v] = true
				takenMu.Unlock()
			}
		}()
	}

	time.Sleep(2 * time.Millisecond)
	tq.Close()
	wg.Wait()  // producers stop accepting
	cwg.Wait() // consumers drain the rest, then observe Closed

	drained := drain(tq)
	for _, v := range drained {
		if taken[v] {
			t.Errorf("value %d both taken and drained", v)
		}
		taken[v] = true
	}
	if tq.PutAsync(12345) != Closed {
		t.Error("Put accepted after Close")
	}

	total := 0
	for id := range accepted {
		for v := range accepted[id] {
			if !taken[v] {
				t.Errorf("accepted deposit %d lost by close", v)
			}
			total++
		}
	}
	for v := range taken {
		id := v >> 40
		if !accepted[id][v] {
			t.Errorf("value %d surfaced but was never accepted", v)
		}
	}
	if total == 0 {
		t.Error("no deposits accepted before close; test proved nothing")
	}
}

// TestDemandOpsPanicAfterClose: the demand operations have no status
// channel, so — like a send on a closed Go channel — they panic.
func TestDemandOpsPanicAfterClose(t *testing.T) {
	mustPanic := func(name string, f func()) {
		defer func() {
			if recover() == nil {
				t.Errorf("%s did not panic on closed structure", name)
			}
		}()
		f()
	}
	q := NewDualQueue[int](WaitConfig{})
	q.Close()
	mustPanic("queue.Put", func() { q.Put(1) })
	mustPanic("queue.Take", func() { q.Take() })
	mustPanic("queue.PutReserve", func() { q.ReservePut(1) })
	mustPanic("queue.TakeReserve", func() { q.ReserveTake() })

	s := NewDualStack[int](WaitConfig{})
	s.Close()
	mustPanic("stack.Put", func() { s.Put(1) })
	mustPanic("stack.Take", func() { s.Take() })
	mustPanic("stack.PutReserve", func() { s.ReservePut(1) })
	mustPanic("stack.TakeReserve", func() { s.ReserveTake() })

	// Zero-patience probes stay non-panicking: they report "nothing
	// available" rather than tearing down pollers racing a shutdown.
	if ok := offer(q, 1); ok {
		t.Error("queue.Offer succeeded on closed queue")
	}
	if _, ok := poll(s); ok {
		t.Error("stack.Poll succeeded on closed stack")
	}
}

// TestTicketCloseSemantics: a reservation evicted by Close reports Closed
// through Await, never reports fulfillment through TryFollowup, and may
// be aborted successfully (no value was transferred).
func TestTicketCloseSemantics(t *testing.T) {
	t.Run("queue-await", func(t *testing.T) {
		q := NewDualQueue[int](WaitConfig{})
		tk, ok := q.ReservePut(7)
		if ok {
			t.Fatal("immediate fulfillment on empty queue")
		}
		q.Close()
		if _, ok := tk.TryFollowup(); ok {
			t.Error("TryFollowup reported delivery on a closed reservation")
		}
		if _, st := tk.Await(time.Time{}, nil); st != Closed {
			t.Errorf("Await = %v, want Closed", st)
		}
	})
	t.Run("queue-abort", func(t *testing.T) {
		q := NewDualQueue[int](WaitConfig{})
		tk, _ := q.ReservePut(7)
		q.Close()
		if !tk.Abort() {
			t.Error("Abort of a close-evicted reservation failed")
		}
	})
	t.Run("stack-await", func(t *testing.T) {
		s := NewDualStack[int](WaitConfig{})
		tk, ok := s.ReservePut(7)
		if ok {
			t.Fatal("immediate fulfillment on empty stack")
		}
		s.Close()
		if _, ok := tk.TryFollowup(); ok {
			t.Error("TryFollowup reported delivery on a closed reservation")
		}
		if _, st := tk.Await(time.Time{}, nil); st != Closed {
			t.Errorf("Await = %v, want Closed", st)
		}
	})
	t.Run("stack-abort", func(t *testing.T) {
		s := NewDualStack[int](WaitConfig{})
		tk, _ := s.ReservePut(7)
		s.Close()
		if !tk.Abort() {
			t.Error("Abort of a close-evicted reservation failed")
		}
	})
}

// TestReserveCloseRaceSelfEvicts pins the hardest close race for the
// reservation API: the requester reads closed == false in the engage loop,
// then Close sets the flag AND completes its entire eviction sweep before
// the node's link/push CAS lands. The sweep cannot see the node, so only
// the requester's post-link re-check can evict it; without that re-check
// the ticket's unbounded Await parks forever. The q/s-close-race-pause
// injection sites sit exactly in that window, and a scripted PreemptFunc
// holds it open while the test runs Close to completion.
func TestReserveCloseRaceSelfEvicts(t *testing.T) {
	type reserver interface {
		ReserveTake() (int, Ticket[int], bool)
		ReservePut(int) (Ticket[int], bool)
		Close()
	}
	makers := []struct {
		name string
		site fault.Site
		new  func(f *fault.Injector) reserver
	}{
		{"queue", fault.QCloseRacePause,
			func(f *fault.Injector) reserver { return NewDualQueue[int](WaitConfig{Fault: f}) }},
		{"stack", fault.SCloseRacePause,
			func(f *fault.Injector) reserver { return NewDualStack[int](WaitConfig{Fault: f}) }},
	}
	ops := []struct {
		name    string
		reserve func(q reserver) (Ticket[int], bool)
	}{
		{"take", func(q reserver) (Ticket[int], bool) { _, tk, ok := q.ReserveTake(); return tk, ok }},
		{"put", func(q reserver) (Ticket[int], bool) { return q.ReservePut(9) }},
	}
	for _, mk := range makers {
		for _, op := range ops {
			t.Run(mk.name+"-"+op.name, func(t *testing.T) {
				gate := make(chan struct{})
				entered := make(chan struct{}, 1)
				inj := fault.New(fault.Config{
					Seed:        1,
					PreemptRate: 1,
					Budget:      1,
					Sites:       []fault.Site{mk.site},
					PreemptFunc: func(fault.Site) { entered <- struct{}{}; <-gate },
				})
				q := mk.new(inj)
				res := make(chan Status, 1)
				go func() {
					tk, ok := op.reserve(q)
					if ok {
						res <- OK // paired immediately; impossible here but not a hang
						return
					}
					_, st := tk.Await(time.Time{}, nil)
					res <- st
				}()
				<-entered // closed observed false; node not yet linked
				q.Close() // flag set and sweep fully done before the link CAS
				close(gate)
				select {
				case st := <-res:
					if st != Closed {
						t.Fatalf("Await = %v, want Closed", st)
					}
				case <-time.After(10 * time.Second):
					t.Fatal("reservation stranded: Await never returned after Close raced the insert")
				}
			})
		}
	}
}
