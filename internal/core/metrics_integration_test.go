package core

import (
	"testing"
	"time"

	"synchq/internal/metrics"
)

func metricsHandleForTest() *metrics.Handle { return metrics.New() }

// assertBridgeCounters checks the counter story of a verified bridge run:
// transfers happened, the cancellation mix drove the abandon paths, and
// waiting actually blocked goroutines.
func assertBridgeCounters(t *testing.T, h *metrics.Handle) {
	t.Helper()
	s := h.Snapshot()
	if s.Get(metrics.Fulfillments) == 0 {
		t.Error("no fulfillments counted in a run that verified transfers")
	}
	if s.Get(metrics.Timeouts)+s.Get(metrics.Cancellations) == 0 {
		t.Error("no timeouts or cancellations counted in a mix full of both")
	}
	if s.Get(metrics.Parks) == 0 {
		t.Error("no parks counted in a blocking workload")
	}
	if s.Get(metrics.Unparks) > s.Get(metrics.Parks)+s.Get(metrics.Fulfillments) {
		t.Errorf("unparks (%d) exceed parks+fulfillments (%d+%d): permit deliveries unaccounted",
			s.Get(metrics.Unparks), s.Get(metrics.Parks), s.Get(metrics.Fulfillments))
	}
}

// TestMetricsQueueCleanSweepDeterministic pins the cleanMe counter to the
// paper's cleaning protocol with a deterministic interleaving: a waiter
// that times out while an *interior* node (a live waiter sits behind it)
// must be unlinked by its own clean() call, and the unlink must be
// counted. Three reservations fix the line-up on one goroutine, and the
// middle one times out at a deadline that has already passed, so no
// waiter's patience races the others' arrival.
func TestMetricsQueueCleanSweepDeterministic(t *testing.T) {
	h := metrics.New()
	q := NewDualQueue[int](WaitConfig{Metrics: h})

	_, front, ok1 := q.TakeReserve()
	_, middle, ok2 := q.TakeReserve()
	_, back, ok3 := q.TakeReserve()
	if ok1 || ok2 || ok3 || q.Len() != 3 {
		t.Fatalf("reservations fulfilled on an empty queue (Len = %d)", q.Len())
	}

	if _, st := middle.Await(time.Now().Add(-time.Millisecond), nil); st != Timeout {
		t.Fatalf("middle waiter: status %v, want Timeout", st)
	}
	if got := h.Load(metrics.Timeouts); got == 0 {
		t.Error("timeout not counted")
	}
	// The canceled node was interior, so clean() must have unlinked it
	// immediately (possibly after absorbing at head) — a counted sweep.
	if got := h.Load(metrics.CleanSweeps); got == 0 {
		t.Errorf("clean-sweeps = %d after interior cancellation, want > 0", got)
	}

	q.Put(1)
	q.Put(2)
	for i, tk := range []*QueueTicket[int]{front, back} {
		if v, ok := tk.TryFollowup(); !ok || v != i+1 {
			t.Errorf("waiter %d: TryFollowup = (%d,%v), want (%d,true)", i, v, ok, i+1)
		}
	}
	if got := h.Load(metrics.Fulfillments); got != 2 {
		t.Errorf("fulfillments = %d, want 2", got)
	}
	if got := q.Len(); got != 0 {
		t.Fatalf("Len = %d at end, want 0", got)
	}
}

// waitFor polls cond until true or a generous deadline.
func waitFor(t *testing.T, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatal("condition not reached in time")
		}
		time.Sleep(100 * time.Microsecond)
	}
}

// TestMetricsStackCountersFire drives the dual stack through its
// fulfillment, timeout, and cancellation paths and checks the counters
// tell that story.
func TestMetricsStackCountersFire(t *testing.T) {
	h := metrics.New()
	q := NewDualStack[int](WaitConfig{Metrics: h})

	// Timeout path (pure poll: nothing waiting).
	if _, ok := q.Poll(); ok {
		t.Fatal("Poll on empty stack succeeded")
	}
	if got := h.Load(metrics.Timeouts); got == 0 {
		t.Error("poll miss not counted as timeout")
	}

	// Cancellation path.
	cancel := make(chan struct{})
	close(cancel)
	if st := q.PutDeadline(1, time.Time{}, cancel); st != Canceled {
		t.Fatalf("PutDeadline with closed cancel: %v, want Canceled", st)
	}
	if got := h.Load(metrics.Cancellations); got == 0 {
		t.Error("cancellation not counted")
	}

	// Fulfillment (and park/unpark) path.
	done := make(chan int, 1)
	go func() { done <- q.Take() }()
	waitFor(t, func() bool { return q.Len() == 1 })
	q.Put(7)
	if got := <-done; got != 7 {
		t.Fatalf("Take = %d, want 7", got)
	}
	if got := h.Load(metrics.Fulfillments); got != 1 {
		t.Errorf("fulfillments = %d, want 1", got)
	}
}

// TestMetricsDisabledStructuresWork re-checks the basic rendezvous with a
// nil handle, guarding the disabled path of every hook (one branch, no
// recording, no panic).
func TestMetricsDisabledStructuresWork(t *testing.T) {
	q := NewDualQueue[int](WaitConfig{})
	if q.Metrics() != nil {
		t.Fatal("zero WaitConfig attached a metrics handle")
	}
	done := make(chan int, 1)
	go func() { done <- q.Take() }()
	q.Put(42)
	if got := <-done; got != 42 {
		t.Fatalf("Take = %d, want 42", got)
	}
	s := NewDualStack[int](WaitConfig{})
	if s.Metrics() != nil {
		t.Fatal("zero WaitConfig attached a metrics handle to the stack")
	}
	if _, ok := s.Poll(); ok {
		t.Fatal("Poll on empty stack succeeded")
	}
}
