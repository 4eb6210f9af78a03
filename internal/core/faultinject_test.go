package core

import (
	"slices"
	"testing"
	"time"

	"synchq/internal/fault"
	"synchq/internal/metrics"
)

// This file drives the structures under deterministic fault injection:
// forced CAS failures on the zero-patience fast paths (the operations with
// no retry budget to spare), a scripted preemption that freezes a
// fulfilling node on top of the stack to exercise the helping protocol of
// Listing 6 lines 26–31, and an end-to-end replay check that the same
// seed produces the same injected-event stream through real operations.

// oneShot builds an injector that forces exactly one CAS failure at the
// given site and nothing else.
func oneShot(site fault.Site) *fault.Injector {
	return fault.New(fault.Config{
		Seed:        1,
		FailCASRate: 1,
		Budget:      1,
		Sites:       []fault.Site{site},
	})
}

// TestOfferSurvivesInjectedFulfillCASFailure: a zero-patience Offer with a
// consumer already waiting must absorb a lost fulfillment CAS (forced at
// the queue's item CAS / the stack's fulfilling push) by retrying from a
// fresh snapshot, not by reporting a miss.
func TestOfferSurvivesInjectedFulfillCASFailure(t *testing.T) {
	type mk struct {
		name string
		site fault.Site
		ctr  metrics.ID
		new  func(h *metrics.Handle, f *fault.Injector) Handoff[int]
	}
	for _, tc := range []mk{
		{"queue", fault.QFulfillCAS, metrics.CASFailFulfill,
			func(h *metrics.Handle, f *fault.Injector) Handoff[int] {
				return NewDualQueue[int](WaitConfig{Metrics: h, Fault: f})
			}},
		{"stack", fault.SFulfillCAS, metrics.CASFailFulfill,
			func(h *metrics.Handle, f *fault.Injector) Handoff[int] {
				return NewDualStack[int](WaitConfig{Metrics: h, Fault: f})
			}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			inj := oneShot(tc.site)
			h := metrics.New()
			q := tc.new(h, inj)
			got := make(chan int, 1)
			go func() {
				v, st := q.TakeDeadline(time.Now().Add(5*time.Second), nil)
				if st != OK {
					v = -1
				}
				got <- v
			}()
			waitFor(t, q.HasWaitingConsumer)
			if !offer(q, 42) {
				t.Fatal("Offer missed a waiting consumer after injected CAS failure")
			}
			if v := <-got; v != 42 {
				t.Fatalf("consumer received %d, want 42", v)
			}
			if n := inj.Count(tc.site); n != 1 {
				t.Errorf("injected %d failures at %v, want 1", n, tc.site)
			}
			if n := h.Snapshot().Get(tc.ctr); n < 1 {
				t.Errorf("%v counter = %d, want >= 1 (injection invisible to metrics)", tc.ctr, n)
			}
		})
	}
}

// TestPollSurvivesInjectedFulfillCASFailure is the mirror image: a
// zero-patience Poll with a producer already waiting.
func TestPollSurvivesInjectedFulfillCASFailure(t *testing.T) {
	t.Run("queue", func(t *testing.T) {
		inj := oneShot(fault.QFulfillCAS)
		q := NewDualQueue[int](WaitConfig{Fault: inj})
		done := make(chan Status, 1)
		go func() { done <- q.PutDeadline(7, time.Now().Add(5*time.Second), nil) }()
		waitFor(t, q.HasWaitingProducer)
		v, ok := poll(q)
		if !ok || v != 7 {
			t.Fatalf("Poll = (%d,%v), want (7,true)", v, ok)
		}
		if st := <-done; st != OK {
			t.Fatalf("producer status %v, want OK", st)
		}
		if n := inj.Count(fault.QFulfillCAS); n != 1 {
			t.Errorf("injected %d failures, want 1", n)
		}
	})
	t.Run("stack", func(t *testing.T) {
		inj := oneShot(fault.SFulfillCAS)
		q := NewDualStack[int](WaitConfig{Fault: inj})
		done := make(chan Status, 1)
		go func() { done <- q.PutDeadline(7, time.Now().Add(5*time.Second), nil) }()
		waitFor(t, q.HasWaitingProducer)
		v, ok := poll(q)
		if !ok || v != 7 {
			t.Fatalf("Poll = (%d,%v), want (7,true)", v, ok)
		}
		if st := <-done; st != OK {
			t.Fatalf("producer status %v, want OK", st)
		}
		if n := inj.Count(fault.SFulfillCAS); n != 1 {
			t.Errorf("injected %d failures, want 1", n)
		}
	})
}

// TestEnqueueSurvivesInjectedCASFailure forces the waiter-insertion CAS
// (queue tail link / stack head push) to fail once; the timed offer must
// retry, link, and still hand off to a later Poll.
func TestEnqueueSurvivesInjectedCASFailure(t *testing.T) {
	for _, tc := range []struct {
		name string
		site fault.Site
	}{
		{"queue", fault.QEnqueueCAS},
		{"stack", fault.SPushCAS},
	} {
		t.Run(tc.name, func(t *testing.T) {
			inj := oneShot(tc.site)
			var q Handoff[int]
			if tc.name == "queue" {
				q = NewDualQueue[int](WaitConfig{Fault: inj})
			} else {
				q = NewDualStack[int](WaitConfig{Fault: inj})
			}
			done := make(chan bool, 1)
			go func() { done <- offerTimeout(q, 9, 5*time.Second) }()
			waitFor(t, q.HasWaitingProducer)
			if v, ok := pollTimeout(q, 5*time.Second); !ok || v != 9 {
				t.Fatalf("PollTimeout = (%d,%v), want (9,true)", v, ok)
			}
			if !<-done {
				t.Fatal("offer failed after injected insert-CAS failure")
			}
			if n := inj.Count(tc.site); n != 1 {
				t.Errorf("injected %d failures at %v, want 1", n, tc.site)
			}
		})
	}
}

// TestStackHelpingPathDeterministic freezes a fulfilling node on top of
// the stack — a consumer stalled between its fulfilling push and its match
// CAS, via a scripted preemption gate at SFulfillPause — and checks that a
// third thread's zero-patience Offer takes the helping path (Listing 6
// lines 26–31): it completes the stranger's match, counts a help
// collision, and then correctly reports its own miss on the now-empty
// stack.
func TestStackHelpingPathDeterministic(t *testing.T) {
	gate := make(chan struct{})
	entered := make(chan struct{}, 1)
	inj := fault.New(fault.Config{
		Seed:        1,
		PreemptRate: 1,
		Budget:      1,
		Sites:       []fault.Site{fault.SFulfillPause},
		PreemptFunc: func(fault.Site) {
			entered <- struct{}{}
			<-gate
		},
	})
	h := metrics.New()
	q := NewDualStack[int](WaitConfig{Metrics: h, Fault: inj})

	aDone := make(chan Status, 1)
	go func() { aDone <- q.PutDeadline(1, time.Now().Add(5*time.Second), nil) }() // A: waiting producer
	waitFor(t, q.HasWaitingProducer)

	bDone := make(chan int, 1)
	go func() { // B: consumer; will stall with its fulfilling node on top
		v, st := q.TakeDeadline(time.Now().Add(5*time.Second), nil)
		if st != OK {
			v = -1
		}
		bDone <- v
	}()
	<-entered // B has won its fulfilling push and is frozen pre-match

	before := h.Snapshot().Get(metrics.HelpCollisions)
	ok := offer(q, 2) // must help B's match to completion, then miss
	if got := h.Snapshot().Get(metrics.HelpCollisions); got <= before {
		t.Errorf("help-collisions = %d after Offer, want > %d", got, before)
	}
	if ok {
		t.Error("Offer succeeded with no waiting consumer; helping should not transfer the helper's own value")
	}

	close(gate)
	if v := <-bDone; v != 1 {
		t.Fatalf("stalled consumer received %d, want 1 (helped match lost)", v)
	}
	if st := <-aDone; st != OK {
		t.Fatalf("producer status %v, want OK", st)
	}
}

// scriptedEvents runs a fixed single-goroutine operation script against a
// fresh structure with a fresh recording injector and returns the
// injected-event stream. With one goroutine the PRNG draw order is fully
// determined by the script, so two runs with the same seed must produce
// identical streams — the replay property that makes failing chaos
// schedules reproducible from just the seed.
func scriptedEvents(t *testing.T, seed uint64, stack bool) []fault.Site {
	t.Helper()
	inj := fault.New(fault.Config{
		Seed:        seed,
		FailCASRate: 0.7,
		PreemptRate: 0.5,
		Record:      true,
		PreemptFunc: func(fault.Site) {}, // scripted: no real sleeps
	})
	run := func(ops interface {
		PutReserve(v int) (ok bool, abort func() bool)
		TakeReserve() (int, bool)
	}) {
		for i := 0; i < 40; i++ {
			immediate, abort := ops.PutReserve(i)
			if immediate {
				t.Fatalf("op %d: immediate fulfillment on an empty structure", i)
			}
			if i%5 == 4 {
				if !abort() {
					t.Fatalf("op %d: abort of an unmatched reservation failed", i)
				}
				continue
			}
			if v, ok := ops.TakeReserve(); !ok || v != i {
				t.Fatalf("op %d: TakeReserve = (%d,%v), want (%d,true)", i, v, ok, i)
			}
		}
	}
	if stack {
		q := NewDualStack[int](WaitConfig{Fault: inj})
		run(handoffScript{q})
	} else {
		q := NewDualQueue[int](WaitConfig{Fault: inj})
		run(handoffScript{q})
	}
	ev := inj.Events()
	if len(ev) == 0 {
		t.Fatal("script triggered no injected events; replay test proved nothing")
	}
	return ev
}

// handoffScript adapts the reservation API to the script's tiny surface
// (PutReserve returning an abort thunk).
type handoffScript struct{ q Handoff[int] }

func (s handoffScript) PutReserve(v int) (bool, func() bool) {
	tk, ok := s.q.ReservePut(v)
	if ok {
		return true, nil
	}
	return false, tk.Abort
}
func (s handoffScript) TakeReserve() (int, bool) {
	v, tk, ok := s.q.ReserveTake()
	if tk != nil {
		tk.Abort()
	}
	return v, ok
}

// TestChaosReplayDeterminism is the acceptance check for replayability:
// the same seed yields the identical injected-event sequence through real
// structure operations, and a different seed yields a different one.
func TestChaosReplayDeterminism(t *testing.T) {
	for _, tc := range []struct {
		name  string
		stack bool
	}{{"queue", false}, {"stack", true}} {
		t.Run(tc.name, func(t *testing.T) {
			a := scriptedEvents(t, 42, tc.stack)
			b := scriptedEvents(t, 42, tc.stack)
			if !slices.Equal(a, b) {
				t.Fatalf("same seed diverged:\n run1 (%d events) %v\n run2 (%d events) %v",
					len(a), a[:min(len(a), 20)], len(b), b[:min(len(b), 20)])
			}
			c := scriptedEvents(t, 43, tc.stack)
			if slices.Equal(a, c) {
				t.Error("different seeds produced identical event streams (suspicious)")
			}
		})
	}
}
