package core

import (
	"testing"
	"time"
)

// ticketSide is either structure, so the reserve/followup/abort contract
// is tested identically on both.
type ticketSide interface {
	Handoff[int]
	Put(int)
	Take() int
	Len() int
}

func ticketSides() map[string]func() ticketSide {
	return map[string]func() ticketSide{
		"queue": func() ticketSide { return NewDualQueue[int](WaitConfig{}) },
		"stack": func() ticketSide { return NewDualStack[int](WaitConfig{}) },
	}
}

func TestTicketTakeReserveThenProducerArrives(t *testing.T) {
	for name, mk := range ticketSides() {
		t.Run(name, func(t *testing.T) {
			s := mk()
			_, tk, ok := s.ReserveTake()
			if ok || tk == nil {
				t.Fatal("expected a pending ticket on an empty structure")
			}
			if _, ok := tk.TryFollowup(); ok {
				t.Fatal("TryFollowup succeeded before any producer")
			}
			go s.Put(42)
			deadline := time.Now().Add(5 * time.Second)
			for {
				if v, ok := tk.TryFollowup(); ok {
					if v != 42 {
						t.Fatalf("followup = %d, want 42", v)
					}
					break
				}
				if time.Now().After(deadline) {
					t.Fatal("followup never succeeded")
				}
				time.Sleep(100 * time.Microsecond)
			}
		})
	}
}

func TestTicketImmediateFulfillment(t *testing.T) {
	for name, mk := range ticketSides() {
		t.Run(name, func(t *testing.T) {
			s := mk()
			// A waiting producer means TakeReserve completes at once.
			go s.Put(7)
			deadline := time.Now().Add(5 * time.Second)
			for s.Len() != 1 {
				if time.Now().After(deadline) {
					t.Fatal("producer never queued")
				}
				time.Sleep(100 * time.Microsecond)
			}
			v, tk, ok := s.ReserveTake()
			if !ok || tk != nil || v != 7 {
				t.Fatalf("TakeReserve = (%d,%v,%v), want immediate 7", v, tk, ok)
			}
		})
	}
}

func TestTicketPutReserveDelivered(t *testing.T) {
	for name, mk := range ticketSides() {
		t.Run(name, func(t *testing.T) {
			s := mk()
			tk, ok := s.ReservePut(9)
			if ok || tk == nil {
				t.Fatal("expected a pending put ticket")
			}
			got := make(chan int)
			go func() { got <- s.Take() }()
			if v := <-got; v != 9 {
				t.Fatalf("consumer took %d, want 9", v)
			}
			// The producer's follow-up observes delivery.
			deadline := time.Now().Add(5 * time.Second)
			for {
				if _, ok := tk.TryFollowup(); ok {
					return
				}
				if time.Now().After(deadline) {
					t.Fatal("put followup never observed delivery")
				}
				time.Sleep(100 * time.Microsecond)
			}
		})
	}
}

func TestTicketAbort(t *testing.T) {
	for name, mk := range ticketSides() {
		t.Run(name, func(t *testing.T) {
			s := mk()
			tk, ok := s.ReservePut(1)
			if ok {
				t.Fatal("unexpected immediate delivery")
			}
			if !tk.Abort() {
				t.Fatal("Abort failed on an unfulfilled reservation")
			}
			// The aborted offer must be invisible to consumers.
			tk2, ok := s.ReservePut(2)
			if ok {
				t.Fatal("unexpected immediate delivery of second offer")
			}
			if got := s.Take(); got != 2 {
				t.Fatalf("take = %d, want 2 (aborted 1 must be skipped)", got)
			}
			// tk2 was fulfilled by that take.
			deadline := time.Now().Add(5 * time.Second)
			for {
				if _, ok := tk2.TryFollowup(); ok {
					return
				}
				if time.Now().After(deadline) {
					t.Fatal("followup never observed delivery")
				}
				time.Sleep(100 * time.Microsecond)
			}
		})
	}
}

func TestTicketAbortLosesToFulfillment(t *testing.T) {
	for name, mk := range ticketSides() {
		t.Run(name, func(t *testing.T) {
			s := mk()
			tk, _ := s.ReservePut(5)
			// Fulfill it...
			if got := s.Take(); got != 5 {
				t.Fatalf("take = %d, want 5", got)
			}
			// ...then try to abort: must fail, and the follow-up must
			// still report delivery (Listing 2's abort path).
			if tk.Abort() {
				t.Fatal("Abort succeeded after fulfillment")
			}
			if _, ok := tk.TryFollowup(); !ok {
				t.Fatal("followup after failed abort did not report delivery")
			}
		})
	}
}

func TestTicketAwaitBlocksAndDelivers(t *testing.T) {
	for name, mk := range ticketSides() {
		t.Run(name, func(t *testing.T) {
			s := mk()
			_, tk, ok := s.ReserveTake()
			if ok {
				t.Fatal("unexpected immediate value")
			}
			go func() {
				time.Sleep(5 * time.Millisecond)
				s.Put(11)
			}()
			v, st := tk.Await(time.Time{}, nil)
			if st != OK || v != 11 {
				t.Fatalf("Await = (%d,%v), want (11,OK)", v, st)
			}
		})
	}
}

func TestTicketAwaitTimesOut(t *testing.T) {
	for name, mk := range ticketSides() {
		t.Run(name, func(t *testing.T) {
			s := mk()
			_, tk, _ := s.ReserveTake()
			_, st := tk.Await(time.Now().Add(10*time.Millisecond), nil)
			if st != Timeout {
				t.Fatalf("Await = %v, want Timeout", st)
			}
			// The canceled reservation must not absorb a later put.
			done := make(chan int)
			go func() { done <- s.Take() }()
			s.Put(3)
			if got := <-done; got != 3 {
				t.Fatalf("take = %d, want 3", got)
			}
		})
	}
}

func TestTicketSpentPanics(t *testing.T) {
	s := ticketSides()["queue"]()
	_, tk, _ := s.ReserveTake()
	if !tk.Abort() {
		t.Fatal("abort failed")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("follow-up on a spent ticket did not panic")
		}
	}()
	tk.TryFollowup()
}
