package shard

import (
	"testing"
	"time"

	"synchq/internal/core"
)

// This file pins down two interleavings that are too narrow for the stress
// suites to hit reliably, using a hooked shard to stop the fabric exactly
// inside the window under test.
//
// The first is the announce/link race in the pinned-reservation paths:
// Fabric.ReserveTake and ReservePut announce the home shard's presence bit
// BEFORE the shard reservation links. A sweep probing in that window finds
// the flagged shard empty and clears the bit; if the fabric did not
// re-establish it after linking, the reservation would be invisible to
// every future sweep — a counterpart then commits to waiting on its own
// shard and both strand forever, with no rescue.
//
// The second is its demand-path sibling: the commit step announces only
// after the waiter has linked, so a counterpart that links and announces
// inside our link-to-announce window is caught by nothing but our Dekker
// reload.
//
// The third is Close linearization: Close shuts shards down in index
// order, so Closed() must not report true (from shard 0) while transfers
// can still complete on higher-index shards.

// hookedDual wraps a shard and runs a callback immediately before the
// reservation links — i.e., inside the fabric's announce-to-link window —
// at the start of a producer's commit step (after the link, before the
// announce), and before Close.
type hookedDual struct {
	Dual[int64]
	beforeReserveTake func()
	beforeReservePut  func()
	beforePutCommit   func()
	beforeClose       func()
}

func (h *hookedDual) ReserveTake() (int64, core.Ticket[int64], bool) {
	if h.beforeReserveTake != nil {
		h.beforeReserveTake()
	}
	return h.Dual.ReserveTake()
}

func (h *hookedDual) ReservePut(v int64) (core.Ticket[int64], bool) {
	if h.beforeReservePut != nil {
		h.beforeReservePut()
	}
	return h.Dual.ReservePut(v)
}

func (h *hookedDual) PutCommit(v int64, deadline time.Time, cancel <-chan struct{}, commit func() bool) core.Status {
	if h.beforePutCommit == nil {
		return h.Dual.PutCommit(v, deadline, cancel, commit)
	}
	return h.Dual.PutCommit(v, deadline, cancel, func() bool {
		h.beforePutCommit()
		return commit()
	})
}

func (h *hookedDual) Close() {
	if h.beforeClose != nil {
		h.beforeClose()
	}
	h.Dual.Close()
}

func newHookedFabric(n int) (*Fabric[int64], []*hookedDual) {
	var hooks []*hookedDual
	f := New(n, func(int) Dual[int64] {
		h := &hookedDual{Dual: core.NewDualQueue[int64](core.WaitConfig{})}
		hooks = append(hooks, h)
		return h
	})
	return f, hooks
}

func TestReserveTakeSurvivesPreLinkSweepClear(t *testing.T) {
	f, hooks := newHookedFabric(2)
	fired := false
	for _, h := range hooks {
		h.beforeReserveTake = func() {
			fired = true
			// The racing producer sweep: the cons summary is flagged but
			// the reservation has not linked yet, so the probe finds the
			// shard empty, clears the "stale" bit, and misses.
			if f.Offer(99) {
				t.Fatal("Offer paired inside the pre-link window")
			}
			if f.cons.Load() != 0 {
				t.Fatal("racing sweep did not clear the pre-link bit; window not exercised")
			}
		}
	}
	_, tkt, ok := f.ReserveTake()
	if ok {
		t.Fatal("immediate pairing on an empty fabric")
	}
	if !fired {
		t.Fatal("pre-link hook never fired")
	}
	// The fix: the bit is re-established after the reservation links, so
	// the pinned reservation is visible to a later producer's sweep.
	if f.cons.Load() == 0 {
		t.Fatal("cons bit not re-established after link; pinned reservation invisible to sweeps")
	}
	if !f.Offer(42) {
		t.Fatal("sweep missed the pinned reservation")
	}
	v, ok := tkt.TryFollowup()
	if !ok || v != 42 {
		t.Fatalf("TryFollowup = (%d,%v), want (42,true)", v, ok)
	}
}

func TestReservePutSurvivesPreLinkSweepClear(t *testing.T) {
	f, hooks := newHookedFabric(2)
	fired := false
	for _, h := range hooks {
		h.beforeReservePut = func() {
			fired = true
			if _, ok := f.Poll(); ok {
				t.Fatal("Poll paired inside the pre-link window")
			}
			if f.prod.Load() != 0 {
				t.Fatal("racing sweep did not clear the pre-link bit; window not exercised")
			}
		}
	}
	tkt, ok := f.ReservePut(7)
	if ok {
		t.Fatal("immediate pairing on an empty fabric")
	}
	if !fired {
		t.Fatal("pre-link hook never fired")
	}
	if f.prod.Load() == 0 {
		t.Fatal("prod bit not re-established after link; pinned reservation invisible to sweeps")
	}
	if v, ok := f.Poll(); !ok || v != 7 {
		t.Fatalf("Poll = (%d,%v), want (7,true)", v, ok)
	}
	if !tkt.Abort() {
		// Fulfilled, as expected: Abort must report the loss.
		return
	}
	t.Fatal("Abort succeeded on a fulfilled reservation")
}

func TestPutCommitReloadFindsLateConsumer(t *testing.T) {
	f, hooks := newHookedFabric(2)
	var tkt core.Ticket[int64]
	fired := false
	for i, h := range hooks {
		other := 1 - i
		h.beforePutCommit = func() {
			if fired {
				return
			}
			fired = true
			// The producer's sweep is over and its node is linked on shard
			// i, but its bit is not yet announced: a consumer that links and
			// announces on the other shard now is invisible to that sweep,
			// and its own reload would have missed the producer.
			var ok bool
			if _, tkt, ok = f.Shard(other).ReserveTake(); ok {
				t.Fatal("consumer paired on an empty shard")
			}
			setBit(&f.cons, 1<<uint(other))
		}
	}
	if st := f.PutDeadline(5, time.Now().Add(100*time.Millisecond), nil); st != core.OK {
		t.Fatalf("PutDeadline = %v, want OK: the Dekker reload missed the announced consumer", st)
	}
	if !fired {
		t.Fatal("commit hook never fired")
	}
	if v, ok := tkt.TryFollowup(); !ok || v != 5 {
		t.Fatalf("consumer TryFollowup = (%d,%v), want (5,true)", v, ok)
	}
}

func TestClosedNotObservedBeforeLastShardCloses(t *testing.T) {
	f, hooks := newHookedFabric(4)
	last := len(hooks) - 1
	checked := false
	hooks[last].beforeClose = func() {
		checked = true
		// Shards 0..last-1 are already closed here, but a transfer could
		// still complete on this shard — Closed() must not lead it.
		if f.Closed() {
			t.Error("Closed() = true while the last shard can still transfer")
		}
		// The still-open shard must indeed still accept a hand-off: pin a
		// consumer and pair with it, proving the Closed()==false report
		// above is honest, not just late.
		_, tkt, ok := f.Shard(last).ReserveTake()
		if ok {
			t.Fatal("immediate pairing on an empty shard")
		}
		if !f.Shard(last).Offer(11) {
			t.Fatal("open shard refused a hand-off during Close")
		}
		if v, ok := tkt.TryFollowup(); !ok || v != 11 {
			t.Fatalf("TryFollowup = (%d,%v), want (11,true)", v, ok)
		}
	}
	f.Close()
	if !checked {
		t.Fatal("close hook never fired")
	}
	if !f.Closed() {
		t.Fatal("Closed() = false after Close returned")
	}
	if st := f.PutDeadline(1, time.Now().Add(time.Millisecond), nil); st != core.Closed {
		t.Fatalf("PutDeadline on closed fabric = %v, want Closed", st)
	}
}
