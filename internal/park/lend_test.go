package park

import (
	"testing"
	"time"
	"unsafe"

	"synchq/internal/fault"
	"synchq/internal/metrics"
	"synchq/internal/spin"
)

// Regression tests for lent parkers, shared by every hand-off core: a
// waiting node or cell carries no parker of its own, so Await borrows one
// from the structure's Lender when the spin phase ends and returns it when
// the wait is over. Each core's TestResolveBeforeArm covers the resolver
// side of the hand-shake.

// TestLenderReusesReturnedParkers: a returned parker is the next one lent,
// and a parker the lender creates carries the structure's metrics handle
// and fault injector.
func TestLenderReusesReturnedParkers(t *testing.T) {
	h := metrics.New()
	inj := fault.New(fault.Config{Seed: 1})
	l := Lender{M: h, F: inj}
	p := l.Lend()
	if p.m != h || p.f != inj {
		t.Fatal("a fresh parker does not carry the lender's metrics and fault injector")
	}
	if q := l.Lend(); q == p {
		t.Fatal("a lent parker was lent again before its return")
	}
	l.Return(p)
	if got := l.Lend(); got != p {
		t.Fatal("the returned parker was not the next one lent")
	}
}

// TestLenderDropsSurplus: the free list holds lendCap parkers; a return
// to a full list drops the parker, so a burst of parked waits leaves at
// most lendCap behind.
func TestLenderDropsSurplus(t *testing.T) {
	var l Lender
	lent := make(map[*Parker]bool, lendCap+1)
	var last *Parker
	for i := 0; i <= lendCap; i++ {
		last = l.Lend()
		lent[last] = true
	}
	if len(lent) != lendCap+1 {
		t.Fatalf("%d distinct parkers lent from an empty list, want %d", len(lent), lendCap+1)
	}
	for p := range lent {
		if p != last {
			l.Return(p)
		}
	}
	l.Return(last) // the list is full: dropped
	for i := 0; i < lendCap; i++ {
		if p := l.Lend(); !lent[p] || p == last {
			t.Fatalf("lend %d after the burst: got a parker the full list could not have kept", i)
		}
	}
	if p := l.Lend(); lent[p] {
		t.Fatal("the lender kept more than lendCap parkers")
	}
}

// TestStrayPermitIsSpurious: a late Unpark can reach a parker after its
// borrower left and it went back to the free list. The next borrower then
// wakes once for nothing and must re-validate: a timed wait nobody
// resolves still times out, and not before its deadline.
func TestStrayPermitIsSpurious(t *testing.T) {
	f := &fake{}
	p := f.l.Lend()
	p.Unpark()
	f.l.Return(p)

	const patience = 20 * time.Millisecond
	start := time.Now()
	o, why := Await(fakeWait{f}, Policy{Cal: spin.NewCalibrator(-1), Lender: &f.l}, start.Add(patience), nil, 0)
	if elapsed := time.Since(start); elapsed < patience {
		t.Errorf("timed wait returned after %v, before its %v deadline", elapsed, patience)
	}
	if o != Aborted || why != DeadlineExceeded {
		t.Fatalf("unresolved timed wait = (%v, %v), want (Aborted, DeadlineExceeded)", o, why)
	}
	if f.w.Load() != p {
		t.Fatal("the wait did not borrow the parker on the free list")
	}
	if got := f.l.Lend(); got != p {
		t.Fatal("the wait did not return the lent parker to the free list")
	}
	if p.TryPark() {
		t.Error("the stray permit is still there: the wait never consumed it")
	}
}

// TestLenderFreeListIsolated: the free list is written on every parked
// wait, while the fields an embedding structure places before the lender
// are read on every operation; a full line of offset keeps them apart.
func TestLenderFreeListIsolated(t *testing.T) {
	const cacheLine = 64
	var l Lender
	if off := unsafe.Offsetof(l.free); off < cacheLine {
		t.Fatalf("Lender.free offset = %d, want at least %d: its writes would share a line with the embedding structure's fields", off, cacheLine)
	}
}
