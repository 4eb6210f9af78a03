package segq

import (
	"runtime"
	"sync"
	"testing"
	"time"

	"synchq/internal/core"
	"synchq/internal/fault"
	"synchq/internal/metrics"
	"synchq/internal/park"
)

// Regression tests for lent parkers and the one-word handshake: a cell
// carries no parker of its own, so a waiter borrows one when its spin
// phase ends and arms it with one CAS that packs the index into the
// cell's word, and every resolver (and Close) wakes the index held in the
// word its own CAS replaced (see park.Waiter.Arm). The parker table
// itself is tested in internal/park.

// armHook is a cell's wait with a gate run just before the wait arms its
// parker — the window between a waiter's install and its Arm. It records
// the index it was lent.
type armHook struct {
	cellWait
	before func()
	idx    *uint32
}

func (w armHook) Arm(idx uint32) {
	*w.idx = idx
	w.before()
	w.cellWait.Arm(idx)
}

// TestResolveBeforeArm: a counterpart that resolves the cell after the
// waiter installed but before it armed a parker replaces a word naming no
// parker, so it wakes no one; the waiter's arming CAS then loses to the
// resolution, and its re-check returns Fulfilled without blocking. The
// parker goes back to the table with no permit, so its next borrower does
// not wake for nothing. An arm that overwrote the resolution would leave
// the cell pending, and the wait would run into its deadline instead.
func TestResolveBeforeArm(t *testing.T) {
	h := metrics.New()
	q := New[int](core.WaitConfig{Metrics: h, Spins: -1})
	_, tk, ok := q.ReserveTake()
	if ok || tk == nil {
		t.Fatal("ReserveTake on an empty queue completed at once")
	}
	st := tk.(*Ticket[int])
	idx := ^uint32(0)
	w := armHook{cellWait: st.waiter(), before: func() { q.Put(7) }, idx: &idx}
	deadline := time.Now().Add(time.Second)
	if o, _ := park.Await(w, &park.Policy{Cal: q.pol.Cal, M: h, Parkers: &q.parkers, Grace: true}, &deadline, nil, 0); o != park.Fulfilled {
		t.Fatalf("wait resolved %v, want Fulfilled", o)
	}
	if v := st.collect(); v != 7 {
		t.Fatalf("collected %d, want 7", v)
	}
	if idx == ^uint32(0) {
		t.Fatal("the wait never armed a parker")
	}
	if word := st.c.Load(); word != cDone {
		t.Fatalf("cell word %#x after the wait, want DONE %#x: the arm overwrote the resolution", word, cDone)
	}
	if n := h.Load(metrics.Unparks); n != 0 {
		t.Errorf("Unparks = %d: the resolver unparked a waiter that had not armed", n)
	}
	next, p := q.parkers.Lend()
	if next != idx {
		t.Fatalf("next borrower got parker %d, want the returned %d", next, idx)
	}
	if p.TryPark() {
		t.Error("the returned parker holds a permit nobody delivered on purpose")
	}
}

// TestCloseWakesArmedWaiter: Close evicts a cell whose waiter armed its
// parker and parked, and wakes exactly that parker — the index packed in
// the word its CAS replaced. A parker lent to nobody's cell gets nothing.
func TestCloseWakesArmedWaiter(t *testing.T) {
	h := metrics.New()
	q := New[int](core.WaitConfig{Metrics: h, Spins: -1})
	res := make(chan core.Status, 1)
	go func() {
		_, st := q.TakeDeadline(time.Time{}, nil)
		res <- st
	}()
	c := q.head.Load().at(0)
	waitCond(t, func() bool { return parkerOf(c.Load()) != 0 })
	armed := parkerOf(c.Load()) - 1
	waitCond(t, func() bool { return h.Load(metrics.Parks) == 1 })
	idle, bystander := q.parkers.Lend()
	if idle == armed {
		t.Fatalf("the table lent the armed parker %d twice", armed)
	}
	q.Close()
	select {
	case st := <-res:
		if st != core.Closed {
			t.Fatalf("evicted Take = %v, want Closed", st)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Close did not wake the armed waiter")
	}
	if w := c.Load(); w != cClosed {
		t.Errorf("cell word %#x after Close, want CLOSED %#x", w, cClosed)
	}
	if n := h.Load(metrics.Unparks); n != 1 {
		t.Errorf("Unparks = %d, want 1: Close wakes the one armed parker", n)
	}
	if bystander.TryPark() {
		t.Error("Close delivered a permit to a parker no cell named")
	}
}

// TestLentParkerStorm races installs against resolutions with spinning
// disabled, so every waiter publishes its parker right after installing —
// the widest window for a resolver that looked for the parker before its
// CAS to miss one and strand the waiter. Untimed waits have no deadline to
// rescue them, so a lost wake-up wedges the round; the watchdog then fails
// with every goroutine's stack instead of hanging the run.
func TestLentParkerStorm(t *testing.T) {
	prev := runtime.GOMAXPROCS(8)
	defer runtime.GOMAXPROCS(prev)

	rounds, per := 500, 512
	if testing.Short() {
		rounds, per = 20, 200
	}
	const pairs, batch = 4, 8
	for round := 0; round < rounds; round++ {
		// Injected resolution-CAS failures are retries from a fresh
		// snapshot; querying the injector also lengthens the gap
		// between a resolver's look at the cell and its CAS.
		inj := fault.New(fault.Config{Seed: uint64(round), FailCASRate: 0.2, Sites: []fault.Site{fault.SegResolveCAS}})
		q := New[int64](core.WaitConfig{Spins: -1, Fault: inj})
		var wg sync.WaitGroup
		for p := 0; p < pairs; p++ {
			wg.Add(2)
			go func() {
				defer wg.Done()
				if p%2 == 0 {
					for k := 0; k < per; k++ {
						q.Put(int64(k))
					}
					return
				}
				// Batched sends resolve waiting takers from the run
				// sweep, the third resolver site.
				items := make([]int64, batch)
				for k := 0; k < per; k += batch {
					if n, st := q.PutBatch(items, time.Time{}, nil); n != batch || st != core.OK {
						panic("PutBatch fell short without a deadline")
					}
				}
			}()
			go func() {
				defer wg.Done()
				for k := 0; k < per; k++ {
					q.Take()
				}
			}()
		}
		done := make(chan struct{})
		go func() { wg.Wait(); close(done) }()
		select {
		case <-done:
		case <-time.After(20 * time.Second):
			buf := make([]byte, 1<<20)
			n := runtime.Stack(buf, true)
			t.Fatalf("round %d: hand-off wedged (lost wake-up)\n%s", round, buf[:n])
		}
	}
}
