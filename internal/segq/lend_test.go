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

// Regression tests for lent parkers: a cell carries no parker of its own,
// so a waiter borrows one when its spin phase ends and publishes its index
// in the cell's waiter word, and every resolver makes its terminal CAS
// before it loads that word (see park.Waiter.Arm). The parker table itself
// is tested in internal/park.

// armHook is a cell's wait with a hook run just before the wait publishes
// its parker — the window between a waiter's install and its Arm.
type armHook[T any] struct {
	cellWait[T]
	before func()
}

func (w armHook[T]) Arm(idx uint32) {
	w.before()
	w.cellWait.Arm(idx)
}

// TestResolveBeforeArm: a counterpart that resolves the cell after the
// waiter installed but before it published a parker finds no parker to
// unpark, and the waiter's re-check after Arm sees the resolution instead
// of blocking. Nothing is lost and nothing is unparked.
func TestResolveBeforeArm(t *testing.T) {
	h := metrics.New()
	q := New[int](core.WaitConfig{Metrics: h, Spins: -1})
	_, tk, ok := q.ReserveTake()
	if ok || tk == nil {
		t.Fatal("ReserveTake on an empty queue completed at once")
	}
	st := tk.(*Ticket[int])
	w := armHook[int]{cellWait: st.waiter(), before: func() { q.Put(7) }}
	if o, _ := park.Await(w, &park.Policy{Cal: q.pol.Cal, M: h, Parkers: &q.parkers, Grace: true}, &time.Time{}, nil, 0); o != park.Fulfilled {
		t.Fatalf("wait resolved %v, want Fulfilled", o)
	}
	if v := st.collect(); v != 7 {
		t.Fatalf("collected %d, want 7", v)
	}
	w1 := st.c.w.Load()
	if w1 == 0 {
		t.Fatal("the wait never published a parker")
	}
	p := q.parkers.At(w1 - 1)
	if n := h.Load(metrics.Unparks); n != 0 {
		t.Errorf("Unparks = %d: the resolver unparked a waiter that had not armed", n)
	}
	if p.TryPark() {
		t.Error("the lent parker holds a permit nobody delivered on purpose")
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
