package exchanger

import (
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"synchq/internal/fault"
	"synchq/internal/metrics"
	"synchq/internal/park"
	"synchq/internal/spin"
)

// Regression tests for lent parkers on the exchanger: a waiting party's
// node carries no parker of its own, so the party borrows one from the
// exchanger's parker table when its spin phase ends and publishes its
// index in the node's waiter word, and a partner makes its hole CAS before
// it loads that word. The table itself is tested in internal/park.

// armHook is a party's wait with a hook run just before the wait publishes
// its parker — the window between the party's slot claim and its Arm.
type armHook[T any] struct {
	xwait[T]
	before func()
}

func (w armHook[T]) Arm(idx uint32) {
	w.before()
	w.xwait.Arm(idx)
}

// TestResolveBeforeArm: a partner that fills a waiting party's hole after
// the party claimed the slot but before it published a parker finds no
// parker to unpark, and the party's re-check after Arm sees the exchange
// instead of blocking. Nothing is lost, nothing is unparked, and the
// parker goes back to the table without a permit.
func TestResolveBeforeArm(t *testing.T) {
	h := metrics.New()
	e := NewSize[int](1).SetMetrics(h)
	me := &xnode[int]{mine: 7, isData: true}
	e.arena[0].n.Store(me)
	got := make(chan int, 1)
	w := armHook[int]{xwait: xwait[int]{e: e, me: me}, before: func() { got <- e.Exchange(8) }}
	o, _ := park.Await(w, &park.Policy{Cal: spin.NewCalibrator(-1), M: h, Parkers: &e.parkers}, &time.Time{}, nil, 0)
	if o != park.Fulfilled {
		t.Fatalf("wait resolved %v, want Fulfilled", o)
	}
	if v, p := me.hole.Load().mine, <-got; v != 8 || p != 7 {
		t.Fatalf("exchanged (%d, %d), want (8, 7)", v, p)
	}
	w1 := me.waiter.Load()
	if w1 == 0 {
		t.Fatal("the wait never published a parker")
	}
	p := e.parkers.At(w1 - 1)
	if n := h.Load(metrics.Unparks); n != 0 {
		t.Errorf("Unparks = %d: the partner unparked a party that had not armed", n)
	}
	if i, q := e.parkers.Lend(); i != w1-1 || q != p {
		t.Error("the wait did not return its parker to the table")
	}
	if p.TryPark() {
		t.Error("the lent parker holds a permit nobody delivered on purpose")
	}
}

// TestLentParkerStorm races slot claims against exchanges with spinning
// disabled, so every party at the main slot publishes its parker right
// after claiming it — the widest window for a partner that looked for the
// parker before its hole CAS to miss one and strand the party. Untimed
// exchanges have no deadline to rescue them, so a lost wake-up wedges the
// round; the watchdog then fails with every goroutine's stack instead of
// hanging the run.
func TestLentParkerStorm(t *testing.T) {
	prev := runtime.GOMAXPROCS(8)
	defer runtime.GOMAXPROCS(prev)

	// A lost wake-up needs a partner that loaded the waiter word before
	// its CAS to be descheduled in the few nanoseconds between the two,
	// so catching one takes many hand-offs: 800 rounds catch it in most
	// runs.
	rounds, per := 800, 512
	if testing.Short() {
		rounds, per = 20, 200
	}
	const parties = 8
	for round := 0; round < rounds; round++ {
		// Injected claim failures are retries from a fresh look at the
		// slot, which also lengthens the gap between a partner's look at
		// the node and its hole CAS.
		inj := fault.New(fault.Config{Seed: uint64(round), FailCASRate: 0.2, Sites: []fault.Site{fault.XFulfillCAS}})
		e := New[int64]().SetFault(inj)
		e.wait.Cal = spin.NewCalibrator(-1)
		// Parties draw exchanges from one even pool rather than a fixed
		// count each, so no goroutine is left with exchanges but nobody
		// to meet.
		var left atomic.Int64
		left.Store(parties * int64(per))
		var wg sync.WaitGroup
		for p := 0; p < parties; p++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for k := left.Add(-1); k >= 0; k = left.Add(-1) {
					e.Exchange(k)
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
			t.Fatalf("round %d: exchange wedged (lost wake-up)\n%s", round, buf[:n])
		}
	}
}
