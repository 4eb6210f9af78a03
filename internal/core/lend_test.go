package core

import (
	"runtime"
	"sync"
	"testing"
	"time"

	"synchq/internal/fault"
	"synchq/internal/metrics"
	"synchq/internal/park"
)

// Regression tests for lent parkers on the dual structures: a node carries
// no parker of its own, so a waiter borrows one from the structure's
// parker table when its spin phase ends and publishes its index in the
// node's waiter word, and every resolver — fulfiller, helper, Close —
// makes its terminal CAS before it loads that word. The table itself is
// tested in internal/park.

// armHook is a node's wait with a hook run just before the wait publishes
// its parker — the window between a waiter's link and its Arm.
type armHook[W park.Waiter] struct {
	w      W
	before func()
}

func (h armHook[W]) Settled() park.Outcome { return h.w.Settled() }
func (h armHook[W]) Abort() bool           { return h.w.Abort() }
func (h armHook[W]) SpinOK() bool          { return h.w.SpinOK() }
func (h armHook[W]) Arm(idx uint32)        { h.before(); h.w.Arm(idx) }

// TestResolveBeforeArm: a producer that fulfills a linked take after the
// waiter linked but before it published a parker finds no parker to
// unpark, and the waiter's re-check after Arm sees the fulfillment
// instead of blocking. Nothing is lost, nothing is unparked, and the
// parker goes back to the table without a permit.
func TestResolveBeforeArm(t *testing.T) {
	check := func(t *testing.T, h *metrics.Handle, tb *park.Table, published uint32, o park.Outcome, v int) {
		t.Helper()
		if o != park.Fulfilled {
			t.Fatalf("wait resolved %v, want Fulfilled", o)
		}
		if v != 7 {
			t.Fatalf("collected %d, want 7", v)
		}
		if published == 0 {
			t.Fatal("the wait never published a parker")
		}
		if n := h.Load(metrics.Unparks); n != 0 {
			t.Errorf("Unparks = %d: the resolver unparked a waiter that had not armed", n)
		}
		if i, _ := tb.Lend(); i != published-1 {
			t.Error("the wait did not return its parker to the table")
		}
		if tb.At(published - 1).TryPark() {
			t.Error("the lent parker holds a permit nobody delivered on purpose")
		}
	}
	t.Run("queue", func(t *testing.T) {
		h := metrics.New()
		q := NewDualQueue[int](WaitConfig{Metrics: h, Spins: -1})
		_, tk, ok := q.ReserveTake()
		if ok {
			t.Fatal("ReserveTake on an empty queue completed at once")
		}
		qt := tk.(*QueueTicket[int])
		w := armHook[qwait]{w: qt.waiter(), before: func() { q.Put(7) }}
		o, _ := park.Await(w, park.Policy{Cal: q.cal, M: h, Parkers: &q.parkers}, time.Time{}, nil, 0)
		p := qt.node.parker() // before collect forgets it
		check(t, h, &q.parkers, p, o, q.collect(qt.node, qt.pred, qt.node.item.Load()))
	})
	t.Run("stack", func(t *testing.T) {
		h := metrics.New()
		q := NewDualStack[int](WaitConfig{Metrics: h, Spins: -1})
		_, tk, ok := q.ReserveTake()
		if ok {
			t.Fatal("ReserveTake on an empty stack completed at once")
		}
		st := tk.(*StackTicket[int])
		w := armHook[swait[int]]{w: st.waiter(), before: func() { q.Put(7) }}
		o, _ := park.Await(w, park.Policy{Cal: q.cal, M: h, Parkers: &q.parkers}, time.Time{}, nil, 0)
		p := st.node.waiter.Load() // before collect forgets it
		check(t, h, &q.parkers, p, o, st.collect())
	})
}

// TestLentParkerStorm races links against fulfillments with spinning
// disabled, so every waiter publishes its parker right after linking —
// the widest window for a resolver that looked for the parker before its
// CAS to miss one and strand the waiter. Untimed waits have no deadline to
// rescue them, so a lost wake-up wedges the round; the watchdog then fails
// with every goroutine's stack instead of hanging the run.
func TestLentParkerStorm(t *testing.T) {
	prev := runtime.GOMAXPROCS(8)
	defer runtime.GOMAXPROCS(prev)

	// A lost wake-up needs a resolver that loaded the waiter word before
	// its CAS to be descheduled in the few nanoseconds between the two,
	// so catching one takes many hand-offs: 800 rounds catch it in most
	// runs.
	rounds, per := 800, 512
	if testing.Short() {
		rounds, per = 20, 200
	}
	const pairs = 4
	type subject struct {
		name string
		site fault.Site
		mk   func(WaitConfig) Handoff[int64]
	}
	for _, c := range []subject{
		{"queue", fault.QFulfillCAS, func(cfg WaitConfig) Handoff[int64] { return NewDualQueue[int64](cfg) }},
		{"stack", fault.SFulfillCAS, func(cfg WaitConfig) Handoff[int64] { return NewDualStack[int64](cfg) }},
	} {
		t.Run(c.name, func(t *testing.T) {
			for round := 0; round < rounds; round++ {
				// Injected fulfill-CAS failures are retries from a fresh
				// snapshot; querying the injector also lengthens the gap
				// between a resolver's look at the node and its CAS.
				inj := fault.New(fault.Config{Seed: uint64(round), FailCASRate: 0.2, Sites: []fault.Site{c.site}})
				q := c.mk(WaitConfig{Spins: -1, Fault: inj})
				var wg sync.WaitGroup
				for p := 0; p < pairs; p++ {
					wg.Add(2)
					go func() {
						defer wg.Done()
						for k := 0; k < per; k++ {
							q.PutDeadline(int64(k), time.Time{}, nil)
						}
					}()
					go func() {
						defer wg.Done()
						for k := 0; k < per; k++ {
							q.TakeDeadline(time.Time{}, nil)
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
		})
	}
}
