package park

import (
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"synchq/internal/metrics"
	"synchq/internal/spin"
)

// fakeWait is an in-package Waiter over a plain outcome word, with hooks
// that let a single test goroutine resolve the wait at an exact point of
// the loop.
type fakeWait struct{ f *fake }

type fake struct {
	st      atomic.Uint32 // an Outcome
	p       Parker
	spinOK  bool
	onSpin  func(call int) // runs inside SpinOK; call counts from 1
	onAbort func()         // runs inside Abort, before its CAS
	calls   int
	arms    int
}

func (w fakeWait) Settled() Outcome { return Outcome(w.f.st.Load()) }

func (w fakeWait) Abort() bool {
	if w.f.onAbort != nil {
		w.f.onAbort()
	}
	return w.f.st.CompareAndSwap(uint32(Pending), uint32(Aborted))
}

func (w fakeWait) SpinOK() bool {
	w.f.calls++
	if w.f.onSpin != nil {
		w.f.onSpin(w.f.calls)
	}
	return w.f.spinOK
}

func (w fakeWait) Arm() *Parker {
	w.f.arms++
	return &w.f.p
}

// resolve settles the wait from outside, as a fulfiller or Close would.
func (f *fake) resolve(o Outcome) {
	if f.st.CompareAndSwap(uint32(Pending), uint32(o)) {
		f.p.Unpark()
	}
}

// resolveWhenParked settles the wait from another goroutine once the
// waiter is blocked in its parker.
func (f *fake) resolveWhenParked(o Outcome) {
	go func() {
		for f.p.state.Load() != pParked {
			runtime.Gosched()
		}
		f.resolve(o)
	}()
}

// TestAwaitOutcomes drives the shared wait loop through each way a wait can
// end, asserting the status, the loop's counters, one latency sample of
// each kind per wait, and that only a fulfillment feeds the calibrator.
func TestAwaitOutcomes(t *testing.T) {
	const pinned = 1 << 24 // large enough that a spinning wait never runs out
	type result struct {
		o     Outcome
		why   WaitResult
		h     *metrics.Handle
		f     *fake
		cal   *spin.Calibrator
		spins int
	}
	run := func(t *testing.T, spins int, spinOK bool, deadline time.Time, cancel <-chan struct{}, setup func(f *fake)) result {
		t.Helper()
		h := metrics.New()
		f := &fake{spinOK: spinOK}
		f.p.Init(h, nil)
		if setup != nil {
			setup(f)
		}
		cal := spin.NewCalibrator(spins)
		o, why := Await(fakeWait{f}, Policy{Cal: cal, M: h}, deadline, cancel, metrics.Nanos())
		// Exactly one spin-phase sample and one outcome sample per wait.
		hs := h.Histograms()
		if n := hs.Get(metrics.SpinNs).Count(); n != 1 {
			t.Errorf("spin-phase samples = %d, want 1", n)
		}
		if n := hs.Get(metrics.HandoffNs).Count() + hs.Get(metrics.WastedNs).Count(); n != 1 {
			t.Errorf("hand-off + wasted samples = %d, want 1", n)
		}
		if o == Fulfilled && hs.Get(metrics.HandoffNs).Count() != 1 {
			t.Error("a fulfilled wait was not recorded as a hand-off")
		}
		return result{o: o, why: why, h: h, f: f, cal: cal, spins: int(h.Load(metrics.Spins))}
	}
	// fedOnlyIfFulfilled checks that the adaptive calibrator learned from
	// the wait — which publishes its new budget on the spin-budget gauge —
	// exactly when the wait was fulfilled.
	fedOnlyIfFulfilled := func(t *testing.T, r result) {
		t.Helper()
		if !spin.Multicore() {
			return // the default calibrator is pinned at zero there
		}
		fed := r.h.Load(metrics.SpinBudget) != 0
		if fed != (r.o == Fulfilled) {
			t.Errorf("calibrator fed=%v after a wait that ended %v, want fed only on fulfillment", fed, r.o)
		}
		if fed && r.h.Load(metrics.SpinBudget) != int64(r.cal.Untimed()) {
			t.Errorf("spin-budget gauge = %d, want the calibrator's %d", r.h.Load(metrics.SpinBudget), r.cal.Untimed())
		}
	}

	t.Run("fulfilled-while-spinning", func(t *testing.T) {
		// SpinOK is consulted once for the budget and once per spin: the
		// fifth call lands in the fourth spin, which is the last.
		r := run(t, 0, true, time.Time{}, nil, func(f *fake) {
			f.onSpin = func(call int) {
				if call == 5 {
					f.resolve(Fulfilled)
				}
			}
		})
		if r.o != Fulfilled {
			t.Fatalf("outcome = %v, want Fulfilled", r.o)
		}
		if !spin.Multicore() {
			return // no budget, so the wait parked instead
		}
		if r.spins != 4 || r.f.arms != 0 || r.h.Load(metrics.Parks) != 0 {
			t.Errorf("spins=%d arms=%d parks=%d, want 4, 0, 0", r.spins, r.f.arms, r.h.Load(metrics.Parks))
		}
		fedOnlyIfFulfilled(t, r)
		if r.cal.Untimed() >= spin.MaxUntimedSpins {
			t.Errorf("budget %d after a wait fulfilled within 4 spins, want below the ceiling", r.cal.Untimed())
		}
	})

	t.Run("fulfilled-after-parking", func(t *testing.T) {
		r := run(t, 0, false, time.Time{}, nil, func(f *fake) { f.resolveWhenParked(Fulfilled) })
		if r.o != Fulfilled || r.spins != 0 || r.f.arms != 1 || r.h.Load(metrics.Parks) == 0 {
			t.Fatalf("outcome=%v spins=%d arms=%d parks=%d, want Fulfilled, 0, 1, >0",
				r.o, r.spins, r.f.arms, r.h.Load(metrics.Parks))
		}
		fedOnlyIfFulfilled(t, r)
	})

	t.Run("deadline-while-spinning", func(t *testing.T) {
		r := run(t, pinned, true, time.Now().Add(time.Millisecond), nil, nil)
		if r.o != Aborted || r.why != DeadlineExceeded {
			t.Fatalf("outcome = (%v, %v), want (Aborted, DeadlineExceeded)", r.o, r.why)
		}
		if r.f.arms != 0 || r.spins == 0 || r.spins >= pinned>>4 {
			t.Errorf("arms=%d spins=%d, want an unarmed wait that spun part of its %d budget", r.f.arms, r.spins, pinned>>4)
		}
		if r.h.Load(metrics.Timeouts) != 1 || r.h.Hist(metrics.WastedNs).Snapshot().Count() != 1 {
			t.Error("a timed-out wait must count one timeout and one wasted sample")
		}
	})

	t.Run("deadline-while-parked", func(t *testing.T) {
		r := run(t, 0, false, time.Now().Add(2*time.Millisecond), nil, nil)
		if r.o != Aborted || r.why != DeadlineExceeded || r.f.arms != 1 {
			t.Fatalf("outcome = (%v, %v), arms=%d; want (Aborted, DeadlineExceeded), 1", r.o, r.why, r.f.arms)
		}
		if r.h.Load(metrics.Timeouts) != 1 {
			t.Error("timeout not counted")
		}
		fedOnlyIfFulfilled(t, r)
	})

	t.Run("cancel-while-parked", func(t *testing.T) {
		cancel := make(chan struct{})
		r := run(t, 0, false, time.Time{}, cancel, func(f *fake) {
			go func() {
				for f.p.state.Load() != pParked {
					runtime.Gosched()
				}
				close(cancel)
			}()
		})
		if r.o != Aborted || r.why != Canceled {
			t.Fatalf("outcome = (%v, %v), want (Aborted, Canceled)", r.o, r.why)
		}
		if r.h.Load(metrics.Cancellations) != 1 || r.h.Load(metrics.Timeouts) != 0 {
			t.Error("a canceled wait must count one cancellation and no timeout")
		}
		fedOnlyIfFulfilled(t, r)
	})

	t.Run("evicted-by-close", func(t *testing.T) {
		r := run(t, 0, false, time.Time{}, nil, func(f *fake) { f.resolveWhenParked(Evicted) })
		if r.o != Evicted || r.h.Load(metrics.ClosedWakeups) != 1 {
			t.Fatalf("outcome = %v, closed wakeups = %d; want Evicted, 1", r.o, r.h.Load(metrics.ClosedWakeups))
		}
		if r.h.Hist(metrics.WastedNs).Snapshot().Count() != 1 {
			t.Error("an evicted wait is wasted time")
		}
		fedOnlyIfFulfilled(t, r)
	})

	t.Run("abort-loses-to-fulfiller", func(t *testing.T) {
		// The deadline has passed on arrival; a fulfiller lands just before
		// the abort CAS, which must then lose and leave the wait fulfilled.
		r := run(t, 0, false, time.Unix(0, 1), nil, func(f *fake) {
			f.onAbort = func() { f.resolve(Fulfilled) }
		})
		if r.o != Fulfilled {
			t.Fatalf("outcome = %v, want Fulfilled", r.o)
		}
		if r.h.Load(metrics.Timeouts) != 0 {
			t.Error("a wait fulfilled ahead of its abort counted a timeout")
		}
	})

	t.Run("negative-spins-park-at-once", func(t *testing.T) {
		r := run(t, -1, true, time.Time{}, nil, func(f *fake) { f.resolveWhenParked(Fulfilled) })
		if r.o != Fulfilled || r.spins != 0 || r.f.arms != 1 {
			t.Fatalf("outcome=%v spins=%d arms=%d, want Fulfilled, 0, 1", r.o, r.spins, r.f.arms)
		}
	})

	t.Run("spin-eligibility-lost", func(t *testing.T) {
		// SpinOK is re-checked on every spin: once it fails, the budget is
		// forfeit and the waiter parks.
		r := run(t, pinned, true, time.Time{}, nil, func(f *fake) {
			f.onSpin = func(call int) {
				if call == 3 {
					f.spinOK = false
					f.resolveWhenParked(Fulfilled)
				}
			}
		})
		if r.o != Fulfilled || r.spins != 1 || r.f.arms != 1 {
			t.Fatalf("outcome=%v spins=%d arms=%d, want Fulfilled, 1, 1", r.o, r.spins, r.f.arms)
		}
	})
}

// TestAwaitGraceOutlastsDeadline pins Policy.Grace: an expired deadline
// waits for the spin budget to run out before aborting.
func TestAwaitGraceOutlastsDeadline(t *testing.T) {
	for _, grace := range []bool{false, true} {
		h := metrics.New()
		f := &fake{spinOK: true}
		cal := spin.NewCalibrator(64) // timed budget 64>>4 = 4
		o, _ := Await(fakeWait{f}, Policy{Cal: cal, M: h, Grace: grace}, time.Unix(0, 1), nil, 0)
		want := int64(0)
		if grace {
			want = 4
		}
		if o != Aborted || h.Load(metrics.Spins) != want {
			t.Errorf("grace=%v: outcome=%v spins=%d, want Aborted after %d spins", grace, o, h.Load(metrics.Spins), want)
		}
	}
}
