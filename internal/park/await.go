package park

import (
	"time"

	"synchq/internal/metrics"
	"synchq/internal/spin"
)

// Outcome is how a hand-off wait has resolved, as its Waiter reports it.
type Outcome uint8

const (
	// Pending means nobody has resolved the wait yet.
	Pending Outcome = iota
	// Fulfilled means a counterpart completed the hand-off.
	Fulfilled
	// Aborted means the waiter's own abort CAS won: the wait timed out or
	// was canceled.
	Aborted
	// Evicted means Close resolved the wait.
	Evicted
)

// Waiter is a hand-off core's view of one pending wait, as Await drives
// it. Implementations are small values holding pointers into the node or
// cell the wait already occupies on the heap: Await takes the waiter by
// value because a pointer to a stack-local waiter, passed through a
// type-parameter method call, escapes — one allocation per wait.
type Waiter interface {
	// Settled reports how the wait has resolved so far.
	Settled() Outcome
	// Abort resolves a still-pending wait as Aborted with the core's abort
	// CAS and reports whether it won; a loss means a fulfiller or Close
	// got there first.
	Abort() bool
	// SpinOK reports whether a counterpart is plausibly about to resolve
	// the wait — the paper's rule that only the waiter next in line spins.
	// It grants the spin budget and is re-checked on every spin.
	SpinOK() bool
	// Arm publishes idx, the index of the parker lent to the wait when its
	// spin phase ended, as idx+1 in the wait's waiter word (see Table). It
	// is called once.
	Arm(idx uint32)
}

// Policy is the structure-wide half of a wait. Each structure owns its
// policies and passes them by pointer: a pointer is one register, where
// the struct would push the wait's other arguments onto the stack of a
// call chain that a fresh goroutine runs on its small starting stack.
type Policy struct {
	// Cal sets the spin budget and learns from fulfilled waits.
	Cal *spin.Calibrator
	// M receives the wait's counters and latency samples; nil disables.
	M *metrics.Handle
	// Parkers lends the wait its parker when the spin phase ends and takes
	// it back when the wait is over.
	Parkers *Table
	// Grace lets an unspent spin budget outlast the deadline. The
	// segmented core sets it: its attempt-first arrival installs even a
	// zero-patience operation when a counterpart has committed to the same
	// cell, and the budget is that counterpart's bounded window to arrive.
	// The exchanger's outer-slot excursions use it the same way: they
	// arrive already expired and spin their budget before withdrawing.
	Grace bool
	// SpinPhaseOnly leaves the hand-off/wasted histograms to the caller,
	// whose operation spans more than this wait (the exchanger); Await then
	// records only the spin phase.
	SpinPhaseOnly bool
}

// Await is the spin-then-park wait of every hand-off core (§Pragmatics): a
// waiter next in line spins for its calibrated budget — about a quarter of
// a context switch — then borrows a parker from the policy's Table, arms
// it and blocks, watching its deadline (zero: none) and cancel channel
// (nil: none) throughout and aborting the wait when either fires. It
// returns how the wait resolved and, for an Aborted wait, why:
// DeadlineExceeded or Canceled.
//
// Await owns the wait's accounting: the Spins counter (batched into one
// Add on exit), the Timeouts, Cancellations and ClosedWakeups counters,
// and — when t0, the operation's arrival stamp from metrics.Handle.Start,
// is nonzero — the spin-phase and hand-off/wasted histograms, split from
// one clock read at exit. Only fulfilled waits feed the calibrator.
func Await[W Waiter](w W, p *Policy, deadline *time.Time, cancel <-chan struct{}, t0 int64) (Outcome, WaitResult) {
	spins := 0
	if w.SpinOK() {
		if deadline.IsZero() {
			spins = p.Cal.Untimed()
		} else {
			spins = p.Cal.Timed()
		}
	}
	var pk *Parker  // set when the spin phase ends
	var pi uint32   // pk's index in the table
	parked := false // entered at least one slow-path wait
	why := DeadlineExceeded
	spun := 0
	for i := 0; ; i++ {
		if o := w.Settled(); o != Pending {
			p.M.Add(metrics.Spins, int64(spun))
			if t0 != 0 {
				// One clock read serves both views of the wait: the spin
				// phase (all of it, if the parker was never armed) and the
				// operation's outcome.
				d := time.Duration(metrics.Nanos() - t0)
				if pk == nil {
					p.M.Record(metrics.SpinNs, d)
				}
				if !p.SpinPhaseOnly {
					if o == Fulfilled {
						p.M.Record(metrics.HandoffNs, d)
					} else {
						p.M.Record(metrics.WastedNs, d)
					}
				}
			}
			if pk != nil {
				p.Parkers.Return(pi) // a late Unpark is a stray permit (see Table)
			}
			switch {
			case o == Fulfilled:
				if b, ok := p.Cal.Observe(spun, parked); ok {
					p.M.Set(metrics.SpinBudget, int64(b))
				}
			case o == Evicted:
				p.M.Inc(metrics.ClosedWakeups)
			case why == Canceled:
				p.M.Inc(metrics.Cancellations)
			default:
				p.M.Inc(metrics.Timeouts)
			}
			return o, why
		}
		if !deadline.IsZero() && (spins <= 0 || !p.Grace) && !time.Now().Before(*deadline) {
			why = DeadlineExceeded
			w.Abort()
			continue // reload: the abort may have lost to a fulfiller
		}
		if cancel != nil {
			select {
			case <-cancel:
				why = Canceled
				w.Abort()
				continue
			default:
			}
		}
		if spins > 0 {
			// Spin only while still plausibly next in line; the budget
			// decays either way, so a preempted fulfiller cannot strand
			// us spinning.
			if w.SpinOK() {
				spins--
				spun++
				spin.Pause(i)
			} else {
				spins = 0
			}
			continue
		}
		if pk == nil {
			p.M.Since(metrics.SpinNs, t0) // budget spent: the busy phase ends here
			pi, pk = p.Parkers.Lend()
			w.Arm(pi)
			continue // re-check before the first park
		}
		parked = true
		// An untimed, uncancelable wait blocks in a plain receive, as
		// Parker.block does, but from this frame: select's runtime frames
		// are ~300 B deeper, block's own frame would cost the fair queue's
		// first parked Take the stack it lacks, and a fresh goroutine's
		// first park runs on its small starting stack, where a deeper path
		// forces a stack copy into every set-up.
		if deadline.IsZero() && cancel == nil {
			if !pk.ready(true) {
				n, pt := pk.attach()
				for !pk.consume() {
					<-n.ch
				}
				pk.detach(n, pt, Unparked)
			}
		} else if r := pk.wait(deadline, cancel, true); r != Unparked {
			why = r
			w.Abort()
		}
	}
}
