package park

import (
	"time"

	"synchq/internal/metrics"
)

// WaitResult reports why a Wait call returned.
type WaitResult int

const (
	// Unparked means the permit was consumed.
	Unparked WaitResult = iota
	// DeadlineExceeded means the deadline passed first.
	DeadlineExceeded
	// Canceled means the cancel channel fired first.
	Canceled
)

// Wait blocks until the permit is available, the deadline passes, or the
// cancel channel fires, whichever comes first. A zero deadline means no
// deadline; a nil cancel channel never fires. Wait(zero, nil) is equivalent
// to Park.
//
// Under fault injection (a Table's F) Wait may also return Unparked without
// a permit (a spurious wakeup) or observe a skewed timer, so callers must
// re-validate their wait condition on every Unparked return — which the
// synchronous queue wait loops do anyway, since a real Unpark only signals
// "look again".
func (p *Parker) Wait(deadline time.Time, cancel <-chan struct{}) WaitResult {
	return p.wait(deadline, cancel, true)
}

// wait is the shared slow path behind every waiting method. faulty selects
// whether the injector's spurious-unpark and timer-skew sites apply (Park's
// exact contract opts out).
//
// The protocol: consume an available permit; otherwise attach a pooled
// notifier, publish the parked state, and block on notifier/timer/cancel.
// The state word is the truth — a notifier token only means "re-examine the
// state word", so stale tokens (from a previous wait, or from an unparker
// racing the detach) cause one extra loop iteration, never a wrong result.
func (p *Parker) wait(deadline time.Time, cancel <-chan struct{}, faulty bool) WaitResult {
	// Fast path: permit already available.
	if p.state.CompareAndSwap(pPermit, pEmpty) {
		return Unparked
	}

	if faulty && p.f.SpuriousWake() {
		return Unparked
	}

	var t *time.Timer
	var timerC <-chan time.Time
	var due time.Time // when our own timer fires; earlier ticks are stale
	if !deadline.IsZero() {
		d0 := time.Until(deadline)
		d := d0
		if faulty {
			d = p.f.SkewTimer(d)
		}
		if d <= 0 {
			return DeadlineExceeded
		}
		due = deadline.Add(d - d0)
		t = timerPool.Get().(*time.Timer)
		t.Reset(d)
		defer func() {
			if !t.Stop() {
				select {
				case <-t.C:
				default:
				}
			}
			timerPool.Put(t)
		}()
		timerC = t.C
	}

	// Attach a notifier for this wait. It may carry a stale token from a
	// previous life; drain it so we don't wake instantly for nothing (a
	// token arriving after the drain is indistinguishable from a spurious
	// unpark and equally harmless).
	n := sigPool.Get().(*notifier)
	select {
	case <-n.ch:
	default:
	}
	p.sig.Store(n)

	p.m.Inc(metrics.Parks)
	// The blocked interval starts here: everything before this point was
	// nonblocking permit negotiation. detach records the interval into the
	// park-time histogram, covering re-parks after stale tokens too.
	t0 := p.m.Start()
	for {
		if !p.state.CompareAndSwap(pEmpty, pParked) {
			// Not empty: a permit arrived between the fast path and
			// here (or a stale-token loop already disarmed us).
			if p.state.CompareAndSwap(pPermit, pEmpty) {
				return p.detach(n, t0, Unparked)
			}
			continue
		}
		select {
		case <-n.ch:
			// Woken by a token. The state word decides whether it was
			// a real permit delivery.
			if p.state.CompareAndSwap(pPermit, pEmpty) {
				return p.detach(n, t0, Unparked)
			}
			// Stale token: disarm back to empty and loop to re-park.
			// If the disarm loses, a real unparker just won and the
			// next iteration consumes the permit.
			p.state.CompareAndSwap(pParked, pEmpty)
		case <-timerC:
			if now := time.Now(); now.Before(due) {
				// A stale tick: a recycled timer's previous fire can land
				// in its channel after that owner's Stop-and-drain (the
				// pre-1.23 timer channel semantics this module runs
				// under), and Reset does not discard it. Re-arm for the
				// remainder, disarm, and re-park; a disarm lost to an
				// unparker is consumed as a permit on the next iteration.
				t.Reset(due.Sub(now))
				p.state.CompareAndSwap(pParked, pEmpty)
				continue
			}
			// Disarm. If the disarm loses, an unparker delivered a
			// permit concurrently with the timeout: keep it stored for
			// the owner's next wait (the same outcome the old
			// channel-based Parker had when the timer won the select).
			p.state.CompareAndSwap(pParked, pEmpty)
			return p.detach(n, t0, DeadlineExceeded)
		case <-cancel:
			p.state.CompareAndSwap(pParked, pEmpty)
			return p.detach(n, t0, Canceled)
		}
	}
}

// detach unhooks the notifier after a slow-path wait and recycles it. An
// unparker that already loaded the pointer may still send one token into
// the recycled notifier; the Get-side drain and the hint-only token
// contract make that benign. t0 is the blocked interval's start, recorded
// into the park-time histogram regardless of how the wait ended — a
// timed-out park was still time spent blocked.
func (p *Parker) detach(n *notifier, t0 int64, r WaitResult) WaitResult {
	p.m.Since(metrics.ParkNs, t0)
	p.sig.Store(nil)
	select {
	case <-n.ch:
	default:
	}
	sigPool.Put(n)
	return r
}
