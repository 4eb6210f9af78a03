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
	if deadline.IsZero() && cancel == nil {
		p.block(true)
		return Unparked
	}
	return p.wait(&deadline, cancel, true)
}

// wait is the slow path behind every timed or cancelable wait. faulty selects
// whether the injector's spurious-unpark and timer-skew sites apply (Park's
// exact contract opts out). The deadline travels by pointer, one word
// where time.Time is three, as in park.Await.
//
// The protocol: consume an available permit (ready); otherwise attach the
// parker's notifier (attach), publish the parked state (consume), and
// block on the notifier, in a select that also watches the timer and the
// cancel channel. An untimed, uncancelable wait runs the same protocol
// with a plain receive instead (block; Park, Wait(zero, nil) and
// park.Await take it), and keeps wait's frame out of its chain. The state
// word is the truth — a notifier token only means "re-examine the state
// word", so stale tokens (from a previous wait, or from an unparker racing
// the wait's end) cause one extra loop iteration, never a wrong result.
func (p *Parker) wait(deadline *time.Time, cancel <-chan struct{}, faulty bool) WaitResult {
	if p.ready(faulty) {
		return Unparked
	}

	var d time.Duration
	var due time.Time // when our own timer fires; earlier ticks are stale
	if !deadline.IsZero() {
		d0 := time.Until(*deadline)
		d = d0
		if faulty {
			d = p.f.SkewTimer(d)
		}
		if d <= 0 {
			return DeadlineExceeded
		}
		due = deadline.Add(d - d0)
	}

	n, t0 := p.attach()
	var timerC <-chan time.Time
	if d > 0 {
		if n.t == nil {
			n.t = time.NewTimer(d)
		} else {
			n.t.Reset(d)
		}
		defer func() {
			if !n.t.Stop() {
				select {
				case <-n.t.C:
				default:
				}
			}
		}()
		timerC = n.t.C
	}
	for !p.consume() {
		select {
		case <-n.ch:
			// Woken by a token; consume decides whether it was a real
			// permit delivery.
		case <-timerC:
			if now := time.Now(); now.Before(due) {
				// A stale tick: the timer's fire for an earlier wait can
				// land in its channel after that wait's Stop-and-drain
				// (the pre-1.23 timer channel semantics of a main module
				// below go 1.23), and Reset does not discard it. Re-arm
				// for the remainder and re-park; an unparker that wins
				// meanwhile leaves its permit for consume.
				n.t.Reset(due.Sub(now))
				continue
			}
			// Disarm. If the disarm loses, an unparker delivered a
			// permit concurrently with the timeout: keep it stored for
			// the owner's next wait (the same outcome the old
			// channel-based Parker had when the timer won the select).
			p.state.CompareAndSwap(pParked, pEmpty)
			return p.unblock(t0, DeadlineExceeded)
		case <-cancel:
			p.state.CompareAndSwap(pParked, pEmpty)
			return p.unblock(t0, Canceled)
		}
	}
	return p.unblock(t0, Unparked)
}

// block is the untimed, uncancelable wait: a plain receive on the
// notifier rather than a select, whose runtime frames are about 300 B
// deeper. park.Await runs the same five lines in its own frame (see
// there). With faulty set it keeps wait's contract: under fault injection
// it may return without a permit (a spurious wakeup), and the caller
// re-validates either way; with faulty clear it returns only once it
// consumed a permit.
func (p *Parker) block(faulty bool) {
	if p.ready(faulty) {
		return
	}
	n, t0 := p.attach()
	for !p.consume() {
		<-n.ch
	}
	p.unblock(t0, Unparked)
}

// ready reports whether a wait is over before it attaches: it consumes an
// available permit, or — with faulty set — fires the injector's spurious
// wakeup.
func (p *Parker) ready(faulty bool) bool {
	return p.state.CompareAndSwap(pPermit, pEmpty) || faulty && p.f.SpuriousWake()
}

// attach readies the parker's notifier for this wait, making it on the
// parker's first slow-path wait, counts the park and returns the blocked
// interval's start: everything before it was nonblocking permit
// negotiation, and unblock records the interval into the park-time
// histogram, re-parks after stale tokens included. A late Unpark of an
// earlier wait may have left a stray token; attach drains it so the wait
// does not wake at once for nothing (a token arriving after the drain is
// indistinguishable from a spurious unpark and equally harmless).
func (p *Parker) attach() (*notifier, int64) {
	n := p.n
	if n == nil {
		n = &notifier{ch: make(chan struct{}, 1)}
		p.n = n
	}
	select {
	case <-n.ch:
	default:
	}
	p.m.Inc(metrics.Parks)
	return n, p.m.Start()
}

// consume reports whether the owner holds the permit now, consuming it;
// otherwise it publishes the parked state, so the owner may block on its
// notifier. A token that brought no permit is stale: consume disarms back
// to empty and publishes parked again (a disarm lost to an unparker leaves
// the permit for the next pass).
func (p *Parker) consume() bool {
	for {
		if p.state.CompareAndSwap(pPermit, pEmpty) {
			return true
		}
		if p.state.CompareAndSwap(pEmpty, pParked) {
			return false
		}
		// Still parked after a wake-up: the token was stale. Disarm, and
		// publish parked again.
		p.state.CompareAndSwap(pParked, pEmpty)
	}
}

// unblock ends a slow-path wait with r. t0 is the blocked interval's
// start, recorded into the park-time histogram however the wait ended — a
// timed-out park was still time spent blocked.
func (p *Parker) unblock(t0 int64, r WaitResult) WaitResult {
	p.m.Since(metrics.ParkNs, t0)
	return r
}
