package segq

import (
	"math/bits"
	"slices"
	"time"

	"synchq/internal/core"
	"synchq/internal/fault"
	"synchq/internal/metrics"
	"synchq/internal/park"
)

// This file is the segmented core's native batch layer: the multi-cell
// claim. Where the linked cores can only loop a batch through the
// single-arrival engine, the F&A counters make a k-item burst almost free:
// one counter.Add(k) reserves the contiguous cell run [base, base+k), and
// the claimant then resolves each cell of the run through the ordinary
// CQS-style state machine — no per-item claim, at most two segment lookups
// per sixteen cells, and (on the producer side) a single wait phase for
// the whole run instead of k spin-then-park episodes.
//
// A reserved run is a snapshot of a moving structure: while it is being
// resolved, counterpart claims land inside it, waiters abort, segments
// unlink, Close sweeps through. The resolution sweep therefore takes each
// cell as it finds it — WAITER cells are fulfilled on the spot, EMPTY
// cells are installed into (producer) or poisoned (expired taker), BROKEN
// and unlinked cells are dead indexes that consume no item — and the
// partial-fill unwind aborts the run's own still-pending installs when the
// batch's deadline or cancellation fires mid-run. Item order is preserved
// by construction: items are assigned to run indexes in ascending order,
// and consumers claim indexes in FIFO order, so in-batch FIFO holds even
// when dead cells punch holes in the run.
//
// Runs are capped at SegSize indexes so a reservation spans at most two
// segments: the claim window (fault.SegBatchPause) and the unwind are both
// bounded, and a batch that dies mid-run strands at most one segment's
// worth of poisoned cells for the unlinker to reap.

// PutBatch transfers items in order, claiming contiguous cell runs with
// one F&A per SegSize items. It returns the number of items actually
// delivered to consumers and OK when that is all of them; on
// Timeout/Canceled/Closed the count is the partial fill (items the unwind
// could not hand off were reclaimed and never leave a waiter behind).
//
// Partial-fill contract: after a non-OK return of (n, st), items[n:]
// holds exactly the undelivered items in their original relative order,
// and items[:n] is unspecified. A consumer can outrun the unwind at a
// later run index while an earlier install aborts, so the delivered
// subset is not always a slice prefix; compactTail moves the undelivered
// values back into each chunk's tail so the caller's retry ("resend
// items[n:]") stays exact anyway.
//
// PutBatch inlines into its interface wrapper, and putBatch passes the
// deadline down by pointer: a producer's first batch parks at the bottom of
// this chain, which a fresh goroutine runs on its small starting stack.
func (q *Queue[T]) PutBatch(items []T, deadline time.Time, cancel <-chan struct{}) (int, Status) {
	return q.putBatch(items, &deadline, cancel)
}

func (q *Queue[T]) putBatch(items []T, deadline *time.Time, cancel <-chan struct{}) (int, Status) {
	if len(items) == 0 {
		return 0, core.OK
	}
	if q.closed.Load() {
		return 0, core.Closed
	}
	var r run[T]
	delivered, off := 0, 0
	for off < len(items) {
		chunk := items[off:min(off+SegSize, len(items))]
		q.claimRun(&r, len(chunk))
		// Phase 1 (putRun) pauses after each waiting consumer it fulfills,
		// so the consumer is woken from this shallower frame.
		st := core.OK
		for more := true; more; {
			var w uint32
			w, st, more = q.putRun(&r, chunk, deadline)
			q.parkers.Wake(w)
		}
		consumed := int(r.n)
		// Phase 2: one wait phase for every install putRun made, each
		// pending cell waited on in index order with park.Await called
		// straight from here, as a reservation's Await would (a put's spins
		// are granted once a consumer has committed an index past the
		// cell). If a wait aborts (deadline/cancel/close), or the run
		// already ended in the expired-poison arm, the remaining pending
		// installs are unwound with the installer's own ITEM→BROKEN abort
		// arm, reclaiming their values; a pending cell a consumer resolved
		// first stays delivered and is counted. A run that met Close still
		// waits for the installs it made before.
		closedHit := st == core.Closed
		if closedHit {
			st = core.OK
		}
		for k := uint8(0); k < r.np; k++ {
			p := r.pend[k]
			c, s := r.cell(p)
			if st == core.OK {
				w := cellWait[T]{c: c, mode: waitMode(cItem, r.base+uint64(p>>segShift), q.takec.Load())}
				o, why := park.Await(w, &q.pol, deadline, cancel, 0)
				if o == park.Fulfilled {
					r.done |= 1 << (p & segMask)
					continue
				}
				if o == park.Aborted {
					q.resolveCell(s) // our own abort broke the cell
				}
				c.v = *new(T) // never delivered: reclaim it
				st = core.StatusOf(o, why)
				continue
			}
			if q.unwind(c, s, st) {
				r.done |= 1 << (p & segMask)
			}
		}
		if closedHit && st == core.OK {
			st = core.Closed
		}
		d := bits.OnesCount16(r.done)
		if d < consumed {
			compactTail(chunk[:consumed], r.done)
		}
		delivered += d
		off += consumed
		// st OK with consumed < len(chunk) means dead indexes (poisoned or
		// unlinked cells) swallowed part of the run; re-claim for the rest.
		// A fully dead run makes no progress and never reaches putRun's
		// per-cell deadline arm (there is no EMPTY cell to check at), so
		// the abort conditions must be re-checked here or an expired batch
		// would claim-and-skip fresh runs forever.
		if st == core.OK && consumed == 0 {
			st = aborted(deadline, cancel)
		}
		if st != core.OK {
			return delivered, st
		}
	}
	return delivered, core.OK
}

// aborted reports Canceled or Timeout when a batch's cancel channel has
// fired or its deadline passed, else OK. It is out of line so its select
// and clock read cost putBatch no frame.
//
//go:noinline
func aborted(deadline *time.Time, cancel <-chan struct{}) Status {
	select {
	case <-cancel:
		return core.Canceled
	default:
	}
	if !deadline.IsZero() && !time.Now().Before(*deadline) {
		return core.Timeout
	}
	return core.OK
}

// run is one claimed producer run's bookkeeping. Runs are capped at
// SegSize, so it packs into a few words of putBatch's frame — a first
// batch runs on a fresh goroutine's small starting stack: base is the
// run's first index; j is the next run offset phase 1 resolves, and n the
// chunk items it has consumed; pend lists the np pending installs, one
// byte each (the run offset in the high nibble, the item's chunk position
// in the low one); segs holds the segments the run spans (at most two,
// indexed by segment id less the first's); done marks the delivered chunk
// positions.
type run[T any] struct {
	base     uint64
	segs     [2]*segment[T]
	pend     [SegSize]uint8
	j, n, np uint8
	done     uint16
}

// The packing holds while a run offset and a chunk position each fit a
// nibble of a pend byte and done has a bit per cell: a larger SegSize
// fails to compile here instead of losing or repeating items.
const (
	_ uint8  = (SegSize-1)<<segShift | (SegSize - 1)
	_ uint16 = 1<<SegSize - 1
)

// cell returns the cell and segment of pending install p.
func (r *run[T]) cell(p uint8) (*cell[T], *segment[T]) {
	i := r.base + uint64(p>>segShift)
	s := r.segs[i>>segShift-r.base>>segShift]
	return s.at(i), s
}

// claimRun reserves k contiguous indexes for r with a single F&A.
func (q *Queue[T]) claimRun(r *run[T], k int) {
	r.base = q.putc.Add(uint64(k)) - uint64(k)
	r.j, r.n, r.np, r.done = 0, 0, 0, 0
	q.f.Preempt(fault.SegBatchPause)
}

// putRun resolves run r's cells in ascending order, placing chunk's items,
// without blocking — phase 1 of a run. A cell with a waiting consumer is
// fulfilled immediately; an EMPTY cell gets this batch's next item
// installed (recorded in r as pending); BROKEN and unlinked cells are
// skipped. putBatch then awaits the pending installs, phase 2. putRun
// returns after each consumer it fulfills, with more set and the
// consumer's waiter word w for the caller to wake; it resumes at r.j. It
// returns with more clear when the sweep is over: st is Timeout when the
// run ended in the expired-poison arm, Closed when it met Close, else OK.
func (q *Queue[T]) putRun(r *run[T], chunk []T, deadline *time.Time) (w uint32, st Status, more bool) {
	var zero T
	for ; int(r.j) < len(chunk); r.j++ {
		i := r.base + uint64(r.j)
		s := q.findSeg(&q.putSeg, i>>segShift)
		if s.id != i>>segShift {
			// The run strayed into unlinked territory: every cell up to s
			// is already terminal, so these indexes are dead. (No skipTo:
			// our own claim already advanced the counter past them.)
			q.m.Inc(metrics.CleanSweeps)
			continue
		}
		c := s.at(i)
	cell:
		for {
			switch c.state.Load() {
			case cEmpty:
				if q.closed.Load() {
					// No consumer can claim this index anymore; poison it
					// so a mid-flight counterpart retries and sees the
					// close, then stop placing items.
					if q.f.FailCAS(fault.SegInstallCAS) || !c.state.CompareAndSwap(cEmpty, cBroken) {
						q.m.Inc(metrics.CASFailEnqueue)
						continue
					}
					q.resolveCell(s)
					return 0, core.Closed, false
				}
				expired := !deadline.IsZero() && !time.Now().Before(*deadline)
				if expired && q.takec.Load() <= i {
					// Attempt-first poison, as in the single-item engine: no
					// consumer has committed an index that reaches this
					// cell, so an expired batch does not install here — and
					// no later index of the run can hold a waiter either
					// (consumers commit indexes in order), so the run is
					// over: poison this cell and report the timeout rather
					// than sweeping on, or a dead run would read as OK and
					// send the caller straight back into a fresh claim.
					if q.f.FailCAS(fault.SegInstallCAS) || !c.state.CompareAndSwap(cEmpty, cBroken) {
						q.m.Inc(metrics.CASFailEnqueue)
						continue
					}
					q.resolveCell(s)
					q.m.Inc(metrics.Timeouts)
					return 0, core.Timeout, false
				}
				c.v = chunk[r.n]
				q.f.Preempt(fault.SegCloseRacePause)
				if q.f.FailCAS(fault.SegInstallCAS) || !c.state.CompareAndSwap(cEmpty, cItem) {
					q.m.Inc(metrics.CASFailEnqueue)
					continue
				}
				if q.closed.Load() {
					// Close may have swept past before our install was
					// visible; only we can evict it now (the single-item
					// post-install re-check, per cell of the run).
					if c.state.CompareAndSwap(cItem, cClosed) {
						q.resolveCell(s)
						c.v = zero
						q.m.Inc(metrics.ClosedWakeups)
						r.n++ // consumed but not delivered
						return 0, core.Closed, false
					}
				}
				r.segs[i>>segShift-r.base>>segShift] = s
				r.pend[r.np] = r.j<<segShift | r.n
				r.np++
				r.n++
				break cell

			case cWaiter:
				// A consumer already waits at this index: deliver the
				// batch's next item on the spot.
				c.v = chunk[r.n]
				if q.f.FailCAS(fault.SegResolveCAS) || !c.state.CompareAndSwap(cWaiter, cDone) {
					q.m.Inc(metrics.CASFailFulfill)
					if st := c.state.Load(); st == cBroken || st == cClosed {
						c.v = zero
					}
					continue
				}
				q.resolveCell(s)
				q.m.Inc(metrics.Fulfillments)
				q.f.Preempt(fault.SegResolvePause)
				r.done |= 1 << r.n
				r.n++
				r.j++
				return c.w.Load(), core.OK, true

			case cBroken:
				break cell // counterpart poisoned or aborted: dead index

			case cItem:
				panic("segq: producer cell claimed twice")
			case cDone:
				panic("segq: cell resolved twice")

			default: // cClosed: the close sweep evicted this index's waiter
				return 0, core.Closed, false
			}
		}
	}
	return 0, core.OK, false
}

// unwind aborts pending install c of segment s once its batch is over
// with status st (the cell still advertises an item): only the installer
// may abort it, reclaiming the value if the abort wins. It reports whether
// a consumer won first, delivering the item.
func (q *Queue[T]) unwind(c *cell[T], s *segment[T], st Status) bool {
	if c.state.CompareAndSwap(cItem, cBroken) {
		q.resolveCell(s)
		c.v = *new(T)
		if st == core.Canceled {
			q.m.Inc(metrics.Cancellations)
		} else {
			q.m.Inc(metrics.Timeouts)
		}
		return false
	}
	switch c.state.Load() {
	case cDone:
		return true
	case cClosed:
		c.v = *new(T)
		q.m.Inc(metrics.ClosedWakeups)
	}
	return false
}

// compactTail moves the items of chunk whose positions done does not mark
// into chunk's tail, in their original order, so that with n positions
// marked, chunk[n:] holds exactly the undelivered items: the partial-fill
// contract's retry slice. The delivered positions need not be a prefix (a
// consumer can resolve a later pending install while an earlier one
// aborts). It works in place, back to front: an undelivered item only ever
// moves toward the tail, onto a position already read.
func compactTail[T any](chunk []T, done uint16) {
	w := len(chunk)
	for j := len(chunk) - 1; j >= 0; j-- {
		if done&(1<<j) == 0 {
			w--
			chunk[w] = chunk[j]
		}
	}
}

// TakeBatch appends up to max values to buf: the first take waits under
// the deadline through the single-item engine, then the fill claims
// already-committed producer runs with one F&A each (takeRun) and resolves
// them non-blocking. The status contract matches the other cores'
// TakeBatch: OK when the batch ended normally, Timeout/Canceled when the
// first wait aborted with nothing taken, Closed when the queue shut down
// (values already taken stay in buf).
//
// Once the first take succeeds, buf is grown once to hold that value plus
// the committed-producer surplus (capped at max-1) the fill will claim, so
// a nil buf costs one allocation rather than a doubling per item; only
// producers that commit during the fill can grow it again.
//
// A fresh goroutine's first batch runs on its small starting stack, so
// every cell resolves in this frame: the first take calls arrive itself
// rather than transfer, the fill's cells go straight to arrive, and the
// producers met are woken from here.
func (q *Queue[T]) TakeBatch(buf []T, max int, deadline time.Time, cancel <-chan struct{}) ([]T, Status) {
	return q.takeBatch(buf, max, &deadline, cancel)
}

func (q *Queue[T]) takeBatch(buf []T, max int, deadline *time.Time, cancel <-chan struct{}) ([]T, Status) {
	if max <= 0 {
		return buf, core.OK
	}
	tk := Ticket[T]{q: q}
	v, st, w := tk.arrive(*new(T), deadline, true)
	q.parkers.Wake(w)
	if tk.c != nil {
		v, st = tk.Await(*deadline, cancel)
	}
	if st != core.OK {
		return buf, st
	}
	room := int64(max - 1)
	if avail := int64(q.putc.Load() - q.takec.Load()); avail < room {
		room = avail
	}
	if room < 0 {
		room = 0
	}
	if buf == nil {
		buf = make([]T, 0, 1+room) // makeslice runs shallower than Grow's growslice
	} else {
		buf = slices.Grow(buf, 1+int(room))
	}
	return q.fill(append(buf, v), max-1, &tk)
}

// fill is the rest of a TakeBatch: it takes up to max more values from
// already-committed producers, arriving at each cell with tk, the first
// take's spent ticket.
func (q *Queue[T]) fill(buf []T, max int, tk *Ticket[T]) ([]T, Status) {
	for taken := 0; taken < max; {
		base, k, st := q.takeRun(max - taken)
		if st == core.Closed {
			return buf, core.Closed
		}
		// Each cell of the run resolves with an expired deadline: the
		// per-cell semantics of a poll (attempt-first: an installed
		// producer en route to a claimed cell still gets a bounded spin to
		// arrive).
		n := 0
		for i := base; i < base+k; i++ {
			s := q.findSeg(&q.takeSeg, i>>segShift)
			if s.id != i>>segShift {
				q.m.Inc(metrics.CleanSweeps)
				continue // unlinked: dead index
			}
			tk.s, tk.i, tk.t0 = s, i, 0
			v, st, w := tk.arrive(*new(T), &core.Expired, false)
			q.parkers.Wake(w)
			if tk.c != nil {
				v, st = tk.Await(core.Expired, nil)
			}
			switch st {
			case core.OK:
				buf = append(buf, v)
				n++
			case core.Closed:
				return buf, core.Closed
			}
			// Timeout: the cell was dead on arrival, we poisoned it, or our
			// brief install aborted — a miss, not a batch failure.
		}
		if n == 0 {
			break
		}
		taken += n
	}
	return buf, core.OK
}

// takeRun claims up to max already-committed producer indexes with one F&A
// and returns the run [base, base+k) for TakeBatch's fill to resolve; k is
// 0 when no producer has committed past the consumers. The claim is
// bounded by the committed-producer surplus read just before the F&A, so a
// drain overshoots by at most the racing claims of that window, and capped
// at SegSize like the producer runs. It returns Closed when the queue was
// observed shut down.
func (q *Queue[T]) takeRun(max int) (base, k uint64, st Status) {
	if q.closed.Load() {
		return 0, 0, core.Closed
	}
	avail := int64(q.putc.Load() - q.takec.Load())
	if avail <= 0 {
		return 0, 0, core.OK
	}
	k = uint64(min(int64(max), avail, int64(SegSize)))
	base = q.takec.Add(k) - k
	q.f.Preempt(fault.SegBatchPause)
	return base, k, core.OK
}
