package segq

import (
	"slices"
	"time"

	"synchq/internal/core"
	"synchq/internal/fault"
	"synchq/internal/metrics"
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

// pendingInstall records one cell this batch installed an ITEM into and
// has not yet seen resolved. A run installs at most SegSize of these, so
// putRun keeps them in a fixed array in its own stack frame — batch
// bookkeeping is local memory; only the cells themselves are shared.
type pendingInstall[T any] struct {
	s *segment[T]
	c *cell[T]
	i uint64
	// idx is the chunk position of the installed item, for the partial-fill
	// compaction (see putRun's return path).
	idx int
}

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
// subset is not always a slice prefix; putRun compacts the undelivered
// values back into the chunk's tail so the caller's retry ("resend
// items[n:]") stays exact anyway.
func (q *Queue[T]) PutBatch(items []T, deadline time.Time, cancel <-chan struct{}) (int, Status) {
	if len(items) == 0 {
		return 0, core.OK
	}
	if q.closed.Load() {
		return 0, core.Closed
	}
	delivered, off := 0, 0
	for off < len(items) {
		end := min(off+SegSize, len(items))
		d, consumed, st := q.putRun(items[off:end], deadline, cancel)
		delivered += d
		off += consumed
		if st != core.OK {
			return delivered, st
		}
		// st OK with consumed < len(chunk) means dead indexes (poisoned or
		// unlinked cells) swallowed part of the run; re-claim for the rest.
		// A fully dead run makes no progress and never reaches putRun's
		// per-cell deadline arm (there is no EMPTY cell to check at), so
		// the abort conditions must be re-checked here or an expired batch
		// would claim-and-skip fresh runs forever.
		if consumed == 0 {
			select {
			case <-cancel:
				return delivered, core.Canceled
			default:
			}
			if !deadline.IsZero() && !time.Now().Before(deadline) {
				return delivered, core.Timeout
			}
		}
	}
	return delivered, core.OK
}

// putRun reserves len(chunk) contiguous indexes with a single F&A and
// resolves them in ascending order. It returns the items delivered, the
// items consumed from chunk (delivered plus aborted installs), and the
// terminating status.
//
// The sweep is two-phase. Phase 1 walks the run without blocking: a cell
// with a waiting consumer is fulfilled immediately; an EMPTY cell gets
// this batch's next item installed (recorded as pending); BROKEN and
// unlinked cells are skipped. Phase 2 awaits the pending installs in index
// order — one wait phase for the whole run. If a wait aborts
// (deadline/cancel/close), the remaining pending installs are unwound with
// the installer's own ITEM→BROKEN abort arm, reclaiming their values; a
// pending cell a consumer resolved first stays delivered and is counted.
func (q *Queue[T]) putRun(chunk []T, deadline time.Time, cancel <-chan struct{}) (delivered, consumed int, st Status) {
	var zero T
	k := uint64(len(chunk))
	base := q.putc.Add(k) - k
	q.f.Preempt(fault.SegBatchPause)

	// Runs are capped at SegSize, so fixed arrays keep the bookkeeping on
	// the stack: pendBuf backs the run's pending installs, and done marks
	// which chunk positions were delivered, for the partial-fill
	// compaction below.
	var pendBuf [SegSize]pendingInstall[T]
	pending := pendBuf[:0]
	var done [SegSize]bool
	itemIdx := 0
	closedHit := false
	timedOut := false

sweep:
	for j := uint64(0); j < k && itemIdx < len(chunk); j++ {
		i := base + j
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
					closedHit = true
					break sweep
				}
				expired := !deadline.IsZero() && !time.Now().Before(deadline)
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
					timedOut = true
					break sweep
				}
				c.v = chunk[itemIdx]
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
						itemIdx++ // consumed but not delivered
						closedHit = true
						break sweep
					}
				}
				pending = append(pending, pendingInstall[T]{s: s, c: c, i: i, idx: itemIdx})
				itemIdx++
				break cell

			case cWaiter:
				// A consumer already waits at this index: deliver the
				// batch's next item on the spot.
				c.v = chunk[itemIdx]
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
				q.parkers.Wake(c.w.Load())
				delivered++
				done[itemIdx] = true
				itemIdx++
				break cell

			case cBroken:
				break cell // counterpart poisoned or aborted: dead index

			case cItem:
				panic("segq: producer cell claimed twice")
			case cDone:
				panic("segq: cell resolved twice")

			default: // cClosed: the close sweep evicted this index's waiter
				closedHit = true
				break sweep
			}
		}
	}

	// Phase 2: one wait phase for every install the run made. A run that
	// ended in the expired-poison arm is already over: its pendings go
	// straight to the unwind (a consumer that beat the unwind to one of
	// them still counts as a delivery).
	st = core.OK
	if timedOut {
		st = core.Timeout
	}
	for _, p := range pending {
		if st == core.OK {
			tk := Ticket[T]{q: q, s: p.s, c: p.c, i: p.i, installed: cItem, isPut: true}
			if _, st2 := tk.Await(deadline, cancel); st2 == core.OK {
				delivered++
				done[p.idx] = true
			} else {
				st = st2
			}
			continue
		}
		// Unwind: the batch is over, but this cell still advertises an
		// item. Only the installer may abort it; reclaim the value if the
		// abort wins, count the delivery if a consumer won first.
		if p.c.state.CompareAndSwap(cItem, cBroken) {
			q.resolveCell(p.s)
			p.c.v = zero
			if st == core.Canceled {
				q.m.Inc(metrics.Cancellations)
			} else {
				q.m.Inc(metrics.Timeouts)
			}
			continue
		}
		switch p.c.state.Load() {
		case cDone:
			delivered++
			done[p.idx] = true
		case cClosed:
			p.c.v = zero
			q.m.Inc(metrics.ClosedWakeups)
		}
	}
	if closedHit && st == core.OK {
		st = core.Closed
	}
	if delivered < itemIdx {
		// Partial fill: the delivered positions need not be a prefix (a
		// consumer can resolve a later pending install while an earlier one
		// aborts), but the caller's contract is "items[n:] is what did not
		// go through". Compact the undelivered values into the chunk's tail,
		// order preserved.
		var und [SegSize]T
		u := 0
		for j := 0; j < itemIdx; j++ {
			if !done[j] {
				und[u] = chunk[j]
				u++
			}
		}
		copy(chunk[delivered:itemIdx], und[:u])
	}
	return delivered, itemIdx, st
}

// TakeBatch appends up to max values to buf: the first take waits under
// the deadline through the single-item engine, then the fill claims
// already-committed producer runs with one F&A each and resolves them
// non-blocking. The status contract matches the other cores' TakeBatch:
// OK when the batch ended normally, Timeout/Canceled when the first wait
// aborted with nothing taken, Closed when the queue shut down (values
// already taken stay in buf).
//
// Once the first take succeeds, buf is grown once to hold that value plus
// the committed-producer surplus (capped at max-1) the fill will claim, so
// a nil buf costs one allocation rather than a doubling per item; only
// producers that commit during the fill can grow it again.
func (q *Queue[T]) TakeBatch(buf []T, max int, deadline time.Time, cancel <-chan struct{}) ([]T, Status) {
	if max <= 0 {
		return buf, core.OK
	}
	v, st := q.transfer(false, *new(T), deadline, cancel, nil)
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
	buf = slices.Grow(buf, 1+int(room))
	buf = append(buf, v)
	taken := 1
	for taken < max {
		n, st := q.takeRun(&buf, max-taken)
		taken += n
		if st == core.Closed {
			return buf, core.Closed
		}
		if n == 0 {
			break
		}
	}
	return buf, core.OK
}

// takeRun claims up to max already-committed producer indexes with one F&A
// and resolves each cell through arriveAt with an expired deadline —
// the per-cell semantics of a poll (attempt-first: an installed producer en
// route to a claimed cell still gets a bounded spin to arrive). The claim
// is bounded by the committed-producer surplus read just before the F&A,
// so a drain overshoots by at most the racing claims of that window, and
// capped at SegSize like the producer runs. It returns the values taken
// and Closed when the queue was observed shut down.
func (q *Queue[T]) takeRun(buf *[]T, max int) (int, Status) {
	if q.closed.Load() {
		return 0, core.Closed
	}
	avail := int64(q.putc.Load() - q.takec.Load())
	if avail <= 0 {
		return 0, core.OK
	}
	k := min(int64(max), avail, int64(SegSize))
	base := q.takec.Add(uint64(k)) - uint64(k)
	q.f.Preempt(fault.SegBatchPause)

	var zero T
	taken := 0
	for j := int64(0); j < k; j++ {
		i := base + uint64(j)
		s := q.findSeg(&q.takeSeg, i>>segShift)
		if s.id != i>>segShift {
			q.m.Inc(metrics.CleanSweeps)
			continue // unlinked: dead index
		}
		v, tk, st, ok := q.arriveAt(s, s.at(i), i, false, zero, core.Expired, 0, &q.putc)
		if !ok {
			continue // BROKEN on arrival: dead index
		}
		if tk.c != nil {
			v, st = tk.Await(core.Expired, nil)
		}
		switch st {
		case core.OK:
			*buf = append(*buf, v)
			taken++
		case core.Closed:
			return taken, core.Closed
		}
		// Timeout: the cell was poisoned (or our brief install aborted) —
		// a miss, not a batch failure.
	}
	return taken, core.OK
}
