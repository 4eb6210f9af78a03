package shard

import (
	"time"

	"synchq/internal/core"
)

// Batched operations over the fabric route each burst home-first with
// spillover: one home draw and one summary load dispatch the whole batch,
// and the sweep drains each flagged shard until it refuses before moving to
// the next — so a k-item burst fans across shards without re-dispatching
// (re-drawing a home, re-loading the summary) per item. Only the items the
// burst sweep cannot pair fall back to the blocking single-item engines,
// which is unavoidable: a synchronous hand-off with no counterpart must
// wait, and each waiting item needs its own linked waiter. The controller
// observes each such item as the single-item operation it is, and the
// bursts as one operation.
//
// The fabric's ordering contract ("per-shard FIFO, globally none") extends
// to batches: items of one burst delivered to the same shard keep their
// slice order, items spilled across shards may pair in any order.

// PutBatch transfers items in order of dispatch, burst-sweeping flagged
// shards first and committing the remainder one waiter at a time. It
// returns the count delivered and OK when all of items transferred; on
// Timeout/Canceled/Closed the count is the partial fill.
func (f *Fabric[T]) PutBatch(items []T, deadline time.Time, cancel <-chan struct{}) (int, core.Status) {
	if len(items) == 0 {
		return 0, core.OK
	}
	if f.closedStatus() {
		return 0, core.Closed
	}
	var ss sweepStat
	defer f.observe(&ss)
	t0 := f.m.Start()
	home := f.home()
	n := 0
	for n < len(items) {
		n += f.sweepPutBurst(home, items[n:], t0, &ss)
		if n == len(items) {
			break
		}
		if st := f.PutDeadline(items[n], deadline, cancel); st != core.OK {
			return n, st
		}
		n++
	}
	return n, core.OK
}

// TakeBatch appends up to max values to buf: the first take waits under the
// deadline as a single-item TakeDeadline, the fill burst-sweeps flagged
// shards for producers already committed. See the core TakeBatch contract:
// OK on a normal end, Timeout/Canceled only when the first wait aborted
// empty-handed, Closed with already-taken values kept in buf.
func (f *Fabric[T]) TakeBatch(buf []T, max int, deadline time.Time, cancel <-chan struct{}) ([]T, core.Status) {
	if max <= 0 {
		return buf, core.OK
	}
	if f.closedStatus() {
		return buf, core.Closed
	}
	v, st := f.TakeDeadline(deadline, cancel)
	if st != core.OK {
		return buf, st
	}
	var ss sweepStat
	defer f.observe(&ss)
	buf = append(buf, v)
	taken := 1
	t0 := f.m.Start()
	home := f.home()
	for taken < max {
		got := f.sweepTakeBurst(home, &buf, max-taken, t0, &ss)
		taken += got
		if got == 0 {
			break
		}
	}
	return buf, core.OK
}

// sweepPutBurst is sweepPut's batched form: the same home-first flagged
// walk, except a shard that accepts keeps receiving items until it refuses
// — one summary load and one occupancy check amortized over however many
// consumers the shard holds. It returns the number of items delivered.
// Burst sweeps are never the commit protocol's critical reload, so the
// steal-race injection applies to every foreign probe.
func (f *Fabric[T]) sweepPutBurst(home int, items []T, t0 int64, ss *sweepStat) int {
	n := 0
	c := f.sweep(home, false, false)
	for n < len(items) {
		i := f.next(&c)
		if i < 0 {
			break
		}
		for n < len(items) && f.probePut(i, items[n]) {
			f.stole(i, home, t0, ss)
			n++
		}
	}
	return n
}

// sweepTakeBurst drains up to max values from flagged producer shards,
// home-first, polling each shard dry before moving on. It appends to *buf
// and returns the count taken.
func (f *Fabric[T]) sweepTakeBurst(home int, buf *[]T, max int, t0 int64, ss *sweepStat) int {
	n := 0
	c := f.sweep(home, false, true)
	for n < max {
		i := f.next(&c)
		if i < 0 {
			break
		}
		for n < max {
			v, ok := f.probeTake(i)
			if !ok {
				break
			}
			f.stole(i, home, t0, ss)
			*buf = append(*buf, v)
			n++
		}
	}
	return n
}
