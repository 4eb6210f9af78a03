package shard

import (
	"time"

	"synchq/internal/core"
	"synchq/internal/fault"
	"synchq/internal/metrics"
)

// Batched operations over the fabric route each burst home-first with
// spillover: one home draw and one summary load dispatch the whole batch,
// and the sweep drains each flagged shard until it refuses before moving to
// the next — so a k-item burst fans across shards without re-dispatching
// (re-drawing a home, re-loading the summary) per item. Only the items the
// burst sweep cannot pair fall back to the blocking single-item engines,
// which is unavoidable: a synchronous hand-off with no counterpart must
// wait, and each waiting item needs its own linked waiter.
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
		if st := f.putEngine(items[n], deadline, cancel, &ss); st != core.OK {
			return n, st
		}
		n++
	}
	return n, core.OK
}

// TakeBatch appends up to max values to buf: the first take waits under the
// deadline through the single-item engine, the fill burst-sweeps flagged
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
	var ss sweepStat
	defer f.observe(&ss)
	v, st := f.takeEngine(deadline, cancel, &ss)
	if st != core.OK {
		return buf, st
	}
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
// walk with the stale-bit clear/re-check/restore repair, except a shard
// that accepts keeps receiving items until it refuses — one summary load
// and one occupancy check amortized over however many consumers the shard
// holds. It returns the number of items delivered. Burst sweeps are never
// the commit protocol's critical reload, so the steal-race injection
// applies to every foreign probe.
func (f *Fabric[T]) sweepPutBurst(home int, items []T, t0 int64, ss *sweepStat) int {
	n := 0
	avail := f.cons.Load()
	for avail != 0 && n < len(items) {
		i := nearestBit(avail, home)
		avail &^= 1 << uint(i)
		if i != home {
			if f.skipProbe(i, &f.st[i].emptyCons) {
				continue
			}
			if f.f.FailCAS(fault.ShardStealCAS) {
				continue
			}
		}
		if f.shards[i].HasWaitingConsumer() {
			resetStreak(&f.st[i].emptyCons)
			for n < len(items) && f.probePut(i, items[n]) {
				if i != home {
					f.st[i].steals.Add(1)
					ss.stole = true
					f.m.Inc(metrics.ShardSteals)
					f.m.Since(metrics.StealNs, t0)
				}
				n++
			}
		} else {
			f.noteProbeEmpty(i, &f.st[i].emptyCons)
			clearBit(&f.cons, 1<<uint(i))
			if f.shards[i].HasWaitingConsumer() {
				resetStreak(&f.st[i].emptyCons)
				setBit(&f.cons, 1<<uint(i))
				avail |= 1 << uint(i)
			}
		}
	}
	return n
}

// sweepTakeBurst drains up to max values from flagged producer shards,
// home-first, polling each shard dry before moving on. It appends to *buf
// and returns the count taken.
func (f *Fabric[T]) sweepTakeBurst(home int, buf *[]T, max int, t0 int64, ss *sweepStat) int {
	n := 0
	avail := f.prod.Load()
	for avail != 0 && n < max {
		i := nearestBit(avail, home)
		avail &^= 1 << uint(i)
		if i != home {
			if f.skipProbe(i, &f.st[i].emptyProd) {
				continue
			}
			if f.f.FailCAS(fault.ShardStealCAS) {
				continue
			}
		}
		if f.shards[i].HasWaitingProducer() {
			resetStreak(&f.st[i].emptyProd)
			for n < max {
				v, ok := f.probeTake(i)
				if !ok {
					break
				}
				if i != home {
					f.st[i].steals.Add(1)
					ss.stole = true
					f.m.Inc(metrics.ShardSteals)
					f.m.Since(metrics.StealNs, t0)
				}
				*buf = append(*buf, v)
				n++
			}
		} else {
			f.noteProbeEmpty(i, &f.st[i].emptyProd)
			clearBit(&f.prod, 1<<uint(i))
			if f.shards[i].HasWaitingProducer() {
				resetStreak(&f.st[i].emptyProd)
				setBit(&f.prod, 1<<uint(i))
				avail |= 1 << uint(i)
			}
		}
	}
	return n
}
