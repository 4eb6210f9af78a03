package shard

// The self-scaling width controller. A fixed-width fabric makes the
// caller guess the contention level at construction; guessed too wide, a
// quiet structure pays the sweep-and-announce machinery across shards
// that never hold anyone (the committed scaling sweep shows ~25% over the
// plain core at one pair), guessed too narrow, the single hot shard is
// the very bottleneck the fabric exists to split. The controller makes
// the guess continuously instead: every completed operation reports how
// many probe races it lost and whether it completed as a cross-shard
// steal, the evidence feeds the shared spin.EWMA filter, and the
// effective width — the number of shards NEW arrivals route to — follows
// the smoothed contention level, growing immediately under pressure and
// collapsing one power-of-two step at a time when it lifts.
//
// Width is a routing hint, never a correctness boundary. Three facts make
// a width change safe with no handshake:
//
//   - home() consults the width only to place new arrivals; every sweep
//     and every Dekker reload scans the FULL 64-bit presence summaries,
//     so a waiter committed to a shard above the current width is exactly
//     as visible as one below it.
//   - presence bits are cleared only by probes that re-check occupancy
//     and restore the bit when a waiter is present, so deactivation
//     cannot strand a bit: nothing about a width change touches the
//     summaries' durability invariant.
//   - Close() closes every constructed shard regardless of width, so the
//     closed total order (no transfer completes after Closed() is
//     observed true) is width-independent.
//
// Deactivation is still an active protocol, not just a smaller mask: the
// controller publishes the narrower mask first (no new arrival routes to
// a retiring shard), then sweeps the retiring shards — re-asserting the
// presence bit of any shard still holding waiters and resetting its
// probe-skip streak — so every stranded-looking waiter is immediately
// flagged for the next sweep and drains through the ordinary Dekker
// commit path. The fault sites ShardGrowPause and ShardDrainPause freeze
// the two windows (decide-to-grow → wider mask visible, narrower mask
// visible → repair sweep done) so the chaos harness can hold them open.

import (
	"math/rand/v2"
	"sync/atomic"

	"synchq/internal/fault"
	"synchq/internal/metrics"
	"synchq/internal/spin"
)

const (
	// probeSkipAfter is the steal-weighting threshold: a shard observed
	// empty on this many consecutive probes is skipped by non-critical
	// sweeps (an announce or a successful probe resets the streak).
	probeSkipAfter = 8
	// probeReprobeEvery lets one in this many skipped probes through, so
	// a skip-listed shard whose reset was lost to a racy streak update is
	// re-sensed within a bounded number of sweeps.
	probeReprobeEvery = 16
	// ctlSigCap bounds one operation's lost-race contribution to the
	// contention EWMA so a single pathological operation cannot saturate
	// the signal (same role as the arena adaptor's cap).
	ctlSigCap = 8
	// ctlQuietMask samples uncontended completions 1-in-64 into the
	// controller: the quiet path pays a per-P random draw instead of a
	// shared-word RMW, which is what keeps the adaptive fabric within a
	// few percent of the plain core at one pair.
	ctlQuietMask = 63
	// ctlShrinkRuns is the hysteresis: this many consecutive
	// shrink-leaning evaluations before one halving step. A steal-heavy
	// signal (most completions are cross-shard rescues: the population is
	// spread too thin) bypasses the hysteresis and halves at once.
	ctlShrinkRuns = 4
	// ctlGrowRuns is the grow-side hysteresis: this many consecutive
	// grow-leaning evaluations before widening. Real contention sustains
	// the signal across back-to-back operations, so the delay it adds is
	// microseconds; a lone descheduling storm (one operation losing many
	// races to preemption, common when GOMAXPROCS exceeds the CPU count)
	// decays before the second vote and no longer flips the width.
	ctlGrowRuns = 2
)

// shardState is the per-shard controller state, one cache line per shard
// so probe bookkeeping on shard i never false-shares with shard j.
type shardState struct {
	// emptyProd / emptyCons count consecutive probes that found the shard
	// holding no waiting producer / consumer; at probeSkipAfter the
	// steal-weighted sweeps stop probing that side of the shard.
	emptyProd atomic.Int32
	emptyCons atomic.Int32
	// reprobe ticks the skipped probes so one in probeReprobeEvery goes
	// through anyway.
	reprobe atomic.Uint32
	_       uint32
	// depth gauges the demand-path operations inside the shard's commit
	// call: each found no counterpart in its sweep and is linking, running
	// the commit step, or waiting there. The engine brackets the call
	// itself rather than counting in the commit step, because a declined
	// step whose withdrawal loses to a fulfiller returns plain OK, and the
	// engine could not tell whether to undo a count the step had made.
	// Pinned Reserve tickets are owned by the caller past the fabric's
	// sight and are not gauged.
	depth atomic.Int64
	// steals counts hand-offs completed on this shard by an operation
	// homed elsewhere.
	steals atomic.Int64
	// misses counts probes of this shard that found a stale presence
	// hint; skips counts sweeps that passed over it un-probed.
	misses atomic.Int64
	skips  atomic.Int64
	_      [16]byte
}

// widthCtl is the fabric-level half of the controller, present only on
// self-scaling fabrics (nil ctl = fixed width, controller code fully
// skipped).
type widthCtl struct {
	_ [64]byte
	// contend smooths lost probe races per operation: the per-shard
	// CAS-failure-rate signal the width follows.
	contend spin.EWMA
	// stray smooths the completed-as-a-steal indicator: the steal-rate
	// signal that weights the shrink decision.
	stray spin.EWMA
	// shrink / grow count consecutive shrink-/grow-leaning evaluations
	// (two-sided hysteresis).
	shrink atomic.Uint32
	grow   atomic.Uint32
	// changes counts width transitions (mirrors metrics.FabricWidthChanges
	// so uninstrumented fabrics can still report it).
	changes atomic.Int64
	_       [32]byte
}

// sweepStat accumulates one operation's contention evidence across its
// sweeps and commit attempts; the wrappers hand it to observe once when
// the operation completes.
type sweepStat struct {
	fails int  // probe and Dekker races lost
	stole bool // completed on a non-home shard
}

// NewAuto returns a self-scaling fabric of up to max shards (0 or
// negative: DefaultShards; other values round up to a power of two,
// capped at 64). The fabric starts collapsed at effective width 1 and
// re-picks its width from observed contention; Shards() reports the
// current effective width, MaxShards the ceiling.
func NewAuto[T any](max int, mk func(i int) Dual[T]) *Fabric[T] {
	f := New(max, mk)
	f.ctl = &widthCtl{}
	f.wmask.Store(0)
	return f
}

// Adaptive reports whether the fabric re-picks its own width (NewAuto)
// rather than keeping the constructed count (New).
func (f *Fabric[T]) Adaptive() bool { return f.ctl != nil }

// WidthChanges returns the number of width transitions the controller has
// performed (always 0 on a fixed-width fabric).
func (f *Fabric[T]) WidthChanges() int64 {
	if f.ctl == nil {
		return 0
	}
	return f.ctl.changes.Load()
}

// observe folds one completed operation's evidence into the controller.
// Fixed-width fabrics return after one branch. Uncontended completions
// are sampled 1-in-64 through a per-P random draw so the quiet fast path
// shares no controller word; contended completions (which already paid
// for their races) always report and always evaluate.
func (f *Fabric[T]) observe(ss *sweepStat) {
	c := f.ctl
	if c == nil {
		return
	}
	if ss.fails == 0 && !ss.stole {
		if rand.Uint32()&ctlQuietMask != 0 {
			return
		}
		c.contend.Observe(0)
		c.stray.Observe(0)
		f.evalWidth()
		return
	}
	// Races lost by an operation that completed as a steal are evidence of
	// misrouting (the waiter population is spread thinner than the traffic),
	// not of parallelism demand: counting them toward contend would lock a
	// spuriously-grown fabric wide — at width 2 with one pair, every op is a
	// steal and loses probe races, so contend would never decay back below
	// one. Steal completions feed only stray, which accelerates collapse.
	n := uint64(ss.fails)
	if ss.stole {
		n = 0
	}
	if n > ctlSigCap {
		n = ctlSigCap
	}
	c.contend.Observe(n)
	if ss.stole {
		c.stray.Observe(1)
	} else {
		c.stray.Observe(0)
	}
	f.evalWidth()
}

// evalWidth compares the smoothed contention level against the current
// effective width: one more shard per unit of average lost races per
// operation (the arena adaptor's widening rule), rounded up to a power of
// two for the routing mask. Growth waits for ctlGrowRuns consecutive
// votes (sustained contention re-votes within microseconds; a lone
// preemption burst does not); shrinking waits out the longer hysteresis —
// unless most completions are steals, in which case the waiter population
// is spread too thin for even the hysteresis to be worth paying and the
// fabric halves at once (steal-weighted collapse).
func (f *Fabric[T]) evalWidth() {
	c := f.ctl
	cur := int(f.wmask.Load()) + 1
	desired := ceilPow2(1 + int(c.contend.Value()))
	if n := len(f.shards); desired > n {
		desired = n
	}
	switch {
	case desired > cur:
		c.shrink.Store(0)
		if c.grow.Add(1) >= ctlGrowRuns {
			c.grow.Store(0)
			f.setWidth(desired, cur)
		}
	case desired < cur:
		c.grow.Store(0)
		need := uint32(ctlShrinkRuns)
		if c.stray.Half() {
			need = 1
		}
		if c.shrink.Add(1) >= need {
			c.shrink.Store(0)
			f.setWidth(cur>>1, cur)
		}
	default:
		c.shrink.Store(0)
		c.grow.Store(0)
	}
}

// setWidth publishes a new effective width. Concurrent calls race
// benignly: the mask is a single word, the repair sweep is idempotent,
// and a stale transition is corrected by the next evaluation.
func (f *Fabric[T]) setWidth(to, from int) {
	if to < 1 || to > len(f.shards) || to == from {
		return
	}
	if to > from {
		// Activate window: between the decision and the wider mask
		// becoming visible, arrivals still pile onto the old shards.
		f.f.Preempt(fault.ShardGrowPause)
		f.wmask.Store(int32(to - 1))
	} else {
		// Drain window: narrow the routing mask first — from here on no
		// new arrival is homed on a retiring shard — then sweep the
		// retiring shards clean: any that still holds waiters gets its
		// presence bit re-asserted and its probe-skip streak cleared, so
		// the next sweep (or the counterpart's Dekker reload) finds it
		// and the waiters drain through the ordinary commit path.
		f.wmask.Store(int32(to - 1))
		f.f.Preempt(fault.ShardDrainPause)
		for i := to; i < from; i++ {
			st := &f.st[i]
			st.emptyProd.Store(0)
			st.emptyCons.Store(0)
			if f.shards[i].HasWaitingProducer() {
				setBit(&f.prod, 1<<uint(i))
			}
			if f.shards[i].HasWaitingConsumer() {
				setBit(&f.cons, 1<<uint(i))
			}
		}
	}
	f.ctl.changes.Add(1)
	f.m.Set(metrics.FabricWidth, int64(to))
	f.m.Inc(metrics.FabricWidthChanges)
}

// DriveWidth feeds one synthetic controller observation — a saturating
// contended sample or a quiet one — and forces an immediate width
// evaluation, bypassing the quiet-path sampling. It exists for harnesses
// and tests that must push the controller through grow → shrink → grow
// transitions deterministically (single-CPU hosts cannot provoke real
// contention on demand); the transitions themselves run the real
// protocol, including the grow/drain fault windows. No-op on a
// fixed-width fabric.
func (f *Fabric[T]) DriveWidth(contended bool) {
	c := f.ctl
	if c == nil {
		return
	}
	if contended {
		c.contend.Observe(ctlSigCap)
	} else {
		c.contend.Observe(0)
		c.stray.Observe(0)
	}
	f.evalWidth()
}

// skipProbe implements the steal-weighted sweep: a foreign shard observed
// empty on probeSkipAfter consecutive probes is passed over, except for
// the periodic re-probe. streak is the side-specific empty counter of the
// shard under consideration.
func (f *Fabric[T]) skipProbe(i int, streak *atomic.Int32) bool {
	if streak.Load() < probeSkipAfter {
		return false
	}
	if f.st[i].reprobe.Add(1)%probeReprobeEvery == 0 {
		return false
	}
	f.st[i].skips.Add(1)
	f.m.Inc(metrics.ShardProbeSkips)
	return true
}

// resetStreak clears an empty-probe streak, loading first so the common
// already-zero case (every probe of a busy shard) costs a read, not a
// read-modify-write.
func resetStreak(streak *atomic.Int32) {
	if streak.Load() != 0 {
		streak.Store(0)
	}
}

// noteProbeEmpty records a probe that found a flagged shard empty on the
// probed side.
func (f *Fabric[T]) noteProbeEmpty(i int, streak *atomic.Int32) {
	streak.Add(1)
	f.st[i].misses.Add(1)
	f.m.Inc(metrics.ShardProbeMisses)
}

// ShardStats is one shard's slice of Stats.
type ShardStats struct {
	Index  int   `json:"index"`
	Active bool  `json:"active"` // within the current effective width
	Depth  int64 `json:"depth"`
	Steals int64 `json:"steals"`
}

// Stats is a point-in-time snapshot of the fabric's introspection
// surface: the width pair, the controller's transition count, and the
// per-shard depth/steal breakdown. Field names are stable (snake_case
// JSON tags) in the same way the metrics counter names are.
type Stats struct {
	MaxShards    int          `json:"max_shards"`
	Width        int          `json:"width"`
	Adaptive     bool         `json:"adaptive"`
	WidthChanges int64        `json:"width_changes"`
	Steals       int64        `json:"steals"`
	ProbeMisses  int64        `json:"probe_misses"`
	ProbeSkips   int64        `json:"probe_skips"`
	Shards       []ShardStats `json:"shards"`
}

// Stats snapshots the fabric. Counters are read without mutual exclusion;
// the snapshot is consistent per word, like a metrics.Snapshot.
func (f *Fabric[T]) Stats() Stats {
	width := int(f.wmask.Load()) + 1
	s := Stats{
		MaxShards:    len(f.shards),
		Width:        width,
		Adaptive:     f.ctl != nil,
		WidthChanges: f.WidthChanges(),
		Shards:       make([]ShardStats, len(f.shards)),
	}
	for i := range f.st {
		st := &f.st[i]
		steals := st.steals.Load()
		s.Steals += steals
		s.ProbeMisses += st.misses.Load()
		s.ProbeSkips += st.skips.Load()
		s.Shards[i] = ShardStats{
			Index:  i,
			Active: i < width,
			Depth:  st.depth.Load(),
			Steals: steals,
		}
	}
	return s
}
