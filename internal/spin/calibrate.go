package spin

import "sync/atomic"

// Calibrator holds a structure's spin-before-park budget and adapts it to
// the observed fulfillment latency. The paper's target is "spin for about
// one quarter of a context switch": how many loop iterations that is
// depends on the machine, the load, and how promptly counterparts show up,
// so the calibrator learns it online between a floor and a ceiling.
//
// Each completed wait reports Observe(spun, parked):
//
//   - a wait fulfilled while still spinning suggests the budget has
//     headroom — a little more than the observed spin count would have
//     sufficed even if the counterpart had been slightly slower, so the
//     signal is 2×spun;
//   - a wait that had to park means spinning was not enough; the signal
//     pushes the budget toward the ceiling, since a budget that parks
//     anyway only pays the spin cost on top of the context switch.
//
// Signals feed the shared EWMA filter (α = 1/8, fixed-point; see EWMA)
// whose value, clamped to [floor, ceiling], becomes the untimed budget. The
// timed budget keeps a 1:16 ratio (timed waits re-check the clock each
// iteration, so their loop is an order of magnitude more expensive). A
// calibrator whose floor equals its ceiling is pinned and learns nothing.
//
// The EWMA's racy read-modify-write is fine here: the budget is a
// heuristic and every surviving update still moves it toward the recent
// signal mean.
type Calibrator struct {
	_      [64]byte // keep the hot words off neighbors' cache lines
	ewma   EWMA
	budget atomic.Uint32
	floor  uint32
	ceil   uint32
	_      [52]byte
}

// NewCalibrator returns the calibrator for a structure's one spin value:
//
//   - 0 adapts within [MaxTimedSpins, MaxUntimedSpins], starting at the
//     ceiling — or never spins on a uniprocessor, where no counterpart can
//     make progress while we busy-wait;
//   - a negative value never spins;
//   - n > 0 pins the untimed budget at n, and so the timed one at n>>4.
func NewCalibrator(spins int) *Calibrator {
	var floor, ceil uint32
	switch {
	case spins > 0:
		floor, ceil = uint32(spins), uint32(spins)
	case spins == 0 && multicore:
		floor, ceil = MaxTimedSpins, MaxUntimedSpins
	}
	c := &Calibrator{floor: floor, ceil: ceil}
	c.ewma.Init(uint64(ceil))
	c.budget.Store(ceil)
	return c
}

// Observe feeds one completed wait into the calibrator: spun is how many
// spin iterations the waiter used, parked whether it gave up spinning and
// blocked. Call only for waits that ended in fulfillment — timeouts and
// cancellations say nothing about how long fulfillment takes. It returns
// the new untimed budget, and false when the calibrator is pinned.
func (c *Calibrator) Observe(spun int, parked bool) (int, bool) {
	if c.floor == c.ceil {
		return int(c.ceil), false
	}
	signal := uint64(spun) * 2
	if parked || signal > uint64(c.ceil) {
		signal = uint64(c.ceil)
	}
	b := min(max(uint32(c.ewma.Observe(signal)), c.floor), c.ceil)
	c.budget.Store(b)
	return int(b), true
}

// Untimed returns the current spin budget for unbounded waits.
func (c *Calibrator) Untimed() int { return int(c.budget.Load()) }

// Timed returns the current spin budget for deadline waits: the untimed
// budget scaled by 1:16, i.e. within [MaxTimedSpins/16, MaxTimedSpins]
// over the adaptive range.
func (c *Calibrator) Timed() int { return int(c.budget.Load()) >> 4 }
