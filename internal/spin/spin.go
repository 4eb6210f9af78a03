// Package spin provides the spin budgets and the busy-wait step used by the
// synchronous queue implementations' spin-then-park waits.
//
// The paper's pragmatics section prescribes a spin-then-park waiting policy:
// on multiprocessors, a thread next in line for fulfillment spins briefly
// (about one quarter of a context-switch time) before parking, which handles
// near-simultaneous producer/consumer "flybys" without descheduling either
// thread. On a uniprocessor spinning is pure overhead, so the spin budget
// collapses to zero there.
package spin

import "runtime"

// multicore records whether more than one logical CPU is available to the
// scheduler. It is sampled once at startup; GOMAXPROCS changes at runtime are
// deliberately ignored, mirroring the paper's static platform check.
var multicore = runtime.GOMAXPROCS(0) > 1

// Multicore reports whether spinning can be productive on this host, i.e.
// whether a counterpart thread can make progress while we busy-wait.
func Multicore() bool { return multicore }

// Default spin budgets, chosen to approximate the paper's "one quarter of a
// typical context switch": a parked/unparked goroutine handoff costs on the
// order of a few microseconds, so a few hundred to a few thousand cheap loop
// iterations is the right order of magnitude.
const (
	// MaxTimedSpins is the spin budget before parking when a deadline is
	// set. Timed waits re-check the clock, so the budget is smaller.
	MaxTimedSpins = 32
	// MaxUntimedSpins is the spin budget before parking when waiting
	// indefinitely.
	MaxUntimedSpins = MaxTimedSpins * 16
)

// UntimedSpins returns the platform-appropriate spin budget for an untimed
// wait: zero on a uniprocessor, MaxUntimedSpins otherwise.
func UntimedSpins() int {
	if !multicore {
		return 0
	}
	return MaxUntimedSpins
}

// Pause performs one cheap spin iteration. It occasionally yields the
// processor so that, even under GOMAXPROCS=1, a spinning goroutine cannot
// starve the counterpart it is waiting for. The i argument is the caller's
// loop counter.
func Pause(i int) {
	if i&15 == 15 {
		runtime.Gosched()
	}
}
