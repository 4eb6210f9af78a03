// Package spin provides bounded busy-wait and backoff helpers used by the
// synchronous queue implementations.
//
// The paper's pragmatics section prescribes a spin-then-park waiting policy:
// on multiprocessors, a thread next in line for fulfillment spins briefly
// (about one quarter of a context-switch time) before parking, which handles
// near-simultaneous producer/consumer "flybys" without descheduling either
// thread. On a uniprocessor spinning is pure overhead, so the spin budget
// collapses to zero there.
package spin

import (
	"runtime"
	"sync/atomic"
	"time"
)

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

// TimedSpins returns the platform-appropriate spin budget for a timed wait:
// zero on a uniprocessor, MaxTimedSpins otherwise.
func TimedSpins() int {
	if !multicore {
		return 0
	}
	return MaxTimedSpins
}

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

// Backoff implements randomized-free exponential backoff for CAS retry
// loops. The zero value is ready to use.
type Backoff struct {
	n    int
	caps int // consecutive waits spent at the cap since the last reset
}

// backoffMaxShift caps the exponential ramp (a 1<<backoffMaxShift ns sleep);
// backoffCapResets is how many consecutive cap-level waits are tolerated
// before the ramp restarts from the beginning.
const (
	backoffMaxShift  = 8
	backoffCapResets = 4
)

// Wait backs off for a duration that doubles with each call, starting from a
// single yield and capping at a small sleep. It resets automatically after
// the cap is reached several times, which avoids unbounded punishment of an
// unlucky thread: after backoffCapResets consecutive cap-level sleeps the
// ramp restarts from a single yield, so a thread that was merely unlucky
// gets to probe cheaply again instead of sleeping at the cap forever.
func (b *Backoff) Wait() {
	if b.n < backoffMaxShift {
		b.n++
	} else {
		b.caps++
		if b.caps >= backoffCapResets {
			b.caps = 0
			b.n = 1 // restart the ramp at the initial yield
		}
	}
	if b.n <= 3 {
		runtime.Gosched()
		return
	}
	// 1<<4 .. 1<<8 iterations of yielding, then a timed sleep as a last
	// resort under pathological contention.
	if b.n < backoffMaxShift {
		for i := 0; i < 1<<b.n; i++ {
			runtime.Gosched()
		}
		return
	}
	time.Sleep(time.Duration(1<<b.n) * time.Nanosecond)
}

// Reset clears the backoff state after a successful operation.
func (b *Backoff) Reset() { b.n, b.caps = 0, 0 }

// Counter is a cache-padded event counter used by the benchmark harness and
// the stress tester to tally transfers without introducing false sharing
// between threads that would distort the measurements.
type Counter struct {
	_ [64]byte
	v atomic.Int64
	_ [64]byte
}

// Add increments the counter by delta.
func (c *Counter) Add(delta int64) { c.v.Add(delta) }

// Load returns the current value.
func (c *Counter) Load() int64 { return c.v.Load() }

// Store sets the counter to v.
func (c *Counter) Store(v int64) { c.v.Store(v) }
