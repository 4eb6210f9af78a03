package park

import (
	"sync/atomic"

	"synchq/internal/fault"
	"synchq/internal/metrics"
)

// lendCap bounds a Lender's free list. It only has to cover the waiters
// parked at once in steady state; a burst beyond it allocates fresh
// parkers and drops the surplus on return.
const lendCap = 8

// Lender is a hand-off structure's bounded free list of parkers. No
// waiting node or cell carries a parker of its own, only a waiter word —
// as the paper's node references its waiting thread, whose permit lives
// with the thread. Await borrows a parker when a wait's spin phase ends,
// the Waiter publishes it (Arm), and Await returns it when the wait is
// over; every resolver makes its terminal CAS before it loads the waiter
// word, so either it finds the parker or the waiter, re-checking before
// it blocks, sees the resolution.
//
// A returned parker may still get one late Unpark, from a resolver that
// loaded it just before the return. The stray permit costs the next
// borrower one spurious wake-up, which Await re-validates; so a parker is
// prepared with M and F (the structure's metrics handle and fault
// injector, set before the structure is shared) once, when created, and
// never re-initialized, which would race that Unpark.
type Lender struct {
	M *metrics.Handle
	F *fault.Injector
	// Every parked wait writes the free list twice — atomic slots, where
	// a channel would take its lock both times. The pad keeps those
	// writes off the line of the fields an embedding structure places
	// before the lender, which its operations read.
	_    [64]byte
	free [lendCap]atomic.Pointer[Parker]
}

// Lend hands a waiter a parker, preferring the free list.
func (l *Lender) Lend() *Parker {
	for i := range l.free {
		if p := l.free[i].Load(); p != nil && l.free[i].CompareAndSwap(p, nil) {
			return p
		}
	}
	return NewFaulty(l.M, l.F)
}

// Return puts a lent parker back on the free list once its borrower's wait
// is over, dropping it when the list is full.
func (l *Lender) Return(p *Parker) {
	for i := range l.free {
		if l.free[i].Load() == nil && l.free[i].CompareAndSwap(nil, p) {
			return
		}
	}
}
