package park

import (
	"synchq/internal/fault"
	"synchq/internal/lend"
	"synchq/internal/metrics"
)

// Table is a hand-off structure's table of parkers, addressed by index.
// No waiting node or cell carries a parker of its own, only a 32-bit
// waiter word naming one (index+1; 0 names none) — as the paper's node
// references its waiting thread, whose permit lives with the thread.
// Await borrows a parker when a wait's spin phase ends, the Waiter
// publishes its index (Arm), and Await returns it when the wait is over.
// Either the resolver finds the parker or the waiter, re-checking before
// it blocks, sees the resolution. Where the waiter word stands beside the
// state word (the dual queue, the dual stack, the exchanger), every
// resolver makes its terminal CAS before it loads the waiter word and only
// then unparks At(index). Where the index is packed into the state word
// itself (segq's cells), Arm is a CAS from the bare installed word and may
// lose to a resolution, and the resolver unparks the index held in the
// word its own CAS replaced.
//
// The parkers live in a lend.Table, the index table the dual queue's
// value boxes share: never-moved chunks of doubling size and a free stack
// with an ABA tag. A parker is prepared with M and F (the structure's
// metrics handle and fault injector, set before the structure is shared)
// when its index is first issued, and is never freed or re-initialized.
// A returned index may therefore still get one late Unpark, from a
// resolver that loaded it just before the return: the stray permit costs
// the next borrower one spurious wake-up, which Await re-validates.
//
// A table issues a new index only when every issued one is lent, so it
// retains its peak number of concurrent borrowers: its chunks hold fewer
// than twice that many parkers plus the first chunk's eight.
type Table struct {
	M *metrics.Handle
	F *fault.Injector
	t lend.Table[Parker]
}

// At returns the parker with index idx, which Lend has issued.
func (t *Table) At(idx uint32) *Parker { return t.t.At(idx) }

// Lend hands a waiter a parker and its index, preferring a free one.
func (t *Table) Lend() (uint32, *Parker) {
	idx, p, fresh := t.t.Lend()
	if fresh {
		p.m, p.f = t.M, t.F
	}
	return idx, p
}

// Reserve builds the table's first chunk and its first parker's notifier
// now, before the structure is shared, so that neither the first Lend nor
// that parker's first park allocates (see lend.Table.Reserve).
func (t *Table) Reserve() { t.t.Reserve().n = &notifier{ch: make(chan struct{}, 1)} }

// Return puts a lent index back on the free stack once its borrower's wait
// is over.
func (t *Table) Return(idx uint32) { t.t.Return(idx) }

// Wake unparks the parker a waiter word names (its index+1), if any. A
// resolver reads the word no earlier than its terminal CAS: in the very
// word that CAS replaced, or by a load after it (see Table).
func (t *Table) Wake(w uint32) {
	if w != 0 {
		t.At(w - 1).Unpark()
	}
}
