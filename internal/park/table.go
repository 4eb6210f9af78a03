package park

import (
	"math/bits"
	"sync/atomic"

	"synchq/internal/fault"
	"synchq/internal/metrics"
)

const (
	// chunkLog0 sizes the first chunk: chunk k holds 1<<(chunkLog0+k)
	// parkers, so the table's capacity doubles with each chunk.
	chunkLog0 = 3
	// maxChunks bounds the directory; together the chunks hold about
	// 2^31 parkers, far more waiters than can ever be parked at once.
	maxChunks = 28
)

// chunk is a block of parkers; a table never moves or frees one.
type chunk []Parker

// Table is a hand-off structure's table of parkers, addressed by index.
// No waiting node or cell carries a parker of its own, only a 32-bit
// waiter word naming one (index+1; 0 names none) — as the paper's node
// references its waiting thread, whose permit lives with the thread.
// Await borrows a parker when a wait's spin phase ends, the Waiter
// publishes its index (Arm), and Await returns it when the wait is over;
// every resolver makes its terminal CAS before it loads the waiter word
// and only then unparks At(index), so either it finds the parker or the
// waiter, re-checking before it blocks, sees the resolution.
//
// Parkers live in chunks of doubling size, allocated on demand and never
// moved, so At needs no lock. Free indexes sit on a lock-free stack whose
// head carries an ABA tag. A parker is prepared with M and F (the
// structure's metrics handle and fault injector, set before the structure
// is shared) once, when its chunk is created, and is never freed or
// re-initialized. A returned index may therefore still get one late
// Unpark, from a resolver that loaded it just before the return: the
// stray permit costs the next borrower one spurious wake-up, which Await
// re-validates.
//
// A table issues a new index only when every issued one is lent, so it
// retains its peak number of concurrent borrowers: its chunks hold fewer
// than twice that many parkers plus the first chunk's eight.
type Table struct {
	M *metrics.Handle
	F *fault.Injector
	// Every parked wait writes the free stack's head twice, where the
	// fields an embedding structure places before the table are read on
	// every operation; the pad keeps those writes off their line.
	_ [64]byte
	// free is the free stack's head: an ABA tag in the high half, the top
	// index+1 in the low half (0: empty). A free parker's link holds the
	// index+1 of the one below it.
	free atomic.Uint64
	// issued counts the indexes ever handed out; index issued-1 is the
	// highest in use.
	issued atomic.Uint32
	// dir holds the chunks, allocated with the first chunk on the first
	// Lend so a structure that never parks pays for neither.
	dir atomic.Pointer[[maxChunks]atomic.Pointer[chunk]]
}

// locate maps an index to its chunk and its offset there.
func locate(idx uint32) (k, off uint64) {
	j := uint64(idx) + 1<<chunkLog0
	k = uint64(bits.Len64(j)) - 1 - chunkLog0
	return k, j - 1<<(k+chunkLog0)
}

// At returns the parker with index idx, which Lend has issued.
func (t *Table) At(idx uint32) *Parker {
	k, off := locate(idx)
	return &(*t.dir.Load()[k].Load())[off]
}

// Lend hands a waiter a parker and its index, preferring a free one.
func (t *Table) Lend() (uint32, *Parker) {
	for {
		h := t.free.Load()
		top := uint32(h)
		if top == 0 {
			break
		}
		p := t.At(top - 1)
		if t.free.CompareAndSwap(h, (h>>32+1)<<32|uint64(p.link.Load())) {
			return top - 1, p
		}
	}
	idx := t.issued.Add(1) - 1
	return idx, t.grow(idx)
}

// Return puts a lent index back on the free stack once its borrower's wait
// is over.
func (t *Table) Return(idx uint32) {
	p := t.At(idx)
	for {
		h := t.free.Load()
		p.link.Store(uint32(h))
		if t.free.CompareAndSwap(h, (h>>32+1)<<32|uint64(idx)+1) {
			return
		}
	}
}

// grow returns the parker for a newly issued index, creating the
// directory and the index's chunk if nobody has yet.
func (t *Table) grow(idx uint32) *Parker {
	k, off := locate(idx)
	if k >= maxChunks {
		panic("park: parker table full")
	}
	dir := t.dir.Load()
	if dir == nil {
		t.dir.CompareAndSwap(nil, new([maxChunks]atomic.Pointer[chunk]))
		dir = t.dir.Load()
	}
	c := dir[k].Load()
	if c == nil {
		fresh := make(chunk, 1<<(k+chunkLog0))
		for i := range fresh {
			fresh[i].m, fresh[i].f = t.M, t.F
		}
		dir[k].CompareAndSwap(nil, &fresh)
		c = dir[k].Load()
	}
	return &(*c)[off]
}

// Wake unparks the parker a waiter word names (its index+1), if any. A
// resolver loads the word only after its terminal CAS (see Table).
func (t *Table) Wake(w uint32) {
	if w != 0 {
		t.At(w - 1).Unpark()
	}
}
