// Package lend provides the index table every hand-off core lends from: a
// growable array of elements addressed by 32-bit index, with a lock-free
// free stack of indexes. It lets a node or cell name a per-structure
// resource in a 32-bit word instead of a pointer — the parkers of waiting
// goroutines (internal/park) and the dual queue's value boxes
// (internal/core) — as SCQ stores indexes into a data array instead of
// pointers.
package lend

import (
	"math/bits"
	"sync/atomic"
)

const (
	// chunkLog0 sizes the first chunk: chunk k holds 1<<(chunkLog0+k)
	// elements, so the table's capacity doubles with each chunk.
	chunkLog0 = 3
	// maxChunks bounds the directory; together the chunks hold 2^30-8
	// elements, far more than can ever be lent at once, and every
	// index+1 fits in 30 bits, leaving two bits of a 32-bit word for a
	// node's flags.
	maxChunks = 27
)

// MaxIndex is the largest index a table issues; it panics rather than
// issue another.
const MaxIndex = 1<<(chunkLog0+maxChunks) - 1<<chunkLog0 - 1

// chunk is a block of elements and their free-stack links; a table never
// moves or frees one.
type chunk[E any] struct {
	elem []E
	link []atomic.Uint32
}

// Table lends elements of type E by index. A borrower names its element
// with a 32-bit word holding index+1 (0 names none) and returns the index
// when it is done; anyone holding the word reaches the element with At.
//
// Elements live in chunks of doubling size, allocated on demand and never
// moved, so At needs no lock. Free indexes sit on a lock-free stack whose
// head carries an ABA tag; each element's stack link lives in a parallel
// array, so it costs the element no size. The table never frees or
// clears an element: a borrower gets it as the last one left it.
//
// A table issues a new index only when every issued one is lent, so it
// retains its peak number of concurrent borrowers: its chunks hold fewer
// than twice that many elements plus the first chunk's eight.
//
// The zero Table is empty and ready to use; a Table must not be copied
// after first use.
type Table[E any] struct {
	// Every loan and return writes the free stack's head, where the
	// fields an embedding structure places before the table are read on
	// every operation; the pad keeps those writes off their line.
	_ [64]byte
	// free is the free stack's head: an ABA tag in the high half, the top
	// index+1 in the low half (0: empty). A free element's link holds the
	// index+1 of the one below it.
	free atomic.Uint64
	// issued counts the indexes ever handed out; index issued-1 is the
	// highest in use.
	issued atomic.Uint32
	// first is chunk 0, allocated on the first Lend (or Reserve); dir holds
	// chunks 1 and up, allocated with chunk 1. A structure that never
	// lends pays for neither, and one that never has more than the first
	// chunk's eight elements lent at once pays for no directory.
	first atomic.Pointer[chunk[E]]
	dir   atomic.Pointer[[maxChunks - 1]atomic.Pointer[chunk[E]]]
}

// locate maps an index to its chunk and its offset there.
func locate(idx uint32) (k, off uint64) {
	j := uint64(idx) + 1<<chunkLog0
	k = uint64(bits.Len64(j)) - 1 - chunkLog0
	return k, j - 1<<(k+chunkLog0)
}

// slot returns the chunk holding idx, which Lend has issued, and the
// index's offset there.
func (t *Table[E]) slot(idx uint32) (*chunk[E], uint64) {
	k, off := locate(idx)
	return t.chunk(k).Load(), off
}

// chunk returns the pointer to chunk k, building the directory for k > 0
// if nobody has yet.
func (t *Table[E]) chunk(k uint64) *atomic.Pointer[chunk[E]] {
	if k == 0 {
		return &t.first
	}
	dir := t.dir.Load()
	if dir == nil {
		t.dir.CompareAndSwap(nil, new([maxChunks - 1]atomic.Pointer[chunk[E]]))
		dir = t.dir.Load()
	}
	return &dir[k-1]
}

// At returns the element with index idx, which Lend has issued. Its fast
// path, the first chunk's indexes, inlines: a resolver's wake-up runs at
// the bottom of a fresh goroutine's first call chain, on its small
// starting stack, and a table rarely lends more than eight at once.
func (t *Table[E]) At(idx uint32) *E {
	if idx < 1<<chunkLog0 {
		return &t.first.Load().elem[idx]
	}
	return t.at(idx)
}

// at is At past the first chunk.
func (t *Table[E]) at(idx uint32) *E {
	c, off := t.slot(idx)
	return &c.elem[off]
}

// Lend hands a borrower an element and its index, preferring a free one.
// fresh reports a newly issued index, whose element is the zero E.
func (t *Table[E]) Lend() (idx uint32, e *E, fresh bool) {
	for {
		h := t.free.Load()
		top := uint32(h)
		if top == 0 {
			break
		}
		c, off := t.slot(top - 1)
		if t.free.CompareAndSwap(h, (h>>32+1)<<32|uint64(c.link[off].Load())) {
			return top - 1, &c.elem[off], false
		}
	}
	idx = t.issued.Add(1) - 1
	return idx, t.grow(idx), true
}

// Reserve builds the first chunk now, if nobody has, so that the first
// Lend allocates nothing. A structure whose first loan sits
// at the bottom of a fresh goroutine's first call chain reserves when it
// is built: an allocation down there can outgrow the goroutine's starting
// stack and force a copy of it.
func (t *Table[E]) Reserve() { t.grow(0) }

// Return puts a lent index back on the free stack once its borrower is
// done with the element.
func (t *Table[E]) Return(idx uint32) {
	c, off := t.slot(idx)
	for {
		h := t.free.Load()
		c.link[off].Store(uint32(h))
		if t.free.CompareAndSwap(h, (h>>32+1)<<32|uint64(idx)+1) {
			return
		}
	}
}

// Issued returns the number of indexes the table has ever issued: its
// peak number of concurrent borrowers.
func (t *Table[E]) Issued() uint32 { return t.issued.Load() }

// Cap returns the number of elements the table's chunks hold.
func (t *Table[E]) Cap() int {
	n := 0
	if c := t.first.Load(); c != nil {
		n += len(c.elem)
	}
	if dir := t.dir.Load(); dir != nil {
		for k := range dir {
			if c := dir[k].Load(); c != nil {
				n += len(c.elem)
			}
		}
	}
	return n
}

// grow returns the element for a newly issued index, creating the
// index's chunk (and, past the first, the directory) if nobody has yet.
func (t *Table[E]) grow(idx uint32) *E {
	if idx > MaxIndex {
		panic("lend: table full")
	}
	k, off := locate(idx)
	p := t.chunk(k)
	c := p.Load()
	if c == nil {
		n := 1 << (k + chunkLog0)
		p.CompareAndSwap(nil, &chunk[E]{elem: make([]E, n), link: make([]atomic.Uint32, n)})
		c = p.Load()
	}
	return &c.elem[off]
}
