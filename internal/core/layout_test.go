package core

import (
	"testing"
	"unsafe"
)

// Layout audit: these assertions pin the memory layout the hot paths
// depend on. A node names its lent parker with a 32-bit index into the
// structure's parker table, which packs into the padding beside the
// node's flags, so each node is exactly one of the allocator's size
// classes (24 and 48 bytes) and a hand-off's heap bytes are the node
// sizes; the words a waiter and its resolver touch sit in the node's
// first 32 bytes. Neither size divides a line, so a node may straddle
// two; the nodes are written once by their resolver, not contended, so
// the bytes matter more. A header whose contended words are a line apart
// never lets one side's CAS invalidate the other's. A field added without
// re-packing fails here instead of surfacing as an unexplained
// allocation or throughput regression.

const cacheLine = 64

// TestQnodeLayout: the queue node's waiter word is a 32-bit parker index
// beside the isData and async flags, so the node is exactly 24 bytes —
// one allocation of the 24-byte class per fair hand-off — with the waiter
// word in its first 32 bytes.
func TestQnodeLayout(t *testing.T) {
	var n qnode[int64]
	if got := unsafe.Sizeof(n); got != 24 {
		t.Fatalf("qnode[int64] size = %d, want exactly 24: the waiter index must share the flags' word", got)
	}
	if off := unsafe.Offsetof(n.waiter); off >= cacheLine/2 {
		t.Fatalf("qnode.waiter offset = %d, want it in the node's first %d bytes", off, cacheLine/2)
	}
}

// TestSnodeLayout: the stack node, with its embedded datum box, keeps its
// 32-bit waiter index and its mode in one word, so it is exactly 48 bytes,
// with the match and waiter words in its first 32 bytes.
func TestSnodeLayout(t *testing.T) {
	var n snode[int64]
	if got := unsafe.Sizeof(n); got != 48 {
		t.Fatalf("snode[int64] size = %d, want exactly 48: the waiter index must share the mode's word", got)
	}
	if off := unsafe.Offsetof(n.match); off >= cacheLine/2 {
		t.Fatalf("snode.match offset = %d, want it in the node's first %d bytes", off, cacheLine/2)
	}
	if off := unsafe.Offsetof(n.waiter); off >= cacheLine/2 {
		t.Fatalf("snode.waiter offset = %d, want it in the node's first %d bytes", off, cacheLine/2)
	}
}

func TestDualQueueHeaderLayout(t *testing.T) {
	var q DualQueue[int64]
	head, tail, clean := unsafe.Offsetof(q.head), unsafe.Offsetof(q.tail), unsafe.Offsetof(q.cleanMe)
	if tail/cacheLine == head/cacheLine {
		t.Errorf("head (%d) and tail (%d) share a cache line: consumer dequeues would invalidate producer enqueues", head, tail)
	}
	if clean/cacheLine == tail/cacheLine || clean/cacheLine == head/cacheLine {
		t.Errorf("cleanMe (%d) shares a line with head (%d) or tail (%d): cancellation sweeps would thrash the transfer path", clean, head, tail)
	}
	// The read-mostly sentinels must not sit on any CASed line either.
	if s := unsafe.Offsetof(q.canceled); s/cacheLine == clean/cacheLine {
		t.Errorf("canceled sentinel (%d) shares a line with cleanMe (%d)", s, clean)
	}
}

func TestDualStackHeaderLayout(t *testing.T) {
	var s DualStack[int64]
	head, mark := unsafe.Offsetof(s.head), unsafe.Offsetof(s.closedMark)
	if mark/cacheLine == head/cacheLine {
		t.Errorf("closedMark (%d) shares a line with head (%d): every push CAS would invalidate the wait loops reading the sentinel", mark, head)
	}
}
