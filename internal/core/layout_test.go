package core

import (
	"testing"
	"unsafe"
)

// False-sharing audit: these assertions pin the memory layout the hot
// paths depend on. The allocator places objects at size-class intervals,
// so a node type whose size is a cache line, or half of one, never
// straddles a line shared with its neighbor; and a header whose contended
// words are a line apart never lets one side's CAS invalidate the other's.
// A field added without re-padding fails here instead of surfacing as an
// unexplained throughput regression.

const cacheLine = 64

// TestQnodeLayout: the queue node carries a reference to a lent parker,
// not a parker, so it is exactly half a line — two nodes fill one, none
// straddles one — with the waiter word in its first 32 bytes.
func TestQnodeLayout(t *testing.T) {
	var n qnode[int64]
	if got := unsafe.Sizeof(n); got != cacheLine/2 {
		t.Fatalf("qnode[int64] size = %d, want exactly %d: two nodes must fill one line", got, cacheLine/2)
	}
	if off := unsafe.Offsetof(n.waiter); off >= cacheLine/2 {
		t.Fatalf("qnode.waiter offset = %d, want it in the node's first %d bytes", off, cacheLine/2)
	}
}

// TestSnodeLayout: the stack node, with its embedded datum box, is padded
// to exactly one line, with the match and waiter words in its first 32
// bytes.
func TestSnodeLayout(t *testing.T) {
	var n snode[int64]
	if got := unsafe.Sizeof(n); got != cacheLine {
		t.Fatalf("snode[int64] size = %d, want exactly %d: one node per line", got, cacheLine)
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
