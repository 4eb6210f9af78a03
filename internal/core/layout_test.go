package core

import (
	"reflect"
	"testing"
	"unsafe"
)

// Layout audit: these assertions pin the memory layout the hot paths
// depend on. A queue node names its value box and its lent parker with
// two 32-bit indexes into the queue's box and parker tables, so it is 16
// bytes for every T — four to a cache line, never straddling one. A stack
// node keeps its 32-bit parker index and its mode in one word beside the
// datum, so for word-sized T it is 32 bytes. A hand-off's heap bytes are
// these node sizes. A header whose contended words are a line apart never
// lets one side's CAS invalidate the other's. A field added without
// re-packing fails here instead of surfacing as an unexplained
// allocation or throughput regression.

const cacheLine = 64

// TestQnodeLayout: the queue node holds a next pointer, an item word
// naming a value box by index and a waiter word naming a parker by index
// (with the mode flags in its top bits), so it is exactly 16 bytes
// whatever the element type — one allocation of the 16-byte class per
// fair hand-off.
func TestQnodeLayout(t *testing.T) {
	var small DualQueue[int64]
	var big DualQueue[[64]byte]
	for _, c := range []struct {
		name string
		size uintptr
	}{
		{"int64", unsafe.Sizeof(*small.head.Load())},
		{"[64]byte", unsafe.Sizeof(*big.head.Load())},
	} {
		if c.size != 16 {
			t.Errorf("DualQueue[%s] node size = %d, want exactly 16: the node must hold indexes, not the value or pointers to boxes", c.name, c.size)
		}
	}
}

// TestSnodeLayout: the stack node stores its datum inline and keeps its
// 32-bit waiter index and its mode in one word, so it is exactly 32 bytes
// for word-sized T, with the match and waiter words in its first 32 bytes.
func TestSnodeLayout(t *testing.T) {
	var n snode[int64]
	if got := unsafe.Sizeof(n); got != 32 {
		t.Fatalf("snode[int64] size = %d, want exactly 32: the datum must be inline and the waiter index must share the mode's word", got)
	}
	if off := unsafe.Offsetof(n.match); off >= cacheLine/2 {
		t.Fatalf("snode.match offset = %d, want it in the node's first %d bytes", off, cacheLine/2)
	}
	if off := unsafe.Offsetof(n.waiter); off >= cacheLine/2 {
		t.Fatalf("snode.waiter offset = %d, want it in the node's first %d bytes", off, cacheLine/2)
	}
}

// freeHead returns the offset, within a structure of type tab, of the
// free-stack head of the lend.Table reached through the named fields.
func freeHead(t *testing.T, tab reflect.Type, path ...string) (off uintptr) {
	t.Helper()
	for _, name := range append(path, "free") {
		f, ok := tab.FieldByName(name)
		if !ok {
			t.Fatalf("%v has no field %q", tab, name)
		}
		off += f.Offset
		tab = f.Type
	}
	return off
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
	// Every hand-off writes the box table's free head twice (a producer
	// lends a box, its taker returns it); the parker table's is written
	// on every parked wait.
	qt := reflect.TypeOf(&q).Elem()
	boxes := freeHead(t, qt, "boxes")
	parkers := freeHead(t, qt, "parkers", "t")
	for _, other := range []struct {
		name string
		off  uintptr
	}{{"head", head}, {"tail", tail}, {"cleanMe", clean}, {"the parker table's free head", parkers}} {
		if boxes/cacheLine == other.off/cacheLine {
			t.Errorf("the box table's free head (%d) shares a line with %s (%d)", boxes, other.name, other.off)
		}
	}
	if parkers/cacheLine == head/cacheLine || parkers/cacheLine == tail/cacheLine || parkers/cacheLine == clean/cacheLine {
		t.Errorf("the parker table's free head (%d) shares a line with head, tail or cleanMe", parkers)
	}
}

func TestDualStackHeaderLayout(t *testing.T) {
	var s DualStack[int64]
	head, mark := unsafe.Offsetof(s.head), unsafe.Offsetof(s.closedMark)
	if mark/cacheLine == head/cacheLine {
		t.Errorf("closedMark (%d) shares a line with head (%d): every push CAS would invalidate the wait loops reading the sentinel", mark, head)
	}
}
