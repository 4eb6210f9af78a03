package exchanger

import (
	"testing"
	"unsafe"
)

// TestXnodeLayout: a waiting party's node carries a reference to a lent
// parker, not a parker, so it is exactly half a cache line — two nodes
// fill one, none straddles one — with the waiter word in its first 32
// bytes.
func TestXnodeLayout(t *testing.T) {
	const cacheLine = 64
	var n xnode[int64]
	if got := unsafe.Sizeof(n); got != cacheLine/2 {
		t.Fatalf("xnode[int64] size = %d, want exactly %d: two nodes must fill one line", got, cacheLine/2)
	}
	if off := unsafe.Offsetof(n.waiter); off >= cacheLine/2 {
		t.Fatalf("xnode.waiter offset = %d, want it in the node's first %d bytes", off, cacheLine/2)
	}
}
