package exchanger

import (
	"testing"
	"unsafe"
)

// TestXnodeLayout: a waiting party's node names its lent parker with a
// 32-bit index into the exchanger's parker table, which fits beside the
// isData flag, so the node is 24 bytes — the allocator's 24-byte size
// class, a quarter less heap per exchange than a pointer-sized waiter
// word's 32 — with the waiter word in its first 32 bytes.
func TestXnodeLayout(t *testing.T) {
	const cacheLine = 64
	var n xnode[int64]
	if got := unsafe.Sizeof(n); got != 24 {
		t.Fatalf("xnode[int64] size = %d, want exactly 24: the waiter index must share the flag's word", got)
	}
	if off := unsafe.Offsetof(n.waiter); off >= cacheLine/2 {
		t.Fatalf("xnode.waiter offset = %d, want it in the node's first %d bytes", off, cacheLine/2)
	}
}
