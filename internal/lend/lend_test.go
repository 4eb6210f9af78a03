package lend

import (
	"testing"
	"unsafe"
)

// Tests for the index table itself. The parker table's tests
// (internal/park) cover its keep-the-peak rule and a concurrent
// lend/return storm, and the dual queue's box tests (internal/core) its
// retained bound and the borrowers' side of the hand-shake.

// TestTableRoundTripAcrossChunks: indexes are issued densely from 0 with
// fresh zero elements, At maps each index back to the element Lend handed
// out with it across the boundaries of four doubling chunks, a value
// stored through one survives a return and re-lend (the table never
// clears an element), and re-lending issues nothing new.
func TestTableRoundTripAcrossChunks(t *testing.T) {
	var tb Table[[3]uint64]
	const n = 8 + 16 + 32 + 64 + 1 // the first index of the fifth chunk
	lent := make([]*[3]uint64, n)
	for want := uint32(0); want < n; want++ {
		i, e, fresh := tb.Lend()
		if i != want || !fresh {
			t.Fatalf("lend %d issued index %d (fresh %v), want %d fresh", want, i, fresh, want)
		}
		if *e != ([3]uint64{}) {
			t.Fatalf("fresh element %d is not the zero value", i)
		}
		*e = [3]uint64{uint64(i), uint64(i) << 32, ^uint64(i)}
		lent[i] = e
	}
	for _, b := range []uint32{7, 8, 23, 24, 55, 56, 119, 120} {
		if k, _ := locate(b); tb.dir.Load()[k].Load() == nil {
			t.Fatalf("index %d: chunk %d was never created", b, k)
		}
	}
	if got, want := tb.Cap(), 8+16+32+64+128; got != want {
		t.Fatalf("Cap = %d after issuing %d indexes, want the first five chunks' %d", got, n, want)
	}
	for i, e := range lent {
		if tb.At(uint32(i)) != e || e[0] != uint64(i) || e[2] != ^uint64(i) {
			t.Fatalf("At(%d) does not map back to the element lent with it", i)
		}
	}
	for i := range lent {
		tb.Return(uint32(i))
	}
	for range lent {
		i, e, fresh := tb.Lend()
		if fresh || lent[i] != e || e[1] != uint64(i)<<32 {
			t.Fatalf("re-lent index %d does not map back to its element and value", i)
		}
	}
	if got := tb.Issued(); got != n {
		t.Fatalf("issued %d indexes, want %d: re-lending issued new ones", got, n)
	}
}

// TestTableIndexFitsThirtyBits: the last index the directory can hold
// maps into the last chunk, and every index+1 up to it leaves a 32-bit
// word's top two bits free for a node's flags.
func TestTableIndexFitsThirtyBits(t *testing.T) {
	if k, off := locate(MaxIndex); k != maxChunks-1 || off != 1<<(chunkLog0+maxChunks-1)-1 {
		t.Fatalf("locate(MaxIndex) = chunk %d offset %d, want the last slot of chunk %d", k, off, maxChunks-1)
	}
	if k, _ := locate(MaxIndex + 1); k != maxChunks {
		t.Fatalf("locate(MaxIndex+1) = chunk %d, want %d (past the directory)", k, maxChunks)
	}
	if MaxIndex+1 >= 1<<30 {
		t.Fatalf("MaxIndex+1 = %d does not fit in 30 bits", MaxIndex+1)
	}
}

// TestTableFreeStackIsolated: the free stack's head is written on every
// loan and return, while the fields an embedding structure places before
// the table are read on every operation; a full line of offset keeps them
// apart. The table stays within two lines, and its directory and chunks
// wait for the first Lend.
func TestTableFreeStackIsolated(t *testing.T) {
	const cacheLine = 64
	var tb Table[[64]byte]
	if off := unsafe.Offsetof(tb.free); off < cacheLine {
		t.Fatalf("Table.free offset = %d, want at least %d", off, cacheLine)
	}
	if got := unsafe.Sizeof(tb); got > 2*cacheLine {
		t.Fatalf("Table size = %d, want at most %d", got, 2*cacheLine)
	}
	if tb.dir.Load() != nil || tb.Cap() != 0 {
		t.Fatal("a fresh table already has a chunk directory")
	}
}
