package segq

import (
	"testing"
	"unsafe"
)

// Whitebox layout audit for the segmented core. Cells are packed two to a
// cache line, so a segment is one small allocation; the remap in
// segment.at keeps adjacent claimants — who touch their cells at the same
// moment — on different lines, and the shared header must not share a
// line with the cells. These assertions check that layout rather than
// assume it; a field added without re-padding fails here, not in a
// benchmark regression.

const cacheLine = 64

func TestHalfLineCellsRemapped(t *testing.T) {
	var c cell[int64]
	if got := unsafe.Sizeof(c); got != cacheLine/2 {
		t.Fatalf("cell[int64] size = %d, want exactly %d: two cells must fill one line", got, cacheLine/2)
	}
	if off := unsafe.Offsetof(c.state); off != 0 {
		t.Fatalf("cell.state offset = %d, want 0", off)
	}
	s := new(segment[int64])
	if got := unsafe.Sizeof(*s); got != 576 {
		t.Fatalf("segment[int64] size = %d, want 576: one size class, 36 bytes per transfer", got)
	}
	line := func(i uint64) uintptr {
		return (uintptr(unsafe.Pointer(s.at(i))) - uintptr(unsafe.Pointer(s))) / cacheLine
	}
	seen := make(map[*cell[int64]]bool, SegSize)
	for j := uint64(0); j < SegSize; j++ {
		if seen[s.at(j)] {
			t.Fatalf("at(%d) maps onto a cell already used by a lower index", j)
		}
		seen[s.at(j)] = true
		if a, b := line(j), line(j+1); a == b {
			t.Errorf("at(%d) and at(%d) share cache line %d: neighboring claimants would false-share", j, j+1, a)
		}
	}
}

func TestSegmentHeaderIsolatedFromCells(t *testing.T) {
	var s segment[int64]
	if off := unsafe.Offsetof(s.cells); off%cacheLine != 0 {
		t.Fatalf("segment.cells offset = %d, want a multiple of %d so cell pairs fill whole lines", off, cacheLine)
	}
	if off := unsafe.Offsetof(s.cells); off < cacheLine {
		t.Fatalf("segment.cells offset = %d: header (next/prev/resolved, all CASed during unlink) shares a line with cells[0]", off)
	}
	want := unsafe.Offsetof(s.cells) + SegSize*unsafe.Sizeof(s.cells[0])
	if got := unsafe.Sizeof(s); got != want {
		t.Fatalf("segment size = %d, want %d (header padding + %d half-line cells)", got, want, SegSize)
	}
}

func TestQueueCountersOnDistinctLines(t *testing.T) {
	var q Queue[int64]
	offsets := map[string]uintptr{
		"putc":    unsafe.Offsetof(q.putc),
		"takec":   unsafe.Offsetof(q.takec),
		"putSeg":  unsafe.Offsetof(q.putSeg),
		"takeSeg": unsafe.Offsetof(q.takeSeg),
		"head":    unsafe.Offsetof(q.head),
	}
	lines := make(map[uintptr]string, len(offsets))
	for name, off := range offsets {
		line := off / cacheLine
		if prev, clash := lines[line]; clash {
			t.Errorf("%s (offset %d) shares cache line %d with %s: every F&A on one side would invalidate the other", name, off, line, prev)
		}
		lines[line] = name
	}
	// The parker free list is written on every parked wait; the fields
	// before it are read on every operation.
	if unsafe.Offsetof(q.parkers)/cacheLine <= unsafe.Offsetof(q.f)/cacheLine {
		t.Errorf("parkers (offset %d) shares a cache line with the read-mostly fields before it", unsafe.Offsetof(q.parkers))
	}
}
