package segq

import (
	"testing"
	"unsafe"
)

// Whitebox layout audit for the segmented core. A cell is one 32-bit
// state word, and a segment keeps the words and the values in two arrays,
// so a segment is one small allocation; the remaps in segment.at and
// segment.val keep adjacent claimants — who touch their cells at the same
// moment — on different lines, and the shared header must not share a
// line with the cells. These assertions check that layout rather than
// assume it; a field added without re-padding fails here, not in a
// benchmark regression.

const cacheLine = 64

func TestQuarterLineCellsRemapped(t *testing.T) {
	s := new(segment[int64])
	if got := unsafe.Sizeof(s.states[0]); got != 4 {
		t.Fatalf("state word size = %d, want 4: one 32-bit word per cell", got)
	}
	if got := unsafe.Sizeof(*s); got != 832 {
		t.Fatalf("segment[int64] size = %d, want 832: with its 8-B malloc header the 896-B size class, 14 bytes per transfer", got)
	}
	// Sixteen state words share a line, four claims apart; eight values
	// share a line, eight claims apart.
	check := func(what string, addr func(uint64) unsafe.Pointer, apart uint64) {
		line := func(j uint64) uintptr { return (uintptr(addr(j)) - uintptr(unsafe.Pointer(s))) / cacheLine }
		seen := make(map[unsafe.Pointer]bool, SegSize)
		for j := uint64(0); j < SegSize; j++ {
			if seen[addr(j)] {
				t.Fatalf("%s(%d) maps onto a slot already used by a lower index", what, j)
			}
			seen[addr(j)] = true
			if a, b := line(j), line(j+1); a == b {
				t.Errorf("%s(%d) and %s(%d) share cache line %d: neighboring claimants would false-share", what, j, what, j+1, a)
			}
			if k := j % apart; line(j) != line(k) {
				t.Errorf("%s(%d) is on line %d, want %s(%d)'s line %d: the slots sharing a line are %d claims apart", what, j, line(j), what, k, line(k), apart)
			}
		}
	}
	check("at", func(i uint64) unsafe.Pointer { return unsafe.Pointer(s.at(i)) }, 4)
	check("val", func(i uint64) unsafe.Pointer { return unsafe.Pointer(s.val(i)) }, 8)
}

func TestSegmentHeaderIsolatedFromCells(t *testing.T) {
	var s segment[int64]
	states, vals := unsafe.Offsetof(s.states), unsafe.Offsetof(s.vals)
	if states != cacheLine {
		t.Fatalf("segment.states offset = %d, want %d: the header (next/prev/resolved, all CASed during unlink) fills one line and the state words start the next", states, cacheLine)
	}
	if want := states + SegSize*unsafe.Sizeof(s.states[0]); vals != want || vals%cacheLine != 0 {
		t.Fatalf("segment.vals offset = %d, want %d, a whole line past the state words", vals, want)
	}
	if want := vals + SegSize*unsafe.Sizeof(s.vals[0]); unsafe.Sizeof(s) != want {
		t.Fatalf("segment size = %d, want %d (header line, %d state words, %d values)", unsafe.Sizeof(s), want, SegSize, SegSize)
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
}
