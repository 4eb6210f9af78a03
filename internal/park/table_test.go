package park

import (
	"reflect"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
	"unsafe"

	"synchq/internal/fault"
	"synchq/internal/metrics"
	"synchq/internal/spin"
)

// Tests for the parker table shared by every hand-off core: a waiting node
// or cell carries only a 32-bit waiter word, so Await borrows a parker and
// its index from the structure's Table when the spin phase ends and
// returns the index when the wait is over. Each core's TestResolveBeforeArm
// and TestLentParkerStorm cover the resolver side of the hand-shake.

// TestTableReusesReturnedIndexes: a returned index is the next one lent,
// with the same parker, and a parker the table creates carries the
// structure's metrics handle and fault injector.
func TestTableReusesReturnedIndexes(t *testing.T) {
	h := metrics.New()
	inj := fault.New(fault.Config{Seed: 1})
	tb := Table{M: h, F: inj}
	i, p := tb.Lend()
	if p.m != h || p.f != inj {
		t.Fatal("a fresh parker does not carry the table's metrics and fault injector")
	}
	if j, q := tb.Lend(); j == i || q == p {
		t.Fatal("a lent index was lent again before its return")
	}
	tb.Return(i)
	if j, q := tb.Lend(); j != i || q != p {
		t.Fatalf("lent (%d, %p) after returning (%d, %p): the returned index was not the next one lent", j, q, i, p)
	}
}

// TestTableRoundTripAcrossChunks: indexes are issued densely from 0, At
// maps each back to the parker Lend handed out with it across the
// boundaries of four doubling chunks, and the mapping survives a full
// return and re-lend.
func TestTableRoundTripAcrossChunks(t *testing.T) {
	h := metrics.New()
	tb := Table{M: h}
	const n = 8 + 16 + 32 + 64 + 1 // the first index of the fifth chunk
	lent := make([]*Parker, n)
	seen := make(map[*Parker]bool, n)
	for want := uint32(0); want < n; want++ {
		i, p := tb.Lend()
		if i != want {
			t.Fatalf("lend %d issued index %d", want, i)
		}
		if seen[p] {
			t.Fatalf("index %d maps onto a parker an earlier index has", i)
		}
		if p.m != h {
			t.Fatalf("index %d's parker does not carry the table's metrics handle", i)
		}
		seen[p] = true
		lent[i] = p
	}
	if got, want := tb.t.Cap(), 8+16+32+64+128; got != want {
		t.Fatalf("table holds %d parkers after issuing %d indexes, want the first five chunks' %d", got, n, want)
	}
	for i, p := range lent {
		if q := tb.At(uint32(i)); q != p {
			t.Fatalf("At(%d) = %p, want the parker lent with it, %p", i, q, p)
		}
	}
	for i := range lent {
		tb.Return(uint32(i))
	}
	for range lent {
		i, p := tb.Lend()
		if lent[i] != p || tb.At(i) != p {
			t.Fatalf("re-lent index %d does not map back to its parker", i)
		}
	}
	if got := tb.t.Issued(); got != n {
		t.Fatalf("issued %d indexes, want %d: re-lending issued new ones", got, n)
	}
}

// TestTableKeepsPeak: a table never drops a parker, and it issues a new
// index only when every issued one is lent, so after a burst it keeps
// exactly the burst's peak — a second burst as large is served entirely
// from the free stack, and one larger issues only the difference.
func TestTableKeepsPeak(t *testing.T) {
	var tb Table
	const peak = 20
	first := make(map[*Parker]bool, peak)
	idx := make([]uint32, 0, peak)
	for len(idx) < peak {
		i, p := tb.Lend()
		first[p] = true
		idx = append(idx, i)
	}
	for _, i := range idx {
		tb.Return(i)
	}
	for k := 0; k < peak; k++ {
		if _, p := tb.Lend(); !first[p] {
			t.Fatalf("lend %d of the second burst got a parker the first never issued", k)
		}
	}
	if got := tb.t.Issued(); got != peak {
		t.Fatalf("issued %d indexes after two bursts of %d, want %d", got, peak, peak)
	}
	if _, p := tb.Lend(); first[p] {
		t.Fatal("a lend beyond the peak got a parker that is still lent")
	}
	if got := tb.t.Issued(); got != peak+1 {
		t.Fatalf("issued %d indexes after a burst of %d, want %d", got, peak+1, peak+1)
	}
}

// TestTableLendReturnStorm lends and returns from eight goroutines at once
// (run it with -race): no index is ever lent to two borrowers at once, At
// agrees with Lend throughout, and the table never issues more indexes
// than the peak number of concurrent borrowers.
func TestTableLendReturnStorm(t *testing.T) {
	prev := runtime.GOMAXPROCS(8)
	defer runtime.GOMAXPROCS(prev)
	const goroutines = 8
	rounds := 20000
	if testing.Short() {
		rounds = 2000
	}
	var tb Table
	var owner [256]atomic.Int32 // borrower id+1 per index, 0 while free
	var borrowers, peak atomic.Int32
	var wg sync.WaitGroup
	for g := int32(1); g <= goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				n := borrowers.Add(1)
				for m := peak.Load(); n > m && !peak.CompareAndSwap(m, n); m = peak.Load() {
				}
				i, p := tb.Lend()
				if int(i) >= len(owner) {
					t.Errorf("index %d issued with at most %d borrowers", i, goroutines)
					return
				}
				if o := owner[i].Swap(g); o != 0 {
					t.Errorf("index %d lent to borrower %d while borrower %d holds it", i, g, o)
					return
				}
				if tb.At(i) != p {
					t.Errorf("At(%d) disagrees with the parker lent with it", i)
					return
				}
				if r%16 == 0 {
					runtime.Gosched()
				}
				owner[i].Store(0)
				tb.Return(i)
				borrowers.Add(-1)
			}
		}()
	}
	wg.Wait()
	if issued, pk := int32(tb.t.Issued()), peak.Load(); issued > pk {
		t.Fatalf("issued %d indexes with at most %d concurrent borrowers", issued, pk)
	}
}

// TestTableFreeStackIsolated: the free stack's head is written on every
// parked wait, while the fields an embedding structure places before the
// table are read on every operation; a full line of offset keeps them
// apart. Every structure embeds a table, so it stays within two lines,
// and its directory and chunks wait for the first Lend. The free-stack
// links live beside the parkers, not in them, so a parker stays 32 bytes.
func TestTableFreeStackIsolated(t *testing.T) {
	const cacheLine = 64
	var tb Table
	f, _ := reflect.TypeOf(&tb.t).Elem().FieldByName("free")
	if off := unsafe.Offsetof(tb.t) + f.Offset; off < cacheLine {
		t.Fatalf("Table.free offset = %d, want at least %d: its writes would share a line with the embedding structure's fields", off, cacheLine)
	}
	if got := unsafe.Sizeof(tb); got > 2*cacheLine {
		t.Fatalf("Table size = %d, want at most %d", got, 2*cacheLine)
	}
	if tb.t.Cap() != 0 {
		t.Fatal("a fresh table already holds parkers")
	}
	var p Parker
	if got := unsafe.Sizeof(p); got != 32 {
		t.Fatalf("Parker size = %d, want 32", got)
	}
}

// TestStrayPermitIsSpurious: a resolver that loaded a waiter word just
// before its waiter returned the index can unpark the parker after the
// index is lent again. The next borrower then wakes once for nothing and
// must re-validate: a timed wait nobody resolves still times out, and not
// before its deadline.
func TestStrayPermitIsSpurious(t *testing.T) {
	f := &fake{}
	i, p := f.l.Lend()
	f.l.Return(i)
	f.l.Wake(i + 1) // the late resolver's word names the returned index

	const patience = 20 * time.Millisecond
	start := time.Now()
	deadline := start.Add(patience)
	o, why := Await(fakeWait{f}, &Policy{Cal: spin.NewCalibrator(-1), Parkers: &f.l}, &deadline, nil, 0)
	if elapsed := time.Since(start); elapsed < patience {
		t.Errorf("timed wait returned after %v, before its %v deadline", elapsed, patience)
	}
	if o != Aborted || why != DeadlineExceeded {
		t.Fatalf("unresolved timed wait = (%v, %v), want (Aborted, DeadlineExceeded)", o, why)
	}
	if f.w.Load() != i+1 {
		t.Fatal("the wait was not lent the reissued index")
	}
	if j, _ := f.l.Lend(); j != i {
		t.Fatal("the wait did not return its index to the table")
	}
	if p.TryPark() {
		t.Error("the stray permit is still there: the wait never consumed it")
	}
}
