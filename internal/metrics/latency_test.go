package metrics

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestBucketIndexBoundaries(t *testing.T) {
	cases := []struct {
		d    time.Duration
		want int
	}{
		{-5, 0}, // clock stepped backwards: clamp, don't corrupt
		{0, 0},
		{1, 1},
		{2, 2},
		{3, 2},
		{4, 3},
		{(1 << 10) - 1, 10},
		{1 << 10, 11},
		{1<<62 - 1, 62},
		{1 << 62, 63},
	}
	for _, c := range cases {
		if got := BucketIndex(c.d); got != c.want {
			t.Errorf("BucketIndex(%d) = %d, want %d", c.d, got, c.want)
		}
	}
	// Every positive duration must land in a valid bucket, and bucket
	// boundaries must respect BucketValue's representative upper bound.
	for i := 1; i < HistBuckets-1; i++ {
		upper := BucketValue(i)
		if got := BucketIndex(time.Duration(upper)); got != i {
			t.Errorf("BucketIndex(BucketValue(%d)=%d) = %d, want %d", i, upper, got, i)
		}
		if got := BucketIndex(time.Duration(upper + 1)); got != i+1 {
			t.Errorf("BucketIndex(%d) = %d, want %d", upper+1, got, i+1)
		}
	}
}

func TestBucketValueSaturation(t *testing.T) {
	if got := BucketValue(0); got != 0 {
		t.Errorf("BucketValue(0) = %d, want 0", got)
	}
	if got := BucketValue(1); got != 1 {
		t.Errorf("BucketValue(1) = %d, want 1", got)
	}
	if got := BucketValue(HistBuckets - 1); got != 1<<62 {
		t.Errorf("BucketValue(top) = %d, want %d", got, int64(1)<<62)
	}
	if got := BucketValue(HistBuckets + 7); got != 1<<62 {
		t.Errorf("BucketValue(out of range) = %d, want saturation marker", got)
	}
}

func TestPercentileBoundaries(t *testing.T) {
	var g Histogram

	// Empty: everything reports zero.
	if s := g.Snapshot(); s.Count() != 0 || s.Percentile(0.5) != 0 || s.Max() != 0 {
		t.Fatalf("empty histogram not all-zero: %v", s)
	}

	// All-zero-duration samples stay in bucket 0 and report 0 at every
	// percentile.
	for i := 0; i < 100; i++ {
		g.Record(0)
	}
	s := g.Snapshot()
	if s.Count() != 100 {
		t.Fatalf("count = %d, want 100", s.Count())
	}
	for _, p := range []float64{0, 0.5, 0.999, 1} {
		if got := s.Percentile(p); got != 0 {
			t.Errorf("p%v of all-zero samples = %d, want 0", p, got)
		}
	}

	// 1ns lands in bucket 1, representative value 1.
	g.reset()
	g.Record(1)
	if got := g.Snapshot().Percentile(0.5); got != 1 {
		t.Errorf("p50 of single 1ns sample = %d, want 1", got)
	}

	// Saturation: a duration beyond the top bucket's lower bound reports
	// the 2^62 marker at Max and the top percentile.
	g.reset()
	g.Record(time.Duration(1<<62 + 12345))
	s = g.Snapshot()
	if got := s.Max(); got != 1<<62 {
		t.Errorf("Max of saturated sample = %d, want %d", got, int64(1)<<62)
	}
	if got := s.Percentile(1); got != 1<<62 {
		t.Errorf("p100 of saturated sample = %d, want %d", got, int64(1)<<62)
	}

	// Percentile rank arithmetic: 99 samples at ~1µs, 1 at ~1ms. p50 and
	// p99 must report the 1µs bucket, p999 the 1ms bucket.
	g.reset()
	for i := 0; i < 99; i++ {
		g.Record(time.Microsecond)
	}
	g.Record(time.Millisecond)
	s = g.Snapshot()
	lo := BucketValue(BucketIndex(time.Microsecond))
	hi := BucketValue(BucketIndex(time.Millisecond))
	if got := s.Percentile(0.50); got != lo {
		t.Errorf("p50 = %d, want %d", got, lo)
	}
	if got := s.Percentile(0.99); got != lo {
		t.Errorf("p99 = %d, want %d", got, lo)
	}
	if got := s.Percentile(0.999); got != hi {
		t.Errorf("p999 = %d, want %d", got, hi)
	}
}

func TestBucketCountsAddSub(t *testing.T) {
	var a, b Histogram
	a.Record(time.Microsecond)
	a.Record(time.Millisecond)
	b.Record(time.Microsecond)

	sum := a.Snapshot().Add(b.Snapshot())
	if sum.Count() != 3 {
		t.Errorf("merged count = %d, want 3", sum.Count())
	}
	back := sum.Sub(b.Snapshot())
	if back != a.Snapshot() {
		t.Errorf("Sub did not invert Add: %v != %v", back, a.Snapshot())
	}
}

// TestHistogramHammer drives many concurrent recorders into every
// histogram of one handle and checks that no sample is lost or misfiled:
// per-histogram counts must equal exactly what was recorded.
func TestHistogramHammer(t *testing.T) {
	const (
		goroutines = 8
		perG       = 10000
	)
	h := New()
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			x := uint64(seed)*2654435761 + 1
			for i := 0; i < perG; i++ {
				// xorshift: cheap deterministic spread over all buckets.
				x ^= x << 13
				x ^= x >> 7
				x ^= x << 17
				d := time.Duration(x % (1 << 40))
				h.Record(HistID(i%int(NumHistIDs)), d)
			}
		}(int64(g + 1))
	}
	wg.Wait()

	snap := h.Histograms()
	var total int64
	for i := HistID(0); i < NumHistIDs; i++ {
		c := snap.Get(i).Count()
		// Exact share of the round-robin i%NumHistIDs distribution.
		want := int64(perG / int(NumHistIDs))
		if int(i) < perG%int(NumHistIDs) {
			want++
		}
		want *= goroutines
		if c != want {
			t.Errorf("%v count = %d, want %d", i, c, want)
		}
		total += c
	}
	if total != goroutines*perG {
		t.Errorf("total = %d, want %d", total, goroutines*perG)
	}
}

// TestNilHandleZeroOverhead pins the disabled path's contract: no clock
// reads (Start returns 0), no allocation, no recording.
func TestNilHandleZeroOverhead(t *testing.T) {
	var h *Handle

	if h.Start() != 0 {
		t.Error("nil handle Start() read the clock (non-zero timestamp)")
	}
	if n := testing.AllocsPerRun(100, func() {
		t0 := h.Start()
		h.Record(HandoffNs, time.Microsecond)
		h.Since(HandoffNs, t0)
	}); n != 0 {
		t.Errorf("nil handle latency path allocates %v per op, want 0", n)
	}
	if got := h.Histograms(); got != (HistSnapshot{}) {
		t.Error("nil handle Histograms() not all-zero")
	}
	if got := h.Histograms().Get(HandoffNs); got != (BucketCounts{}) {
		t.Error("nil handle Histograms().Get(HandoffNs) not empty")
	}

	// A zero t0 produced through a nil handle must stay unrecorded even
	// when it later flows into a live handle's Since.
	live := New()
	live.Since(HandoffNs, h.Start())
	if c := live.Histograms().Get(HandoffNs).Count(); c != 0 {
		t.Errorf("zero t0 was recorded into live handle (count=%d)", c)
	}
}

// TestLiveHandleRecordNoAlloc checks the enabled path is allocation-free
// once the histograms it records into are installed — the histogram layer
// must not disturb TestHandoffAllocBudget.
func TestLiveHandleRecordNoAlloc(t *testing.T) {
	h := New()
	h.Record(SpinNs, 0) // the first record into a histogram builds it
	h.Record(HandoffNs, 0)
	if n := testing.AllocsPerRun(100, func() {
		t0 := h.Start()
		h.Record(SpinNs, time.Microsecond)
		h.Since(HandoffNs, t0)
	}); n != 0 {
		t.Errorf("live handle latency path allocates %v per op, want 0", n)
	}
}

func TestLatencyMapShape(t *testing.T) {
	h := New()
	h.Record(HandoffNs, time.Microsecond)
	m := h.Histograms().LatencyMap()
	if len(m) != 1 {
		t.Fatalf("LatencyMap has %d entries, want 1 (empty histograms omitted)", len(m))
	}
	entry, ok := m["handoff"].(map[string]int64)
	if !ok {
		t.Fatalf("LatencyMap[handoff] has type %T", m["handoff"])
	}
	for _, k := range []string{"count", "p50_ns", "p90_ns", "p99_ns", "p999_ns", "max_ns"} {
		if _, ok := entry[k]; !ok {
			t.Errorf("LatencyMap[handoff] missing key %q", k)
		}
	}
	if entry["count"] != 1 {
		t.Errorf("count = %d, want 1", entry["count"])
	}
}

// TestLazyInstallRace records into every histogram of fresh handles from
// many goroutines at once while others read them, and checks the install
// protocol: no sample is lost to a histogram that lost the install race
// (exact per-histogram counts), a slot never changes once set, and reads
// of an untouched handle install nothing.
func TestLazyInstallRace(t *testing.T) {
	rounds, perG := 50, 200
	if testing.Short() {
		rounds, perG = 10, 100
	}
	const recorders, readers = 6, 2
	for r := 0; r < rounds; r++ {
		h := New()
		h.Histograms()
		h.Reset()
		h.Snapshot()
		for i := range h.hist {
			if h.hist[i].Load() != nil {
				t.Fatalf("reading an untouched handle installed %v", HistID(i))
			}
		}

		var first [NumHistIDs]atomic.Pointer[Histogram]
		var start, stop sync.WaitGroup
		var done atomic.Bool
		start.Add(1)
		for g := 0; g < readers; g++ {
			stop.Add(1)
			go func() {
				defer stop.Done()
				start.Wait()
				var last HistSnapshot
				for !done.Load() {
					for i := range h.hist {
						cur := h.hist[i].Load()
						if cur == nil {
							continue
						}
						if !first[i].CompareAndSwap(nil, cur) && first[i].Load() != cur {
							t.Errorf("%v was replaced after install", HistID(i))
						}
					}
					s := h.Histograms()
					for i := range s {
						if s[i].Count() < last[i].Count() {
							t.Errorf("%v count went back from %d to %d", HistID(i), last[i].Count(), s[i].Count())
						}
					}
					last = s
				}
			}()
		}
		var rec sync.WaitGroup
		for g := 0; g < recorders; g++ {
			rec.Add(1)
			go func() {
				defer rec.Done()
				start.Wait()
				for i := 0; i < perG; i++ {
					id := HistID(i % int(NumHistIDs))
					if i&1 == 0 {
						h.Record(id, time.Duration(i))
					} else {
						h.Since(id, Nanos())
					}
				}
			}()
		}
		start.Done()
		rec.Wait()
		done.Store(true)
		stop.Wait()

		s := h.Histograms()
		for i := HistID(0); i < NumHistIDs; i++ {
			want := int64(perG / int(NumHistIDs))
			if int(i) < perG%int(NumHistIDs) {
				want++
			}
			want *= recorders
			if c := s.Get(i).Count(); c != want {
				t.Fatalf("round %d: %v count = %d, want %d", r, i, c, want)
			}
			if g := first[i].Load(); g != nil && g != h.hist[i].Load() {
				t.Fatalf("round %d: %v was replaced after install", r, i)
			}
		}
	}
}
