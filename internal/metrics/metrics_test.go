package metrics

import (
	"encoding/json"
	"expvar"
	"runtime"
	"strings"
	"sync"
	"testing"
	"unsafe"
)

func TestNilHandleIsSafe(t *testing.T) {
	var h *Handle
	if h.Enabled() {
		t.Fatal("nil handle reports Enabled")
	}
	h.Inc(Parks) // must not panic
	h.Add(Spins, 42)
	h.Reset()
	if got := h.Load(Parks); got != 0 {
		t.Fatalf("nil handle Load = %d, want 0", got)
	}
	s := h.Snapshot()
	for i, v := range s {
		if v != 0 {
			t.Fatalf("nil handle snapshot[%s] = %d, want 0", ID(i), v)
		}
	}
	if s.String() != "all-zero" {
		t.Fatalf("nil snapshot String = %q", s.String())
	}
}

// TestHandleLayout pins a handle's footprint: a 64-byte leading pad, the
// counters dense at eight bytes each, and one pointer per histogram, each
// nil until its first record, so an idle handle carries no histogram
// bytes and one allocation fits the 384-byte size class.
func TestHandleLayout(t *testing.T) {
	var h Handle
	if off := unsafe.Offsetof(h.c); off != 64 {
		t.Errorf("Handle.c offset = %d, want 64", off)
	}
	if off, want := unsafe.Offsetof(h.hist), 64+uintptr(NumIDs)*8; off != want {
		t.Errorf("Handle.hist offset = %d, want %d (%d dense counters)", off, want, NumIDs)
	}
	if got, want := unsafe.Sizeof(h), 64+uintptr(NumIDs)*8+uintptr(NumHistIDs)*8; got != want {
		t.Errorf("Handle size = %d, want exactly %d: a 64-B pad, %d dense counters and %d histogram pointers", got, want, NumIDs, NumHistIDs)
	}
	// A background allocation (the race detector's, a test runner's) can
	// land in one round's TotalAlloc window; the least-disturbed of three
	// rounds counts.
	const n = 64
	sink := make([]*Handle, n)
	best := uint64(1<<63 - 1)
	for round := 0; round < 3; round++ {
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		for i := range sink {
			sink[i] = New()
		}
		runtime.ReadMemStats(&m1)
		best = min(best, (m1.TotalAlloc-m0.TotalAlloc)/n)
	}
	if best > 384 {
		t.Errorf("New allocates %d B per handle, want at most 384", best)
	}
}

func TestIncAddLoad(t *testing.T) {
	h := New()
	if !h.Enabled() {
		t.Fatal("fresh handle reports disabled")
	}
	h.Inc(Parks)
	h.Inc(Parks)
	h.Add(Spins, 5)
	h.Add(Spins, 0) // no-op by contract
	if got := h.Load(Parks); got != 2 {
		t.Fatalf("Load(Parks) = %d, want 2", got)
	}
	if got := h.Load(Spins); got != 5 {
		t.Fatalf("Load(Spins) = %d, want 5", got)
	}
	if got := h.Load(Unparks); got != 0 {
		t.Fatalf("Load(Unparks) = %d, want 0", got)
	}
}

func TestSnapshotDeltaReset(t *testing.T) {
	h := New()
	h.Add(Fulfillments, 10)
	before := h.Snapshot()
	h.Add(Fulfillments, 7)
	h.Inc(Timeouts)
	delta := h.Snapshot().Sub(before)
	if got := delta.Get(Fulfillments); got != 7 {
		t.Fatalf("delta fulfillments = %d, want 7", got)
	}
	if got := delta.Get(Timeouts); got != 1 {
		t.Fatalf("delta timeouts = %d, want 1", got)
	}
	if got := delta.Total(); got != 8 {
		t.Fatalf("delta total = %d, want 8", got)
	}
	h.Reset()
	for i := ID(0); i < NumIDs; i++ {
		if got := h.Load(i); got != 0 {
			t.Fatalf("after Reset, %s = %d, want 0", i, got)
		}
	}
}

func TestSnapshotMergeGauges(t *testing.T) {
	a, b := New(), New()
	a.Add(Fulfillments, 3)
	b.Add(Fulfillments, 4)
	a.Set(SpinBudget, 40)
	b.Set(SpinBudget, 109)
	b.Set(FabricWidth, 2)
	s := a.Snapshot().Merge(b.Snapshot())
	if got := s.Get(Fulfillments); got != 7 {
		t.Errorf("merged fulfillments = %d, want 7", got)
	}
	if got := s.Get(SpinBudget); got != 109 {
		t.Errorf("merged spin-budget = %d, want the larger level, 109", got)
	}
	if got := s.Get(FabricWidth); got != 2 {
		t.Errorf("merged fabric-width = %d, want 2", got)
	}
	for id := ID(0); id < NumIDs; id++ {
		want := id == SpinBudget || id == ArenaWidth || id == FabricWidth
		if id.Gauge() != want {
			t.Errorf("%s.Gauge() = %v, want %v", id, id.Gauge(), want)
		}
		if got, ok := Lookup(id.String()); !ok || got != id {
			t.Errorf("Lookup(%q) = %v, %v", id.String(), got, ok)
		}
	}
	if _, ok := Lookup("no-such-counter"); ok {
		t.Error("Lookup found an unknown name")
	}
}

func TestCASFailuresAggregates(t *testing.T) {
	h := New()
	h.Add(CASFailEnqueue, 3)
	h.Add(CASFailFulfill, 4)
	h.Add(CASFailClean, 5)
	h.Add(Parks, 100) // not a CAS failure
	if got := h.Snapshot().CASFailures(); got != 12 {
		t.Fatalf("CASFailures = %d, want 12", got)
	}
}

func TestNamesCompleteAndDistinct(t *testing.T) {
	seen := make(map[string]bool)
	for i := ID(0); i < NumIDs; i++ {
		n := i.String()
		if n == "" || strings.HasPrefix(n, "metrics.ID(") {
			t.Fatalf("counter %d has no name", int(i))
		}
		if seen[n] {
			t.Fatalf("duplicate counter name %q", n)
		}
		seen[n] = true
	}
	if got := len(Names()); got != int(NumIDs) {
		t.Fatalf("Names() returned %d entries, want %d", got, NumIDs)
	}
	if out := ID(-1).String(); out != "metrics.ID(-1)" {
		t.Fatalf("out-of-range ID String = %q", out)
	}
}

// TestConcurrentIncrements is the -race correctness test: concurrent Inc
// and Add calls from many goroutines must neither race nor lose counts.
func TestConcurrentIncrements(t *testing.T) {
	h := New()
	const goroutines = 8
	const perG = 2000
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				h.Inc(Parks)
				h.Add(Spins, 2)
				// A concurrent reader must be race-free too.
				if g == 0 && i%64 == 0 {
					_ = h.Snapshot()
				}
			}
		}(g)
	}
	wg.Wait()
	if got := h.Load(Parks); got != goroutines*perG {
		t.Fatalf("Parks = %d, want %d", got, goroutines*perG)
	}
	if got := h.Load(Spins); got != 2*goroutines*perG {
		t.Fatalf("Spins = %d, want %d", got, 2*goroutines*perG)
	}
}

func TestSnapshotString(t *testing.T) {
	h := New()
	h.Add(Parks, 3)
	h.Inc(Timeouts)
	s := h.Snapshot().String()
	if !strings.Contains(s, "parks=3") || !strings.Contains(s, "timeouts=1") {
		t.Fatalf("snapshot String = %q, want parks=3 and timeouts=1", s)
	}
	if strings.Contains(s, "spins") {
		t.Fatalf("snapshot String %q includes zero counter", s)
	}
}

func TestPublishAndRebind(t *testing.T) {
	h1 := New()
	h1.Add(Fulfillments, 11)
	Publish("test-metrics-handle", h1)
	v := expvar.Get("test-metrics-handle")
	if v == nil {
		t.Fatal("expvar name not published")
	}
	var m map[string]int64
	if err := json.Unmarshal([]byte(v.String()), &m); err != nil {
		t.Fatalf("expvar value is not JSON: %v", err)
	}
	if m["fulfillments"] != 11 {
		t.Fatalf("expvar fulfillments = %d, want 11", m["fulfillments"])
	}
	// Rebinding the same name must not panic and must serve the new handle.
	h2 := New()
	h2.Add(Fulfillments, 99)
	Publish("test-metrics-handle", h2)
	if err := json.Unmarshal([]byte(expvar.Get("test-metrics-handle").String()), &m); err != nil {
		t.Fatalf("expvar value after rebind is not JSON: %v", err)
	}
	if m["fulfillments"] != 99 {
		t.Fatalf("after rebind, fulfillments = %d, want 99", m["fulfillments"])
	}
}
