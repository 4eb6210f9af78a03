package synchq_test

import (
	"sync"
	"testing"
	"time"

	"synchq"
)

// pairN drives n put/take pairs through q from two goroutines.
func pairN(t *testing.T, q synchq.TimedQueue[int], n int) {
	t.Helper()
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < n; i++ {
			q.Put(i)
		}
	}()
	for i := 0; i < n; i++ {
		q.Take()
	}
	wg.Wait()
}

func TestInstrumentSynchronousQueue(t *testing.T) {
	for _, fair := range []bool{true, false} {
		m := synchq.NewMetrics()
		q := synchq.New[int](synchq.Fair(fair), synchq.Instrument(m))
		if q.Metrics() != m {
			t.Fatal("Metrics() did not return the instrumented set")
		}
		pairN(t, q, 400)
		s := m.Stats()
		if got := s.Counters["fulfillments"]; got != 400 {
			t.Errorf("fair=%v: fulfillments = %d, want 400", fair, got)
		}
		h, ok := s.Latency["handoff"]
		if !ok || h.Count == 0 {
			t.Fatalf("fair=%v: no handoff latency recorded: %+v", fair, s.Latency)
		}
		// Both sides of a pair record their own arrival-to-pairing time, but
		// the latency layer samples 1-in-SampleRate operations, so the count
		// is bounded by the opportunity count rather than equal to it.
		if h.Count > 800 {
			t.Errorf("fair=%v: handoff count = %d, want ≤ 800 (both sides, sampled)", fair, h.Count)
		}
		if h.P50 < 0 || h.Max < h.P50 || h.P999 < h.P50 {
			t.Errorf("fair=%v: implausible percentiles: %+v", fair, h)
		}
	}
}

func TestInstrumentUninstrumentedIsNil(t *testing.T) {
	q := synchq.New[int]()
	if q.Metrics() != nil {
		t.Error("uninstrumented queue has non-nil Metrics()")
	}
	// Every method on a nil *Metrics is safe.
	var m *synchq.Metrics
	m.Reset()
	if s := m.Stats(); len(s.Counters) != 0 || len(s.Latency) != 0 {
		t.Errorf("nil Metrics Stats not empty: %+v", s)
	}
	if ss := m.ShardStats(); ss != nil {
		t.Errorf("nil Metrics ShardStats = %v, want nil", ss)
	}
	m.LatencyRecorder("handoff")(time.Microsecond)
}

func TestInstrumentSharded(t *testing.T) {
	m := synchq.NewMetrics()
	q := synchq.New[int](synchq.Sharded(4), synchq.Instrument(m))
	if q.Metrics() != m {
		t.Fatal("Metrics() did not return the instrumented set")
	}
	pairN(t, q, 400)

	ss := m.ShardStats()
	if len(ss) != q.Shards() {
		t.Fatalf("ShardStats has %d entries, want %d", len(ss), q.Shards())
	}
	var perShard int64
	for _, s := range ss {
		perShard += s.Counters["fulfillments"]
	}
	if perShard != 400 {
		t.Errorf("per-shard fulfillments sum = %d, want 400", perShard)
	}
	// The merged view must agree with the sum of the parts.
	if got := m.Stats().Counters["fulfillments"]; got != perShard {
		t.Errorf("merged fulfillments = %d, want %d", got, perShard)
	}
	if h := m.Stats().Latency["handoff"]; h.Count == 0 || h.Count > 800 {
		t.Errorf("merged handoff count = %d, want in (0, 800] (sampled)", h.Count)
	}
}

func TestInstrumentTransferQueue(t *testing.T) {
	m := synchq.NewMetrics()
	q := synchq.NewTransferQueue[int](synchq.Instrument(m))
	if q.Metrics() != m {
		t.Fatal("Metrics() did not return the instrumented set")
	}
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 200; i++ {
			q.Transfer(i)
		}
	}()
	for i := 0; i < 200; i++ {
		q.Take()
	}
	wg.Wait()
	s := m.Stats()
	if got := s.Counters["fulfillments"]; got != 200 {
		t.Errorf("fulfillments = %d, want 200", got)
	}
	if s.Latency["handoff"].Count == 0 {
		t.Error("no handoff latency recorded for transfers")
	}
}

func TestInstrumentExchanger(t *testing.T) {
	m := synchq.NewMetrics()
	x := synchq.NewExchanger[int](synchq.Instrument(m))
	if x.Metrics() != m {
		t.Fatal("Metrics() did not return the instrumented set")
	}
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 200; i++ {
			x.Exchange(i)
		}
	}()
	for i := 0; i < 200; i++ {
		x.Exchange(1000 + i)
	}
	wg.Wait()
	if h := m.Stats().Latency["handoff"]; h.Count == 0 {
		t.Error("no handoff latency recorded for exchanges")
	}
}

func TestDeprecatedEliminatingConstructors(t *testing.T) {
	// NewEliminatingQueue survives as an alias for New plus
	// EliminatingAdaptive; the caller's options still apply.
	m := synchq.NewMetrics()
	q := synchq.NewEliminatingQueue[int](synchq.Fair(true), synchq.Instrument(m))
	if !q.Fair() || q.Metrics() != m {
		t.Fatalf("alias dropped options: Fair() = %v, Metrics() = %p, want true, %p", q.Fair(), q.Metrics(), m)
	}
	pairN(t, q, 20)
	s := m.Stats()
	if s.Counters["fulfillments"] == 0 {
		t.Error("no hand-offs recorded through the alias")
	}
	if s.Counters["elim-hits"]+s.Counters["elim-misses"] == 0 {
		t.Error("alias built a queue without the elimination front-end")
	}
}

func TestStatsMerge(t *testing.T) {
	m1, m2 := synchq.NewMetrics(), synchq.NewMetrics()
	q1 := synchq.New[int](synchq.Instrument(m1))
	q2 := synchq.New[int](synchq.Instrument(m2))
	pairN(t, q1, 10)
	pairN(t, q2, 15)

	s1, s2 := m1.Stats(), m2.Stats()
	merged := s1.Merge(s2)
	if got := merged.Counters["fulfillments"]; got != 25 {
		t.Errorf("merged fulfillments = %d, want 25", got)
	}
	// Sampled counts are not deterministic, but merging must preserve them.
	if got, want := merged.Latency["handoff"].Count, s1.Latency["handoff"].Count+s2.Latency["handoff"].Count; got != want {
		t.Errorf("merged handoff count = %d, want %d", got, want)
	}
	// Percentiles are recomputed from merged buckets, not copied.
	if merged.Latency["handoff"].Max < s1.Latency["handoff"].Max {
		t.Error("merged Max lost samples")
	}
}

func TestMetricsReset(t *testing.T) {
	m := synchq.NewMetrics()
	q := synchq.New[int](synchq.Sharded(2), synchq.Instrument(m))
	pairN(t, q, 10)
	if m.Stats().Counters["fulfillments"] == 0 {
		t.Fatal("no events before Reset")
	}
	m.Reset()
	s := m.Stats()
	if got := s.Counters["fulfillments"]; got != 0 {
		t.Errorf("fulfillments after Reset = %d, want 0", got)
	}
	if len(s.Latency) != 0 {
		t.Errorf("latency after Reset = %+v, want empty", s.Latency)
	}
}

func TestLatencyRecorder(t *testing.T) {
	m := synchq.NewMetrics()
	rec := m.LatencyRecorder("handoff")
	rec(time.Microsecond)
	rec(time.Millisecond)
	if got := m.Stats().Latency["handoff"].Count; got != 2 {
		t.Errorf("recorded count = %d, want 2", got)
	}
	// Unknown names are a silent no-op, not a panic.
	m.LatencyRecorder("no-such-histogram")(time.Second)
}
