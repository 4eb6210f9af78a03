package synchq_test

import (
	"fmt"
	"runtime"
	"sync"
	"testing"
	"time"

	"synchq"
	"synchq/internal/metrics"
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

// TestStatsMergeGauges checks that merging adds counters but keeps the
// largest level of each gauge: a sharded queue's Stats over its shards,
// and Stats.Merge across queues.
func TestStatsMergeGauges(t *testing.T) {
	gauges := []string{"spin-budget", "arena-width", "fabric-width"}
	a := synchq.Stats{Counters: map[string]int64{"fulfillments": 3, "spin-budget": 40, "fabric-width": 2}}
	b := synchq.Stats{Counters: map[string]int64{"fulfillments": 4, "spin-budget": 109, "arena-width": 8}}
	got := a.Merge(b).Counters
	want := map[string]int64{"fulfillments": 7, "spin-budget": 109, "arena-width": 8, "fabric-width": 2}
	for k, w := range want {
		if got[k] != w {
			t.Errorf("Merge: %s = %d, want %d", k, got[k], w)
		}
	}

	m := synchq.NewMetrics()
	q := synchq.New[int](synchq.Fair(true), synchq.Sharded(4), synchq.Instrument(m))
	var wg sync.WaitGroup
	for range 4 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			pairN(t, q, 2000)
		}()
	}
	wg.Wait()
	merged := m.Stats().Counters
	var sum int64
	for _, name := range gauges {
		var top int64
		for i, s := range m.ShardStats() {
			v := s.Counters[name]
			if name == "spin-budget" {
				sum += v
			}
			if v > top {
				top = v
			}
			t.Logf("shard %d %s = %d", i, name, v)
		}
		if merged[name] != top {
			t.Errorf("Stats: %s = %d, want the shards' largest, %d", name, merged[name], top)
		}
	}
	if merged["fulfillments"] != 4*2000 {
		t.Errorf("Stats: fulfillments = %d, want %d", merged["fulfillments"], 4*2000)
	}
	t.Logf("spin-budget: merged %d, shard sum %d", merged["spin-budget"], sum)
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

// TestLatencyRecorderNames checks that every histogram name yields a
// recorder whose sample shows up under that name in Stats, so the names
// documented on LatencyRecorder cover the whole inventory.
func TestLatencyRecorderNames(t *testing.T) {
	m := synchq.NewMetrics()
	for _, name := range metrics.HistogramNames() {
		m.LatencyRecorder(name)(time.Microsecond)
	}
	lat := m.Stats().Latency
	for _, name := range metrics.HistogramNames() {
		if got := lat[name].Count; got != 1 {
			t.Errorf("Stats().Latency[%q].Count = %d, want 1", name, got)
		}
	}
}

// TestAutoShardUnbuiltShardsReadIdle: an AutoShard queue that stays at
// width 1 builds only shard 0, yet ShardStats and FabricStats list every
// shard up to MaxShards, the ones not built yet idle.
func TestAutoShardUnbuiltShardsReadIdle(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(8))
	m := synchq.NewMetrics()
	q := synchq.New[int](synchq.Fair(true), synchq.AutoShard(), synchq.Instrument(m))
	pairN(t, q, 400)
	if w := q.Shards(); w != 1 {
		t.Skipf("a quiet pair widened the queue to %d; the unbuilt shards are gone", w)
	}
	ss := m.ShardStats()
	fs, _ := q.FabricStats()
	if len(ss) != 8 || len(fs.Shards) != 8 {
		t.Fatalf("ShardStats has %d entries and FabricStats %d, want MaxShards = 8", len(ss), len(fs.Shards))
	}
	if got := ss[0].Counters["fulfillments"]; got != 400 {
		t.Errorf("shard 0 fulfillments = %d, want 400", got)
	}
	for i := 1; i < 8; i++ {
		if got := ss[i].Counters["fulfillments"]; got != 0 {
			t.Errorf("unbuilt shard %d reads %d fulfillments, want 0", i, got)
		}
		if sh := fs.Shards[i]; sh != (synchq.FabricShardStats{Index: i}) {
			t.Errorf("unbuilt shard %d reads %+v, want idle", i, sh)
		}
	}
}

// TestInstrumentedBuildBytes bounds the heap cost of building an
// instrumented AutoShard fair queue: a root metrics handle and a fabric
// holding lane 0 inline — its two commit steps, its metrics handle (376 B
// in the 384-B size class: dense counters, histograms built on first
// record) and its core, with the first value-box chunk and a spare node
// built up front so that a fresh goroutine's first hand-off allocates
// nothing. The other lanes are built when the width first grows, so the
// cost does not depend on GOMAXPROCS: 17 allocations and 2416 B at
// GOMAXPROCS 2, 17 and 2464 B at 8 (the lane-pointer slice grows with the
// ceiling). The byte limits are those figures plus 512 B of slack, the
// allocation limit is 17 plus 3. With every lane built up front it was 36
// allocations / 3832 B at 2 and 98 / 11992 B at 8. The count is read from
// the same MemStats as the bytes, because testing.AllocsPerRun pins
// GOMAXPROCS to 1, which would build a one-shard ceiling.
func TestInstrumentedBuildBytes(t *testing.T) {
	const allocLimit = 17 + 3
	for _, row := range []struct {
		procs int
		limit uint64
	}{{2, 2416 + 512}, {8, 2464 + 512}} {
		t.Run(fmt.Sprintf("GOMAXPROCS=%d", row.procs), func(t *testing.T) {
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(row.procs))
			const builds = 32
			sink := make([]*synchq.SynchronousQueue[int64], builds)
			best, allocs := uint64(1<<63-1), uint64(1<<63-1)
			for round := 0; round < 3; round++ { // the least-disturbed round counts
				var m0, m1 runtime.MemStats
				runtime.ReadMemStats(&m0)
				for i := range sink {
					sink[i] = synchq.New[int64](synchq.Fair(true), synchq.AutoShard(), synchq.Instrument(synchq.NewMetrics()))
				}
				runtime.ReadMemStats(&m1)
				best = min(best, (m1.TotalAlloc-m0.TotalAlloc)/builds)
				allocs = min(allocs, (m1.Mallocs-m0.Mallocs)/builds)
			}
			if got := sink[0].MaxShards(); got != row.procs {
				t.Fatalf("MaxShards = %d, want %d", got, row.procs)
			}
			t.Logf("instrumented AutoShard fair queue, ceiling %d shards: %d allocations, %d B per build", row.procs, allocs, best)
			if best > row.limit {
				t.Errorf("building an instrumented AutoShard fair queue allocates %d B, want at most %d", best, row.limit)
			}
			if allocs > allocLimit {
				t.Errorf("building an instrumented AutoShard fair queue makes %d allocations, want at most %d", allocs, allocLimit)
			}
		})
	}
}
