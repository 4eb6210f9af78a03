package synchq

import (
	"encoding/json"
	"sync"
	"testing"
)

// TestAutoShardQuietWidthOne: an adaptive queue with no contention stays
// collapsed at effective width 1, so a single uncontended pair pays the
// plain-core price rather than the sharding tax.
func TestAutoShardQuietWidthOne(t *testing.T) {
	q := New[int](AutoShard())
	if got := q.Shards(); got != 1 {
		t.Fatalf("fresh adaptive queue width = %d, want 1", got)
	}
	done := make(chan int, 1)
	go func() {
		sum := 0
		for i := 0; i < 2000; i++ {
			sum += q.Take()
		}
		done <- sum
	}()
	want := 0
	for i := 0; i < 2000; i++ {
		q.Put(i)
		want += i
	}
	if got := <-done; got != want {
		t.Fatalf("transfer sum = %d, want %d", got, want)
	}
	if got := q.Shards(); got != 1 {
		t.Errorf("quiet 1-pair run ended at width %d, want 1 (collapse)", got)
	}
}

// TestAutoShardFixedEscapeHatch: Sharded(n) with n > 0 keeps its fixed
// width — the controller never runs.
func TestAutoShardFixedEscapeHatch(t *testing.T) {
	q := New[int](Sharded(4))
	if w, m := q.Shards(), q.MaxShards(); w != 4 || m != 4 {
		t.Fatalf("Sharded(4): width %d, ceiling %d, want 4, 4", w, m)
	}
	st, ok := q.FabricStats()
	if !ok || st.Adaptive {
		t.Fatalf("Sharded(4) FabricStats = %+v, %v; want non-adaptive fabric", st, ok)
	}
	var wg sync.WaitGroup
	for p := 0; p < 4; p++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				q.Put(i)
			}
		}()
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				q.Take()
			}
		}()
	}
	wg.Wait()
	if got := q.Shards(); got != 4 {
		t.Errorf("fixed-width queue drifted to width %d, want 4", got)
	}
	if st, _ := q.FabricStats(); st.WidthChanges != 0 {
		t.Errorf("fixed-width queue recorded %d width changes, want 0", st.WidthChanges)
	}
}

// TestAutoShardWidthBounds: under genuine multi-producer contention the
// adaptive width stays a power of two within [1, MaxShards] and every
// item is conserved, whatever the controller decided on this host.
func TestAutoShardWidthBounds(t *testing.T) {
	q := New[int](Fair(true), AutoShard(), Instrument(NewMetrics()))
	const workers, per = 8, 500
	var wg sync.WaitGroup
	var sum int64
	var mu sync.Mutex
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			local := 0
			for i := 0; i < per; i++ {
				local += q.Take()
			}
			mu.Lock()
			sum += int64(local)
			mu.Unlock()
		}()
	}
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(base int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				q.Put(base + i)
			}
		}(w * per)
	}
	wg.Wait()
	n := workers * per
	if want := int64(n) * int64(n-1) / 2; sum != want {
		t.Fatalf("conservation violated: sum %d, want %d", sum, want)
	}
	w, m := q.Shards(), q.MaxShards()
	if w < 1 || w > m || w&(w-1) != 0 {
		t.Errorf("effective width %d out of bounds (ceiling %d, must be pow2)", w, m)
	}
	st, ok := q.Metrics().FabricStats()
	if !ok {
		t.Fatal("Metrics().FabricStats() not reachable on an adaptive queue")
	}
	if !st.Adaptive || st.MaxShards != m || st.Width != w {
		t.Errorf("Metrics snapshot %+v disagrees with queue (width %d ceiling %d)", st, w, m)
	}
	if len(st.Shards) != m {
		t.Errorf("per-shard breakdown has %d entries, want %d", len(st.Shards), m)
	}
}

// TestFabricStatsJSON pins the stable snake_case JSON wire names of the
// introspection snapshot.
func TestFabricStatsJSON(t *testing.T) {
	q := New[int](Sharded(2))
	st, ok := q.FabricStats()
	if !ok {
		t.Fatal("FabricStats on a sharded queue")
	}
	b, err := json.Marshal(st)
	if err != nil {
		t.Fatal(err)
	}
	var m map[string]any
	if err := json.Unmarshal(b, &m); err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{
		"max_shards", "width", "adaptive", "width_changes",
		"steals", "probe_misses", "probe_skips", "shards",
	} {
		if _, ok := m[key]; !ok {
			t.Errorf("FabricStats JSON missing stable key %q (got %s)", key, b)
		}
	}
	shards, ok := m["shards"].([]any)
	if !ok || len(shards) != 2 {
		t.Fatalf("shards breakdown = %v, want 2 entries", m["shards"])
	}
	first, _ := shards[0].(map[string]any)
	for _, key := range []string{"index", "active", "depth", "steals"} {
		if _, ok := first[key]; !ok {
			t.Errorf("FabricShardStats JSON missing stable key %q (got %v)", key, first)
		}
	}

	// Unsharded structures report no fabric, from both access paths.
	plain := New[int](Instrument(NewMetrics()))
	if _, ok := plain.FabricStats(); ok {
		t.Error("unsharded queue reported fabric stats")
	}
	if _, ok := plain.Metrics().FabricStats(); ok {
		t.Error("unsharded queue's Metrics reported fabric stats")
	}
}
