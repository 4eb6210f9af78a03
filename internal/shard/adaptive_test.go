package shard

import (
	"runtime"
	"sync"
	"testing"
	"time"

	"synchq/internal/core"
	"synchq/internal/metrics"
)

// newAutoFabric builds a self-scaling fabric of fair dual queues with a
// max-width ceiling, sharing one metrics handle.
func newAutoFabric(max int, h *metrics.Handle) *Fabric[int64] {
	return NewAuto(max, func(int) Dual[int64] {
		return core.NewDualQueue[int64](core.WaitConfig{Metrics: h})
	}).SetMetrics(h)
}

// TestStealWeightingSkipsDrainedShards is the regression test for the
// wasted-steal fix: shards whose presence hint keeps turning out stale
// stop being probed after probeSkipAfter consecutive empty observations,
// so the per-sweep miss count plateaus instead of growing with every
// sweep.
func TestStealWeightingSkipsDrainedShards(t *testing.T) {
	f := newQueueFabric(8, nil)
	const rounds = 200
	var ss sweepStat
	for r := 0; r < rounds; r++ {
		// A skewed workload keeps re-flagging shards 1..7 even though no
		// producer ever lingers there: re-assert the stale hints, then
		// sweep from home 0 like a consumer that found its own shard dry.
		setBit(&f.prod, 0xFE)
		if _, ok := f.sweepTake(0, false, 0, &ss); ok {
			t.Fatal("sweep of an empty fabric found a producer")
		}
	}
	st := f.Stats()
	// Without steal-weighting every round probes all 7 flagged shards:
	// 7*rounds misses. With it, each shard is probed until its streak
	// reaches probeSkipAfter, plus the periodic re-probes.
	unweighted := int64(7 * rounds)
	bound := int64(7*probeSkipAfter) + unweighted/probeReprobeEvery + 7
	if st.ProbeMisses > bound {
		t.Errorf("probe misses = %d, want <= %d (unweighted sweeps would cost %d)",
			st.ProbeMisses, bound, unweighted)
	}
	if st.ProbeSkips == 0 {
		t.Error("no probes were skipped despite 200 rounds of stale hints")
	}
	if st.ProbeMisses >= unweighted/2 {
		t.Errorf("probe misses = %d did not drop vs the unweighted cost %d",
			st.ProbeMisses, unweighted)
	}
}

// TestStealWeightingLiveness: a skip-listed shard that gains a real
// waiter is still found — the announce resets the streak, and even a
// stale streak is re-sensed by the periodic re-probe and by critical
// sweeps, which never skip.
func TestStealWeightingLiveness(t *testing.T) {
	f := newQueueFabric(8, nil)
	var ss sweepStat
	// Build a maxed-out empty streak on shard 3's producer side.
	for r := 0; r < 4*probeSkipAfter; r++ {
		setBit(&f.prod, 1<<3)
		f.sweepTake(0, false, 0, &ss)
	}
	if f.st[3].emptyProd.Load() < probeSkipAfter {
		t.Fatalf("streak = %d, want >= %d", f.st[3].emptyProd.Load(), probeSkipAfter)
	}

	// A real producer parks on shard 3 (directly on the shard: simulates a
	// waiter whose announce was not observed, the worst case for skipping).
	done := make(chan struct{})
	go func() {
		put(f.shards[3], 42)
		close(done)
	}()
	for !f.shards[3].HasWaitingProducer() {
		runtime.Gosched()
	}

	// Critical sweeps never skip: first one finds the producer.
	setBit(&f.prod, 1<<3)
	if v, ok := f.sweepTake(0, true, 0, &ss); !ok || v != 42 {
		t.Fatalf("critical sweep = %v, %v; want 42, true", v, ok)
	}
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("producer did not unpark after critical-sweep hand-off")
	}
	if f.st[3].emptyProd.Load() != 0 {
		t.Errorf("successful probe left streak at %d, want 0", f.st[3].emptyProd.Load())
	}

	// And the periodic re-probe bounds how long a non-critical sweep can
	// ignore a skip-listed shard: within probeReprobeEvery sweeps one goes
	// through.
	for r := 0; r < 4*probeSkipAfter; r++ {
		setBit(&f.prod, 1<<3)
		f.sweepTake(0, false, 0, &ss)
	}
	go func() { put(f.shards[3], 7) }()
	for !f.shards[3].HasWaitingProducer() {
		runtime.Gosched()
	}
	found := false
	for r := 0; r < probeReprobeEvery+1; r++ {
		setBit(&f.prod, 1<<3)
		if v, ok := f.sweepTake(0, false, 0, &ss); ok {
			if v != 7 {
				t.Fatalf("re-probe sweep returned %d, want 7", v)
			}
			found = true
			break
		}
	}
	if !found {
		t.Errorf("skip-listed shard with a live producer not re-probed within %d sweeps", probeReprobeEvery+1)
	}
}

// TestAutoFabricStartsCollapsed: a self-scaling fabric begins at width 1
// and a quiet ping-pong load keeps it there.
func TestAutoFabricStartsCollapsed(t *testing.T) {
	f := newAutoFabric(8, nil)
	if w := f.Shards(); w != 1 {
		t.Fatalf("fresh auto fabric width = %d, want 1", w)
	}
	if m := f.MaxShards(); m != 8 {
		t.Fatalf("ceiling = %d, want 8", m)
	}
	done := make(chan int64, 1)
	go func() {
		var sum int64
		for i := 0; i < 3000; i++ {
			sum += take(f)
		}
		done <- sum
	}()
	var want int64
	for i := int64(0); i < 3000; i++ {
		put(f, i)
		want += i
	}
	if got := <-done; got != want {
		t.Fatalf("transfer sum = %d, want %d", got, want)
	}
	if w := f.Shards(); w != 1 {
		t.Errorf("quiet ping-pong grew the fabric to width %d, want 1", w)
	}
	if f.WidthChanges() != 0 {
		t.Errorf("quiet run performed %d width changes, want 0", f.WidthChanges())
	}
}

// TestDriveWidthTransitions pushes the controller through grow → shrink →
// grow deterministically and checks the protocol at each step.
func TestDriveWidthTransitions(t *testing.T) {
	f := newAutoFabric(8, nil)
	for i := 0; i < 64 && f.Shards() < 8; i++ {
		f.DriveWidth(true)
	}
	if w := f.Shards(); w != 8 {
		t.Fatalf("contended drive stalled at width %d, want 8", w)
	}
	grown := f.WidthChanges()
	if grown == 0 {
		t.Fatal("no width changes recorded after growth")
	}
	for i := 0; i < 256 && f.Shards() > 1; i++ {
		f.DriveWidth(false)
	}
	if w := f.Shards(); w != 1 {
		t.Fatalf("quiet drive stalled at width %d, want 1", w)
	}
	if f.WidthChanges() <= grown {
		t.Error("collapse recorded no width changes")
	}
	for i := 0; i < 64 && f.Shards() < 8; i++ {
		f.DriveWidth(true)
	}
	if w := f.Shards(); w != 8 {
		t.Fatalf("re-grow stalled at width %d, want 8", w)
	}
}

// TestShrinkDrainsParkedWaiters: consumers parked on high shards while
// the fabric is wide still pair after a collapse to width 1 — the drain
// protocol re-asserts their presence and the full-summary sweeps find
// them.
func TestShrinkDrainsParkedWaiters(t *testing.T) {
	f := newAutoFabric(8, nil)
	for i := 0; i < 64 && f.Shards() < 8; i++ {
		f.DriveWidth(true)
	}

	const consumers = 16
	var got sync.Map
	var wg sync.WaitGroup
	for c := 0; c < consumers; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			got.Store(c, take(f))
		}(c)
	}
	// Wait until every consumer is parked somewhere in the fabric.
	deadline := time.Now().Add(5 * time.Second)
	for {
		n := 0
		for i := range f.shards {
			if f.shards[i].HasWaitingConsumer() {
				n++
			}
		}
		if n > 0 && !isEmpty(f) {
			time.Sleep(time.Millisecond)
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("consumers never parked")
		}
		runtime.Gosched()
	}

	// Collapse to width 1 with the waiters still parked.
	for i := 0; i < 256 && f.Shards() > 1; i++ {
		f.DriveWidth(false)
	}
	if w := f.Shards(); w != 1 {
		t.Fatalf("collapse stalled at width %d", w)
	}

	// Producers homed on shard 0 must still reach every parked consumer.
	for c := 0; c < consumers; c++ {
		put(f, int64(100+c))
	}
	wgDone := make(chan struct{})
	go func() { wg.Wait(); close(wgDone) }()
	select {
	case <-wgDone:
	case <-time.After(10 * time.Second):
		t.Fatal("parked consumers stranded after width collapse")
	}
	var sum int64
	got.Range(func(_, v any) bool { sum += v.(int64); return true })
	var want int64
	for c := 0; c < consumers; c++ {
		want += int64(100 + c)
	}
	if sum != want {
		t.Fatalf("conservation violated after collapse: sum %d, want %d", sum, want)
	}
}

// TestFixedFabricIgnoresController: a fixed-width fabric has no controller
// — DriveWidth is a no-op and stats report non-adaptive.
func TestFixedFabricIgnoresController(t *testing.T) {
	f := newQueueFabric(4, nil)
	f.DriveWidth(true)
	f.DriveWidth(true)
	if w := f.Shards(); w != 4 {
		t.Errorf("fixed fabric width = %d after DriveWidth, want 4", w)
	}
	if f.Adaptive() || f.WidthChanges() != 0 {
		t.Errorf("fixed fabric reports adaptive=%v changes=%d", f.Adaptive(), f.WidthChanges())
	}
}

// TestStatsSnapshot sanity-checks the introspection snapshot fields.
func TestStatsSnapshot(t *testing.T) {
	h := metrics.New()
	f := newAutoFabric(4, h)
	for i := 0; i < 64 && f.Shards() < 4; i++ {
		f.DriveWidth(true)
	}
	st := f.Stats()
	if st.MaxShards != 4 || st.Width != 4 || !st.Adaptive {
		t.Errorf("snapshot %+v, want max 4 width 4 adaptive", st)
	}
	if len(st.Shards) != 4 {
		t.Fatalf("per-shard entries = %d, want 4", len(st.Shards))
	}
	for i, sh := range st.Shards {
		if sh.Index != i || !sh.Active {
			t.Errorf("shard %d snapshot %+v, want active with matching index", i, sh)
		}
	}
	if st.WidthChanges == 0 {
		t.Error("snapshot lost the width transitions")
	}
	// The gauge mirrors the effective width.
	if g := h.Snapshot().Get(metrics.FabricWidth); g != 4 {
		t.Errorf("fabric-width gauge = %d, want 4", g)
	}
}
