package shard

// GOMAXPROCS-matrix harness for the self-scaling fabric: the same
// grow → shrink → grow storyline at every parallelism level the width
// controller must serve, with a conservation ledger checked at each step.
// Organic contention cannot be provoked on demand (the CI host may have
// one CPU), so real mixed traffic runs while DriveWidth forces the
// controller through the transitions; the transitions themselves execute
// the real activate/drain protocol against that live traffic.

import (
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"synchq/internal/core"
	"synchq/internal/metrics"
	"synchq/internal/segq"
)

// runWidthStorm drives concurrent producers/consumers through f while the
// width is forced through grow → shrink → grow cycles, then verifies the
// conservation ledger: every produced item is consumed exactly once.
func runWidthStorm(t *testing.T, f *Fabric[int64], procs int) {
	t.Helper()
	const (
		workers = 4
		perW    = 400
	)
	var (
		produced atomic.Int64
		consumed atomic.Int64
		wg       sync.WaitGroup // traffic workers
		oscWg    sync.WaitGroup // width oscillator
	)
	stop := make(chan struct{})
	// Width oscillator: forced transitions while traffic is live.
	oscWg.Add(1)
	go func() {
		defer oscWg.Done()
		for cycle := 0; ; cycle++ {
			select {
			case <-stop:
				return
			default:
			}
			contended := cycle%2 == 0
			for i := 0; i < 64; i++ {
				f.DriveWidth(contended)
			}
			w := f.Shards()
			if w < 1 || w > f.MaxShards() || w&(w-1) != 0 {
				t.Errorf("width %d out of range at procs=%d", w, procs)
				return
			}
			time.Sleep(200 * time.Microsecond)
		}
	}()
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(base int64) {
			defer wg.Done()
			for i := int64(0); i < perW; i++ {
				put(f, base+i)
				produced.Add(base + i)
			}
		}(int64(w) * perW)
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perW; i++ {
				consumed.Add(take(f))
			}
		}()
	}
	done := make(chan struct{})
	go func() {
		wg.Wait() // traffic drains while the oscillator keeps shifting width
		close(stop)
		oscWg.Wait()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(60 * time.Second):
		t.Fatalf("width storm deadlocked at procs=%d (produced %d consumed %d)",
			procs, produced.Load(), consumed.Load())
	}
	n := int64(workers) * perW
	want := n * (n - 1) / 2
	if produced.Load() != want || consumed.Load() != want {
		t.Fatalf("conservation violated at procs=%d: produced %d consumed %d want %d",
			procs, produced.Load(), consumed.Load(), want)
	}
}

// TestWidthMatrixQueueFabric runs the storm over forced GOMAXPROCS
// 1/2/4/8 on a queue-backed self-scaling fabric.
func TestWidthMatrixQueueFabric(t *testing.T) {
	if testing.Short() {
		t.Skip("width matrix is a soak-style test")
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, procs := range []int{1, 2, 4, 8} {
		runtime.GOMAXPROCS(procs)
		f := newAutoFabric(8, nil)
		runWidthStorm(t, f, procs)
		// Quiet drive must collapse the fabric back to one shard.
		for i := 0; i < 512 && f.Shards() > 1; i++ {
			f.DriveWidth(false)
		}
		if w := f.Shards(); w != 1 {
			t.Errorf("procs=%d: post-storm collapse stalled at width %d", procs, w)
		}
		if !isEmpty(f) {
			t.Errorf("procs=%d: fabric not empty after balanced storm", procs)
		}
		// Close ordering holds at whatever width the storm ended on.
		f.Close()
		if !f.Closed() {
			t.Errorf("procs=%d: Closed() false after Close", procs)
		}
	}
}

// TestWidthMatrixSegFabric runs a storm leg on a segment-backed
// self-scaling fabric and checks the memory bound still pays off across
// width changes: timed-out waiters leave, and fully-consumed segments are
// unlinked (SegUnlinks accumulates) rather than pinned by the fabric.
func TestWidthMatrixSegFabric(t *testing.T) {
	if testing.Short() {
		t.Skip("width matrix is a soak-style test")
	}
	h := metrics.New()
	f := NewAuto(4, func(int) Dual[int64] {
		return segq.New[int64](core.WaitConfig{Metrics: h})
	}).SetMetrics(h)
	runWidthStorm(t, f, runtime.GOMAXPROCS(0))
	// Generate churn that retires whole segments: parked-then-timed-out
	// consumers at full width, then a collapse, then another wave.
	for i := 0; i < 64 && f.Shards() < 4; i++ {
		f.DriveWidth(true)
	}
	for i := 0; i < 200; i++ {
		pollTimeout(f, 10*time.Microsecond)
	}
	for i := 0; i < 512 && f.Shards() > 1; i++ {
		f.DriveWidth(false)
	}
	for i := 0; i < 200; i++ {
		pollTimeout(f, 10*time.Microsecond)
	}
	if n := h.Snapshot().Get(metrics.SegUnlinks); n == 0 {
		t.Error("segment-backed fabric retired no segments across the width cycle")
	}
}
