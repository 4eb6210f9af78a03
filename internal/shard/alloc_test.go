package shard

import (
	"testing"
	"time"

	"synchq/internal/core"
	"synchq/internal/segq"
)

// This file pins the fabric's allocation cost. A committed wait runs the
// announce/reload commit step inside the shard's own waiting call, so a
// hand-off through the fabric allocates exactly what the bare core does —
// the linked node on the queue, waiter plus fulfilling node on the stack,
// the amortized segment on segq — and nothing of its own per operation.

// measurePairAllocs reports the steady-state allocations per paired
// put/take (testing.AllocsPerRun counts both sides and truncates to a whole
// number). The structure is warmed first so the pools are primed; -1 is the
// partner's stop sentinel and must not be used as a payload.
func measurePairAllocs(t *testing.T, put func(int64), take func() int64) float64 {
	t.Helper()
	done := make(chan struct{})
	go func() {
		for take() != -1 {
		}
		close(done)
	}()
	for i := 0; i < 200; i++ {
		put(int64(i))
	}
	got := testing.AllocsPerRun(200, func() { put(7) })
	put(-1)
	<-done
	return got
}

// measureModes measures untimed Put/Take pairs and timed
// OfferTimeout/PollTimeout pairs on fresh fabrics from mk.
func measureModes(t *testing.T, mk func() *Fabric[int64]) (untimed, timed float64) {
	q := mk()
	untimed = measurePairAllocs(t, q.Put, q.Take)
	q = mk()
	timed = measurePairAllocs(t,
		func(v int64) {
			if !q.OfferTimeout(v, time.Minute) {
				t.Error("OfferTimeout timed out against a live partner")
			}
		},
		func() int64 {
			v, ok := q.PollTimeout(time.Minute)
			if !ok {
				t.Error("PollTimeout timed out against a live partner")
			}
			return v
		})
	return untimed, timed
}

// TestFabricAllocBudget drives paired hand-offs through a one-shard and a
// self-scaling fabric over each core and holds them to the bare core's
// steady-state cost (the budgets core.TestHandoffAllocBudget and segq's
// amortization establish): the fabric adds no allocation per pair. The
// enormous spin budgets keep parking and timers out of the measurement, as
// there.
func TestFabricAllocBudget(t *testing.T) {
	cfg := core.WaitConfig{Spins: 1 << 30}
	cores := []struct {
		name   string
		budget float64
		mk     func() Dual[int64]
	}{
		{"queue", 1, func() Dual[int64] { return core.NewDualQueue[int64](cfg) }},
		{"stack", 2, func() Dual[int64] { return core.NewDualStack[int64](cfg) }},
		// One segment per SegSize pairs: under one allocation per pair,
		// which the whole-number count reads as zero.
		{"segq", 0, func() Dual[int64] { return segq.New[int64](cfg) }},
	}
	fabrics := []struct {
		name string
		mk   func(func(int) Dual[int64]) *Fabric[int64]
	}{
		{"New1", func(mk func(int) Dual[int64]) *Fabric[int64] { return New(1, mk) }},
		{"Auto", func(mk func(int) Dual[int64]) *Fabric[int64] { return NewAuto(0, mk) }},
	}
	// Under -race, sync.Pool drops a quarter of Puts, so pooled boxes and
	// spare nodes are occasionally re-allocated on either side.
	slack := 0.0
	if raceEnabled {
		slack = 1
	}
	for _, c := range cores {
		for _, fb := range fabrics {
			t.Run(c.name+"/"+fb.name, func(t *testing.T) {
				untimed, timed := measureModes(t, func() *Fabric[int64] {
					return fb.mk(func(int) Dual[int64] { return c.mk() })
				})
				if untimed > c.budget+slack {
					t.Errorf("allocs per Put/Take pair = %v, want at most %v", untimed, c.budget+slack)
				}
				if timed > c.budget+slack {
					t.Errorf("allocs per OfferTimeout/PollTimeout pair = %v, want at most %v", timed, c.budget+slack)
				}
			})
		}
	}
}
