package bench

import (
	"fmt"
	"runtime"
	"time"

	"synchq/internal/core"
	"synchq/internal/exchanger"
	"synchq/internal/stats"
)

// AblationSpin sweeps the wait policy (Ablation A in DESIGN.md): the
// paper's spin-then-park default against park-only and heavy-spin
// variants, for both new algorithms, across the pair levels.
func AblationSpin(o SweepOpts) *stats.Table {
	o = o.withDefaults([]int{1, 4, 16}, 20000)
	policies := []struct {
		name string
		cfg  core.WaitConfig
	}{
		{"default", core.WaitConfig{}},
		{"park-only", core.WaitConfig{Spins: -1}},
		{"spin-heavy", core.WaitConfig{Spins: 4096}},
	}
	var cols []string
	for _, pol := range policies {
		cols = append(cols, "stack/"+pol.name, "queue/"+pol.name)
	}
	t := stats.NewTable("Ablation A: wait policy (spin-then-park)", "pairs", "ns/transfer", cols)
	for _, level := range o.Levels {
		for _, pol := range policies {
			cfg := pol.cfg
			t.Set(fmt.Sprint(level), "stack/"+pol.name, bestOf(o.Repeats,
				handoffNs(func() SQ { return core.NewDualStack[int64](cfg) }, level, level, 1, o.Transfers))[0])
			t.Set(fmt.Sprint(level), "queue/"+pol.name, bestOf(o.Repeats,
				handoffNs(func() SQ { return core.NewDualQueue[int64](cfg) }, level, level, 1, o.Transfers))[0])
		}
	}
	return t
}

// AblationClean sweeps the cancellation path (Ablation B): offers against
// an absent consumer with the given patience, so every operation enqueues,
// times out, cancels, and is cleaned. Reported is ns per canceled
// operation; TestDualQueueTimeoutStormLeavesNoGarbage checks the
// complementary space bound.
func AblationClean(o SweepOpts) *stats.Table {
	o = o.withDefaults([]int{1}, 2000)
	patiences := []time.Duration{time.Microsecond, 100 * time.Microsecond}
	var cols []string
	for _, p := range patiences {
		cols = append(cols, "queue/"+p.String(), "stack/"+p.String())
	}
	t := stats.NewTable("Ablation B: cancellation + cleaning cost", "threads", "ns/op", cols)
	for _, level := range o.Levels {
		for _, p := range patiences {
			q := core.NewDualQueue[int64](core.WaitConfig{})
			t0 := time.Now()
			for i := int64(0); i < o.Transfers; i++ {
				q.PutDeadline(i, core.DeadlineFor(p), nil)
			}
			t.Set(fmt.Sprint(level), "queue/"+p.String(),
				float64(time.Since(t0).Nanoseconds())/float64(o.Transfers))

			s := core.NewDualStack[int64](core.WaitConfig{})
			t0 = time.Now()
			for i := int64(0); i < o.Transfers; i++ {
				s.PutDeadline(i, core.DeadlineFor(p), nil)
			}
			t.Set(fmt.Sprint(level), "stack/"+p.String(),
				float64(time.Since(t0).Nanoseconds())/float64(o.Transfers))
		}
	}
	return t
}

// elimSQ pairs a static arena of fixed patience with a dual stack: the
// paper's §5 elimination experiment as Ablation C measures it, without the
// adaptive width and patience of synchq's EliminatingAdaptive front-end.
type elimSQ struct {
	q        *core.DualStack[int64]
	arena    *exchanger.Arena[int64]
	patience time.Duration
}

func newElimSQ(slots int, patience time.Duration) elimSQ {
	return elimSQ{
		q:        core.NewDualStack[int64](core.WaitConfig{}),
		arena:    exchanger.NewArena[int64](slots),
		patience: patience,
	}
}

func (e elimSQ) Put(v int64) {
	if e.arena.TryGive(v, e.patience) {
		return
	}
	e.q.Put(v)
}

func (e elimSQ) Take() int64 {
	if v, ok := e.arena.TryTake(e.patience); ok {
		return v
	}
	return e.q.Take()
}

// AblationElimination sweeps the elimination front-end (Ablation C)
// against the plain dual stack across pair levels; the paper predicts a
// win only under extreme contention.
func AblationElimination(o SweepOpts) *stats.Table {
	o = o.withDefaults([]int{4, 16, 64}, 20000)
	t := stats.NewTable("Ablation C: elimination front-end", "pairs", "ns/transfer",
		[]string{"plain stack", "eliminating"})
	for _, level := range o.Levels {
		t.Set(fmt.Sprint(level), "plain stack", bestOf(o.Repeats,
			handoffNs(func() SQ { return core.NewDualStack[int64](core.WaitConfig{}) }, level, level, 1, o.Transfers))[0])
		t.Set(fmt.Sprint(level), "eliminating", bestOf(o.Repeats,
			handoffNs(func() SQ { return newElimSQ(0, 5*time.Microsecond) }, level, level, 1, o.Transfers))[0])
	}
	return t
}

// ProcsSweep measures the paper's five algorithms at a fixed pair count
// while sweeping GOMAXPROCS — the "multiprogramming / preemption" axis.
// The paper reports its ordering holds "regardless of preemption or level
// of concurrency"; on a host with few CPUs this sweep is where the
// contention effects the paper measures become visible. GOMAXPROCS is
// restored afterwards.
func ProcsSweep(o SweepOpts, pairs int) *stats.Table {
	o = o.withDefaults([]int{1, 2, 4, 8, 16}, 20000)
	if pairs <= 0 {
		pairs = 16
	}
	prev := runtime.GOMAXPROCS(0)
	defer runtime.GOMAXPROCS(prev)

	algos := Algorithms(o.Extras)
	t := stats.NewTable(
		fmt.Sprintf("Preemption sweep: %d pairs, varying GOMAXPROCS", pairs),
		"procs", "ns/transfer", columnNames(algos))
	for _, procs := range o.Levels {
		runtime.GOMAXPROCS(procs)
		for _, a := range algos {
			if o.Progress != nil {
				o.Progress(0, a.Name, procs)
			}
			t.Set(fmt.Sprint(procs), a.Name,
				bestOf(o.Repeats, handoffNs(a.New, pairs, pairs, 1, o.Transfers))[0])
		}
	}
	return t
}
