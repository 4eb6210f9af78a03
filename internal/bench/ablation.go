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
		{"park-only", core.WaitConfig{TimedSpins: -1, UntimedSpins: -1}},
		{"spin-heavy", core.WaitConfig{TimedSpins: 512, UntimedSpins: 4096}},
	}
	var cols []string
	for _, pol := range policies {
		cols = append(cols, "stack/"+pol.name, "queue/"+pol.name)
	}
	t := stats.NewTable("Ablation A: wait policy (spin-then-park)", "pairs", "ns/transfer", cols)
	for _, level := range o.Levels {
		for _, pol := range policies {
			cfg := pol.cfg
			stack := Algorithm{New: func() SQ { return core.NewDualStack[int64](cfg) }}
			queue := Algorithm{New: func() SQ { return core.NewDualQueue[int64](cfg) }}
			t.Set(fmt.Sprint(level), "stack/"+pol.name,
				measure(stack, level, level, o.Transfers, o.Repeats))
			t.Set(fmt.Sprint(level), "queue/"+pol.name,
				measure(queue, level, level, o.Transfers, o.Repeats))
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
				q.OfferTimeout(i, p)
			}
			t.Set(fmt.Sprint(level), "queue/"+p.String(),
				float64(time.Since(t0).Nanoseconds())/float64(o.Transfers))

			s := core.NewDualStack[int64](core.WaitConfig{})
			t0 = time.Now()
			for i := int64(0); i < o.Transfers; i++ {
				s.OfferTimeout(i, p)
			}
			t.Set(fmt.Sprint(level), "stack/"+p.String(),
				float64(time.Since(t0).Nanoseconds())/float64(o.Transfers))
		}
	}
	return t
}

// elimSQ pairs an arena with a dual stack, mirroring synchq's front-end
// without importing the public package (internal packages stay acyclic).
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
		plain := Algorithm{New: func() SQ { return core.NewDualStack[int64](core.WaitConfig{}) }}
		elim := Algorithm{New: func() SQ { return newElimSQ(0, 5*time.Microsecond) }}
		t.Set(fmt.Sprint(level), "plain stack",
			measure(plain, level, level, o.Transfers, o.Repeats))
		t.Set(fmt.Sprint(level), "eliminating",
			measure(elim, level, level, o.Transfers, o.Repeats))
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
				measure(a, pairs, pairs, o.Transfers, o.Repeats))
		}
	}
	return t
}
