package main

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"synchq"
	"synchq/cmd/sqperf/internal/perf"
	"synchq/internal/core"
	"synchq/internal/park"
	"synchq/internal/segq"
	"synchq/pool"
)

// The layer ladder: the same closed-loop hand-off at 1 and 4 producer/
// consumer pairs, each rung built by a different public constructor. A
// layer's tax is its rung's ns/transfer minus the rung below it.

// ladderPairs are the rung widths, reported as the .p1 and .p4 suffixes.
var ladderPairs = [2]int{1, 4}

type handoffQueue interface {
	Put(int64)
	Take() int64
}

type rung struct {
	name  string
	build func(m *synchq.Metrics) handoffQueue
}

var rungs = []rung{
	{"core", func(*synchq.Metrics) handoffQueue { return core.NewDualQueue[int64](core.WaitConfig{}) }},
	{"synchq", func(*synchq.Metrics) handoffQueue { return synchq.New[int64](synchq.Fair(true)) }},
	{"metrics", func(m *synchq.Metrics) handoffQueue {
		return synchq.New[int64](synchq.Fair(true), synchq.Instrument(m))
	}},
	{"shard", func(m *synchq.Metrics) handoffQueue {
		return synchq.New[int64](synchq.Fair(true), synchq.Instrument(m), synchq.AutoShard())
	}},
	{"exchanger", func(m *synchq.Metrics) handoffQueue {
		return synchq.NewEliminatingQueue[int64](synchq.Fair(true), synchq.Instrument(m),
			synchq.AutoShard(), synchq.EliminatingAdaptive())
	}},
	{"segq", func(*synchq.Metrics) handoffQueue { return segq.New[int64](core.WaitConfig{}) }},
	{"synchq_segq", func(*synchq.Metrics) handoffQueue { return synchq.New[int64](synchq.Segmented()) }},
}

// allRungs adds the pool rung, which poolCell measures instead of
// handoffCell.
var allRungs = append(rungs[:len(rungs):len(rungs)], rung{name: "pool"})

// ladderResult holds every rung's cost per transfer, at each width.
type ladderResult struct {
	ns, allocs map[string][2]float64 // by rung name, then width index
	elimHit    float64               // exchanger rungs: arena hits per arena attempt
	parkNs     float64               // park/unpark round trip
	submit     []float64             // pool rung: ns inside Submit
	dispatch   []float64             // pool rung: ns from Submit entry to body start
	probs      []string
}

// count is a per-goroutine counter on its own cache line.
type count struct {
	atomic.Int64
	_ [56]byte
}

func sum(cs []count) int64 {
	var n int64
	for i := range cs {
		n += cs[i].Load()
	}
	return n
}

// window runs the load started by the caller through a warm-up of cell/10
// and a measured cell, and returns the transfers, heap allocations and
// nanoseconds of the measured part.
func window(cs []count, cell time.Duration) (n int64, mallocs uint64, ns float64) {
	var ms0, ms1 runtime.MemStats
	time.Sleep(cell / 10)
	runtime.ReadMemStats(&ms0)
	n0, t0 := sum(cs), time.Now()
	time.Sleep(cell)
	n1, t1 := sum(cs), time.Now()
	runtime.ReadMemStats(&ms1)
	return n1 - n0, ms1.Mallocs - ms0.Mallocs, float64(t1.Sub(t0))
}

// handoffCell runs pairs producer/consumer pairs through q for one cell.
func handoffCell(q handoffQueue, pairs int, cell time.Duration) (nsPer, allocsPer float64, err error) {
	var stop atomic.Bool
	cs := make([]count, pairs)
	var wg sync.WaitGroup
	for i := range cs {
		wg.Add(2)
		go func() {
			defer wg.Done()
			for v := int64(0); !stop.Load(); v++ {
				q.Put(v)
			}
			q.Put(poison) // one poison per consumer: each stops at its first
		}()
		go func(c *count) {
			defer wg.Done()
			for n := int64(1); ; n++ {
				if q.Take() == poison {
					return
				}
				if n&63 == 0 {
					c.Store(n)
				}
			}
		}(&cs[i])
	}
	n, mallocs, ns := window(cs, cell)
	stop.Store(true)
	wg.Wait()
	if n == 0 {
		return 0, 0, fmt.Errorf("no transfer completed")
	}
	return ns / float64(n), float64(mallocs) / float64(n), nil
}

// poolCell is the executor rung: submitters closed-loop submit a task to a
// cached pool over New(Fair(true)) and wait for its body to signal them.
// One submission in eight is timed, and its Submit call recorded as a
// ladder.pool.submit span.
func poolCell(submitters int, cell time.Duration, tr *perf.Tracer, lr *ladderResult) (nsPer, allocsPer float64, err error) {
	pl := pool.New(synchq.New[pool.Task](synchq.Fair(true)), pool.Config{})
	var stop atomic.Bool
	var failed atomic.Int64
	cs := make([]count, submitters)
	submit := make([][]float64, submitters)
	dispatch := make([][]float64, submitters)
	var wg sync.WaitGroup
	for i := range cs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			done := make(chan struct{}, 1)
			var sampled bool
			var bodyAt int64
			task := func() {
				if sampled {
					bodyAt = tr.Now()
				}
				done <- struct{}{}
			}
			for n := int64(1); !stop.Load(); n++ {
				sampled = n&7 == 0
				var id uint64
				var t0 int64
				if sampled {
					id, t0 = tr.NewID(), tr.Now()
				}
				if err := pl.Submit(task); err != nil {
					failed.Add(1)
					return
				}
				if sampled {
					t1 := tr.Now()
					tr.Add("ladder.pool.submit", id, 0, t0, t1)
					submit[i] = append(submit[i], float64(t1-t0))
				}
				<-done
				if sampled {
					dispatch[i] = append(dispatch[i], float64(bodyAt-t0))
				}
				if n&63 == 0 {
					cs[i].Store(n)
				}
			}
		}(i)
	}
	n, mallocs, ns := window(cs, cell)
	stop.Store(true)
	wg.Wait()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	pl.Drain(ctx)
	cancel()
	for i := range submit {
		lr.submit = append(lr.submit, submit[i]...)
		lr.dispatch = append(lr.dispatch, dispatch[i]...)
	}
	if st := pl.Stats(); st.ConservationGap() != 0 || failed.Load() != 0 {
		return 0, 0, fmt.Errorf("pool rung: %d refused submissions, ledger %+v", failed.Load(), st)
	}
	if n == 0 {
		return 0, 0, fmt.Errorf("pool rung: no task completed")
	}
	return ns / float64(n), float64(mallocs) / float64(n), nil
}

// parkCell ping-pongs two goroutines through internal/park parkers and
// returns the ns per round trip.
func parkCell(cell time.Duration) (float64, error) {
	a, b := park.New(), park.New()
	var stop, done atomic.Bool
	cs := make([]count, 1)
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		for {
			b.Park()
			if done.Load() {
				return
			}
			a.Unpark()
		}
	}()
	go func() {
		defer wg.Done()
		for n := int64(1); !stop.Load(); n++ {
			b.Unpark()
			a.Park()
			if n&63 == 0 {
				cs[0].Store(n)
			}
		}
		done.Store(true)
		b.Unpark()
	}()
	n, _, ns := window(cs, cell)
	stop.Store(true)
	wg.Wait()
	if n == 0 {
		return 0, fmt.Errorf("park: no round trip completed")
	}
	return ns / float64(n), nil
}

// ladderCells is the number of cells runLadder measures, for sizing cell.
var ladderCells = len(allRungs)*len(ladderPairs) + 1

// runLadder measures every rung at both widths, the pool rung and the park
// round trip, each for cell (plus a tenth of it as warm-up).
func runLadder(cell time.Duration, tr *perf.Tracer) ladderResult {
	lr := ladderResult{ns: map[string][2]float64{}, allocs: map[string][2]float64{}}
	var hits, misses int64
	for _, rg := range allRungs {
		var ns, allocs [2]float64
		for i, p := range ladderPairs {
			var err error
			if rg.name == "pool" {
				ns[i], allocs[i], err = poolCell(p, cell, tr, &lr)
			} else {
				m := synchq.NewMetrics()
				ns[i], allocs[i], err = handoffCell(rg.build(m), p, cell)
				c := m.Stats().Counters
				hits += c["elim-hits"]
				misses += c["elim-misses"]
			}
			if err != nil {
				lr.probs = append(lr.probs, fmt.Sprintf("ladder %s.p%d: %v", rg.name, p, err))
			}
		}
		lr.ns[rg.name], lr.allocs[rg.name] = ns, allocs
	}
	lr.elimHit = ratio(hits, hits+misses)
	var err error
	if lr.parkNs, err = parkCell(cell); err != nil {
		lr.probs = append(lr.probs, err.Error())
	}
	return lr
}

// ratio is a/b, or 0 when nothing was attempted.
func ratio(a, b int64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}
