package bench

import (
	"fmt"
	"sync"
	"time"

	"synchq/internal/stats"
	"synchq/pool"
)

// PoolResult is one cached-thread-pool measurement.
type PoolResult struct {
	Submitters int
	Tasks      int64
	Elapsed    time.Duration
	Workers    int64 // workers ever spawned
	Handoffs   int64 // tasks dispatched to an already-idle worker
}

// NsPerTask returns the Figure 6 metric: average wall nanoseconds per
// executed task.
func (r PoolResult) NsPerTask() float64 {
	if r.Tasks == 0 {
		return 0
	}
	return float64(r.Elapsed.Nanoseconds()) / float64(r.Tasks)
}

// RunPool drives the paper's "real-world" scenario: `submitters`
// goroutines submit `tasks` trivial tasks in total to a cached thread pool
// whose hand-off channel is q, then wait for every task to finish. The
// keep-alive is set short so pool shrinkage is exercised within benchmark
// timescales.
func RunPool(q pool.Queue, submitters int, tasks int64) PoolResult {
	p := pool.New(q, pool.Config{KeepAlive: 50 * time.Millisecond})
	quota := split(tasks, submitters)

	var done sync.WaitGroup
	done.Add(int(tasks))
	task := func() { done.Done() }

	var wg sync.WaitGroup
	start := make(chan struct{})
	for i := 0; i < submitters; i++ {
		wg.Add(1)
		go func(n int64) {
			defer wg.Done()
			<-start
			for j := int64(0); j < n; j++ {
				for p.Submit(task) != nil {
					// Unbounded cached pool: Submit only
					// fails after shutdown, which cannot
					// happen here; retry defensively.
				}
			}
		}(quota[i])
	}

	t0 := time.Now()
	close(start)
	wg.Wait()
	done.Wait()
	elapsed := time.Since(t0)

	st := p.Stats()
	p.Shutdown()
	p.Wait()
	return PoolResult{
		Submitters: submitters,
		Tasks:      tasks,
		Elapsed:    elapsed,
		Workers:    st.Spawned,
		Handoffs:   st.Handoffs,
	}
}

// Figure6 regenerates "ThreadPoolExecutor benchmark": ns/task as the
// number of submitter threads sweeps the paper's levels, one series per
// algorithm that supports the pool's timed interface (Hanson and Naive are
// omitted, as in the paper).
func Figure6(o SweepOpts) *stats.Table {
	o = o.withDefaults(PairLevels, 20000)
	var algos []Algorithm
	for _, a := range Algorithms(o.Extras) {
		if a.NewPoolQueue != nil {
			algos = append(algos, a)
		}
	}
	t := stats.NewTable("Figure 6: CachedThreadPool over synchronous queues", "threads", "ns/task", columnNames(algos))
	for _, level := range o.Levels {
		for _, a := range algos {
			if o.Progress != nil {
				o.Progress(6, a.Name, level)
			}
			t.Set(fmt.Sprint(level), a.Name, bestOf(o.Repeats, func() float64 {
				return RunPool(a.NewPoolQueue(), level, o.Transfers).NsPerTask()
			})[0])
		}
	}
	return t
}
