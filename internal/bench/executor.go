package bench

import (
	"context"
	"encoding/json"
	"fmt"
	"runtime"
	"strings"
	"sync"
	"time"

	"synchq"
	"synchq/internal/metrics"
	"synchq/internal/stats"
	"synchq/pool"
)

// This file is the RPC-frontend macro-benchmark behind `sqbench -figure
// executor` and the committed BENCH_executor.json artifact: the executor
// tier (deadline-aware admission, bounded backlog with shedding, graceful
// drain) driven by a bursty arrival process, in the two production
// shapes — a cached pool on the synchronous hand-off queue and a bounded
// fixed pool on a buffered work queue with newest-wins shedding. `make
// bench-executor` runs its host-independent regression gate.

// executorService is the simulated per-request handler cost: long enough
// that an overload burst genuinely outruns the workers, short enough that
// a leg finishes in benchmark timescales.
const executorService = 20 * time.Microsecond

// ExecutorLeg is one arrival-pattern phase of a run.
type ExecutorLeg struct {
	Name      string  `json:"name"`
	Offered   int64   `json:"offered"`
	Accepted  int64   `json:"accepted"`
	Rejected  int64   `json:"rejected"`
	Completed int64   `json:"completed"`
	Shed      int64   `json:"shed"`
	ElapsedNs int64   `json:"elapsed_ns"`
	NsPerTask float64 `json:"ns_per_task"`
}

// ExecutorRun is one executor configuration's full measurement: a paced
// steady leg, an overload burst leg, and a bounded graceful drain.
type ExecutorRun struct {
	Series          string      `json:"series"`
	Submitters      int         `json:"submitters"`
	Steady          ExecutorLeg `json:"steady"`
	Burst           ExecutorLeg `json:"burst"`
	DrainNs         int64       `json:"drain_ns"`
	DrainForced     bool        `json:"drain_forced"`
	Returned        int64       `json:"returned"`
	QueueWaitP50Ns  int64       `json:"queue_wait_p50_ns"`
	QueueWaitP99Ns  int64       `json:"queue_wait_p99_ns"`
	Spawned         int64       `json:"workers_spawned"`
	ConservationGap int64       `json:"conservation_gap"`
	LiveAtEnd       int64       `json:"live_at_end"`
}

// ExecutorReport is the JSON document behind BENCH_executor.json.
type ExecutorReport struct {
	Benchmark  string        `json:"benchmark"`
	GOMAXPROCS int           `json:"gomaxprocs"`
	NumCPU     int           `json:"numcpu"`
	Requests   int64         `json:"requests_per_leg"`
	Runs       []ExecutorRun `json:"runs"`
}

// JSON renders the report with stable formatting so the committed
// artifact diffs cleanly across regenerations.
func (r ExecutorReport) JSON() ([]byte, error) {
	return json.MarshalIndent(r, "", "  ")
}

// Headlines renders one line per run under the table.
func (r ExecutorReport) Headlines() string {
	var b strings.Builder
	for _, run := range r.Runs {
		fmt.Fprintf(&b, "%s: burst shed %d, rejected %d; drain %.1fms (forced=%v, returned %d); queue-wait p99 %dns\n",
			run.Series, run.Burst.Shed, run.Burst.Rejected,
			float64(run.DrainNs)/1e6, run.DrainForced, run.Returned, run.QueueWaitP99Ns)
	}
	return b.String()
}

// Gate is the regression check `make bench-executor` enforces. It is
// deliberately host-independent — no wall-clock thresholds — so a
// timeshared CI host cannot flake it:
//
//   - the conservation ledger balances exactly after the drain,
//   - both legs completed real work,
//   - the burst leg actually overloaded (something was shed or rejected),
//   - no worker goroutine outlived the drain.
func (r ExecutorReport) Gate() error {
	for _, run := range r.Runs {
		if run.ConservationGap != 0 {
			return fmt.Errorf("executor gate: %s: conservation gap %d (accepted != completed+shed+returned)",
				run.Series, run.ConservationGap)
		}
		if run.Steady.Completed == 0 || run.Burst.Completed == 0 {
			return fmt.Errorf("executor gate: %s: a leg completed no tasks (steady=%d burst=%d)",
				run.Series, run.Steady.Completed, run.Burst.Completed)
		}
		if run.Burst.Shed+run.Burst.Rejected == 0 {
			return fmt.Errorf("executor gate: %s: the burst leg neither shed nor rejected — overload never bit",
				run.Series)
		}
		if run.LiveAtEnd != 0 {
			return fmt.Errorf("executor gate: %s: %d workers still live after drain", run.Series, run.LiveAtEnd)
		}
	}
	return nil
}

// executorSeries is one benchmarked configuration.
type executorSeries struct {
	name  string
	build func(h *metrics.Handle, submitters int) *pool.Pool
	// steadyDeadline / burstDeadline are the per-request SLOs.
	steadyDeadline, burstDeadline time.Duration
}

func executorSeriesDefs(procs int) []executorSeries {
	maxWorkers := procs * 4
	if maxWorkers > 64 {
		maxWorkers = 64
	}
	return []executorSeries{
		{
			// The paper's §6 shape: a cached pool over the synchronous
			// hand-off queue, with bounded blocking backpressure.
			name: "cached-synchronous",
			build: func(h *metrics.Handle, _ int) *pool.Pool {
				return pool.New(synchq.New[pool.Task](synchq.Fair(true)), pool.Config{
					KeepAlive:          50 * time.Millisecond,
					MaxWorkers:         maxWorkers,
					OnSaturation:       pool.BlockWithDeadline,
					SaturationPatience: 100 * time.Microsecond,
					Metrics:            h,
				})
			},
			steadyDeadline: 100 * time.Millisecond,
			burstDeadline:  2 * time.Millisecond,
		},
		{
			// The load-shedding frontend shape: a bounded fixed pool over
			// a buffered work queue, newest-wins under overload.
			name: "buffered-shedding",
			build: func(h *metrics.Handle, _ int) *pool.Pool {
				return pool.New(pool.NewBuffered(), pool.Config{
					KeepAlive:    50 * time.Millisecond,
					CoreWorkers:  procs,
					MaxWorkers:   procs,
					MaxPending:   64,
					OnSaturation: pool.ShedOldest,
					Metrics:      h,
				})
			},
			steadyDeadline: 100 * time.Millisecond,
			burstDeadline:  2 * time.Millisecond,
		},
	}
}

// executorLegStats snapshots the counters a leg's deltas are taken from.
type executorLegStats struct{ accepted, rejected, completed, shed int64 }

func executorSnap(p *pool.Pool) executorLegStats {
	st := p.Stats()
	return executorLegStats{st.Accepted, st.Rejected + st.Expired, st.Completed, st.Shed}
}

// runExecutorLeg drives one arrival pattern: `submitters` goroutines
// offering `requests` total simulated RPCs with the given deadline.
// pace > 0 spaces consecutive submissions (steady load); pace == 0 fires
// salvo bursts back to back (overload).
func runExecutorLeg(p *pool.Pool, name string, submitters int, requests int64, deadline, pace time.Duration) ExecutorLeg {
	quota := split(requests, submitters)
	before := executorSnap(p)
	handler := func() {
		t0 := time.Now()
		for time.Since(t0) < executorService {
		}
	}

	var wg sync.WaitGroup
	var offered int64
	start := make(chan struct{})
	for i := 0; i < submitters; i++ {
		wg.Add(1)
		go func(n int64) {
			defer wg.Done()
			<-start
			for j := int64(0); j < n; j++ {
				ctx, cancel := context.WithTimeout(context.Background(), deadline)
				p.SubmitContext(ctx, handler)
				cancel()
				if pace > 0 {
					time.Sleep(pace)
				} else if j%50 == 49 {
					// Bursty arrivals: salvos of 50 with a gap.
					time.Sleep(200 * time.Microsecond)
				}
			}
		}(quota[i])
	}
	for _, n := range quota {
		offered += n
	}

	t0 := time.Now()
	close(start)
	wg.Wait()
	// Let the accepted backlog of this leg finish before measuring, so
	// leg deltas do not bleed into each other (bounded wait: the backlog
	// is capped and every pending task either runs or sheds).
	for i := 0; i < 4000; i++ {
		st := p.Stats()
		if st.Pending == 0 && st.Active == 0 {
			break
		}
		time.Sleep(500 * time.Microsecond)
	}
	elapsed := time.Since(t0)

	after := executorSnap(p)
	leg := ExecutorLeg{
		Name:      name,
		Offered:   offered,
		Accepted:  after.accepted - before.accepted,
		Rejected:  after.rejected - before.rejected,
		Completed: after.completed - before.completed,
		Shed:      after.shed - before.shed,
		ElapsedNs: elapsed.Nanoseconds(),
	}
	if leg.Completed > 0 {
		leg.NsPerTask = float64(leg.ElapsedNs) / float64(leg.Completed)
	}
	return leg
}

// Executor runs the macro-benchmark and returns both renderings: the
// aligned table for the terminal and the JSON report for the artifact.
func Executor(o SweepOpts) (*stats.Table, ExecutorReport) {
	procs := runtime.GOMAXPROCS(0)
	submitters := procs * 2
	requests := o.Transfers
	if requests <= 0 {
		requests = 20000
	}

	report := ExecutorReport{
		Benchmark:  "executor",
		GOMAXPROCS: procs,
		NumCPU:     runtime.NumCPU(),
		Requests:   requests,
	}
	cols := []string{"steady ns/task", "burst ns/task", "burst shed", "burst rejected", "returned", "drain µs"}
	t := stats.NewTable("Executor: bursty RPC frontend (admission, shedding, graceful drain)",
		"series", "", cols)

	for _, s := range executorSeriesDefs(procs) {
		if o.Progress != nil {
			o.Progress(0, s.name+" [executor]", submitters)
		}
		h := metrics.New()
		p := s.build(h, submitters)

		run := ExecutorRun{Series: s.name, Submitters: submitters}
		// Steady leg: arrivals paced near capacity, generous SLOs.
		pace := executorService * time.Duration(submitters) / time.Duration(procs)
		run.Steady = runExecutorLeg(p, "steady", submitters, requests, s.steadyDeadline, pace)
		// Burst leg: salvo arrivals far over capacity, tight SLOs.
		run.Burst = runExecutorLeg(p, "burst", submitters, requests, s.burstDeadline, 0)

		// Graceful drain with a tight bound, mid-keep-alive: phase 2
		// usually finishes (the legs waited out their backlogs), but the
		// bound keeps a loaded CI host from hanging the benchmark.
		dctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
		d0 := time.Now()
		res := p.Drain(dctx)
		cancel()
		run.DrainNs = time.Since(d0).Nanoseconds()
		run.DrainForced = res.Forced
		run.Returned = int64(len(res.Returned))

		st := p.Stats()
		run.Spawned = st.Spawned
		run.ConservationGap = st.ConservationGap()
		run.LiveAtEnd = st.Live
		hg := h.Histograms().Get(metrics.QueueWaitNs)
		if hg.Count() > 0 {
			run.QueueWaitP50Ns = int64(hg.Percentile(0.50))
			run.QueueWaitP99Ns = int64(hg.Percentile(0.99))
		}
		report.Runs = append(report.Runs, run)

		t.Set(s.name, cols[0], run.Steady.NsPerTask)
		t.Set(s.name, cols[1], run.Burst.NsPerTask)
		t.Set(s.name, cols[2], float64(run.Burst.Shed))
		t.Set(s.name, cols[3], float64(run.Burst.Rejected))
		t.Set(s.name, cols[4], float64(run.Returned))
		t.Set(s.name, cols[5], float64(run.DrainNs)/1e3)
	}
	return t, report
}
