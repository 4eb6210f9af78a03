package main

import (
	"context"
	"fmt"
	"math/rand/v2"
	"runtime"
	"sync/atomic"
	"time"

	"synchq"
	"synchq/cmd/sqperf/internal/perf"
	"synchq/pool"
)

// The executor workload: the paper's Fig. 6 cached thread pool, driven
// open loop. The rate sits below this shape's knee on a 2-CPU host (at
// 40 000 tasks/s the median start latency is already ~20x higher).
const (
	execRate = 20000.0 // Poisson arrivals per second
	// Shared 2-CPU hosts stall a process for 10-20 ms now and then; the
	// deadline outlasts such stalls so they delay tasks instead of failing
	// them, and a saturated pool makes a submission wait for a worker as
	// long as the task's deadline allows.
	execDeadline   = 100 * time.Millisecond
	execPatience   = execDeadline
	execWork       = 20 * time.Microsecond // CPU each task body spins
	execMaxWorkers = 64
	// A run whose generator was late by more than this on average did not
	// offer the load it claims, and is marked invalid.
	execMaxMeanLate = 50 * time.Microsecond
)

// poissonArrivals draws the arrival schedule, in ns after the generator
// starts, for a phase of the given length.
func poissonArrivals(seed uint64, span time.Duration) []int64 {
	rng := rand.New(rand.NewPCG(seed, 0xa771))
	var due []int64
	for t := 0.0; ; {
		t += rng.ExpFloat64() / execRate * 1e9
		if t >= float64(span) {
			return due
		}
		due = append(due, int64(t))
	}
}

func newExecPool(q pool.Queue) *pool.Pool {
	return pool.New(q, pool.Config{
		MaxWorkers:         execMaxWorkers,
		OnSaturation:       pool.BlockWithDeadline,
		SaturationPatience: execPatience,
	})
}

// runExecutor offers warmup+measure worth of Poisson arrivals, then drains
// the pool and checks its ledger. Latency runs from each arrival's due
// time to the start of its body, so generator stalls count; a task that
// failed (rejected, expired, shed) counts as late by the whole deadline.
// m instruments the queue when non-nil; tr records spans when non-nil.
func runExecutor(seed uint64, warmup, measure time.Duration, m *synchq.Metrics, tr *perf.Tracer) phase {
	due := poissonArrivals(seed, warmup+measure)
	n := len(due)
	startAt := make([]int64, n)
	ran := make([]atomic.Int32, n)
	late := make([]int64, n)
	refused := make([]bool, n)

	q := synchq.New[pool.Task](synchq.Fair(true), synchq.Instrument(m))
	var pq pool.Queue = q
	var tq *tracedQueue
	if tr != nil {
		tq = &tracedQueue{q: q, tr: tr}
		pq = tq
	}
	p := newExecPool(pq)

	warm := int64(warmup)
	var ms0, ms1 runtime.MemStats
	var st0 synchq.Stats
	measuring := false
	bg := context.Background()
	epoch := time.Now()
	since := func() int64 { return int64(time.Since(epoch)) }
	for i, d := range due {
		if !measuring && d >= warm {
			runtime.ReadMemStats(&ms0)
			st0 = m.Stats()
			measuring = true
		}
		// Pace by yielding, never by sleeping: a timer wake-up is late by
		// far more than the latencies being measured.
		now := since()
		for now < d {
			runtime.Gosched()
			now = since()
		}
		late[i] = now - d
		traced := tr != nil && i%8 == 0
		task := func() {
			s := since()
			var t0 int64
			if traced {
				t0 = tr.Now()
			}
			startAt[i] = s
			for since()-s < int64(execWork) {
			}
			ran[i].Add(1)
			if traced {
				tr.Add("task", tr.NewID(), 0, t0, tr.Now())
			}
		}
		ctx, cancel := context.WithDeadline(bg, epoch.Add(time.Duration(d)+execDeadline))
		var err error
		if traced {
			id, t0 := tr.NewID(), tr.Now()
			tq.parent = id
			err = p.SubmitContext(ctx, task)
			tq.parent = 0
			tr.Add("pool.submit", id, 0, t0, tr.Now())
		} else {
			err = p.SubmitContext(ctx, task)
		}
		cancel()
		refused[i] = err != nil
	}
	runtime.ReadMemStats(&ms1)
	ph := phase{attempted: int64(n), counters: diffStats(m.Stats(), st0), width: q.Shards()}

	dctx, dcancel := context.WithTimeout(bg, 10*time.Second)
	p.Drain(dctx)
	dcancel()
	ph.pool = p.Stats()
	ph.probs = checkExecutor(ph.pool, ran, refused)

	var completed, measured int64
	var lateNs, dispatch []float64
	nw, w := windowsFor(measure)
	starts := make([]int64, nw)
	for i, d := range due {
		ok := ran[i].Load() == 1
		if ok {
			completed++
			if k := (startAt[i] - warm) / int64(w); startAt[i] >= warm && k < int64(nw) {
				starts[k]++
			}
		}
		if d < warm {
			continue
		}
		measured++
		lateNs = append(lateNs, float64(late[i]))
		if !ok {
			ph.lat = append(ph.lat, float64(execDeadline))
			continue
		}
		ph.ops++
		ph.lat = append(ph.lat, float64(startAt[i]-d))
		dispatch = append(dispatch, float64(startAt[i]-d-late[i]))
	}
	for _, c := range starts {
		ph.rates = append(ph.rates, float64(c)/w.Seconds())
	}
	ph.failed = int64(n) - completed
	ph.fill = ratio(ph.pool.Completed, ph.pool.Handoffs+ph.pool.Spawned)
	if measured > 0 {
		ph.bytes = float64(ms1.TotalAlloc-ms0.TotalAlloc) / float64(measured)
	} else {
		ph.probs = append(ph.probs, "no arrival fell in the measured phase")
	}

	lateNs, dispatch = perf.Sorted(lateNs), perf.Sorted(dispatch)
	var lateSum float64
	for _, l := range lateNs {
		lateSum += l
	}
	meanLate := lateSum / float64(max(1, len(lateNs)))
	if meanLate > float64(execMaxMeanLate) {
		ph.invalid = fmt.Sprintf("generator mean lateness %.1f µs exceeds %v: the offered load fell short", meanLate/1e3, execMaxMeanLate)
	}
	ph.diag = append(ph.diag,
		metric{"generator_late_p50_us", perf.Percentile(lateNs, 0.5) / 1e3, "us"},
		metric{"generator_late_p99_us", perf.Percentile(lateNs, 0.99) / 1e3, "us"},
		metric{"generator_late_mean_us", meanLate / 1e3, "us"},
		metric{"dispatch_ns_p50", perf.Percentile(dispatch, 0.5), "ns"},
		metric{"dispatch_ns_p90", perf.Percentile(dispatch, 0.9), "ns"},
		metric{"rejected", float64(ph.pool.Rejected), "count"},
		metric{"shed", float64(ph.pool.Shed), "count"})
	return ph
}

// checkExecutor verifies the pool's ledger after Drain: it balances
// exactly, nothing is left pending or running, no task body ran twice,
// and the pool's counts agree with what the generator and the bodies saw.
func checkExecutor(st pool.Stats, ran []atomic.Int32, refused []bool) []string {
	var probs []string
	var completed, twice, refusals int64
	for i := range ran {
		switch r := ran[i].Load(); {
		case r == 1:
			completed++
		case r > 1:
			twice++
		}
		if refused[i] {
			refusals++
		}
	}
	if g := st.ConservationGap(); g != 0 {
		probs = append(probs, fmt.Sprintf("executor conservation gap %d after Drain", g))
	}
	if st.Pending != 0 || st.Active != 0 || st.Live != 0 {
		probs = append(probs, fmt.Sprintf("after Drain: %d pending, %d active, %d live workers", st.Pending, st.Active, st.Live))
	}
	if twice > 0 {
		probs = append(probs, fmt.Sprintf("%d task bodies ran more than once", twice))
	}
	if completed != st.Completed {
		probs = append(probs, fmt.Sprintf("%d task bodies ran but the pool counts %d completed", completed, st.Completed))
	}
	if refusals != st.Rejected || st.Accepted+st.Rejected != int64(len(ran)) {
		probs = append(probs, fmt.Sprintf("%d submissions, %d refused to the caller, pool counts %d accepted and %d rejected",
			len(ran), refusals, st.Accepted, st.Rejected))
	}
	return probs
}

// setupExecutor times one set-up: building the queue and the pool and
// submitting the first task, up to the start of its body, as the body
// clocks it.
func setupExecutor() (time.Duration, []string) {
	started := make(chan time.Duration, 1)
	t0 := time.Now()
	p := newExecPool(synchq.New[pool.Task](synchq.Fair(true)))
	ctx, cancel := context.WithTimeout(context.Background(), execDeadline)
	err := p.SubmitContext(ctx, func() { started <- time.Since(t0) })
	cancel()
	var d time.Duration
	if err == nil {
		d = <-started
	}
	p.Drain(context.Background())
	var probs []string
	if err != nil {
		probs = append(probs, fmt.Sprintf("first submission refused: %v", err))
	}
	if st := p.Stats(); st.ConservationGap() != 0 || st.Completed != 1 {
		probs = append(probs, fmt.Sprintf("set-up pool ledger: %+v", st))
	}
	return d, probs
}

// tracedQueue times the pool's calls into the synchronous queue. Only the
// generator submits, so only it offers and only it touches parent.
type tracedQueue struct {
	q      *synchq.SynchronousQueue[pool.Task]
	tr     *perf.Tracer
	parent uint64 // the traced pool.submit span in progress, or 0
	polls  atomic.Int64
}

func (t *tracedQueue) Offer(task pool.Task) bool {
	if t.parent == 0 {
		return t.q.Offer(task)
	}
	t0 := t.tr.Now()
	ok := t.q.Offer(task)
	t.tr.Add("synchq.put", t.tr.NewID(), t.parent, t0, t.tr.Now())
	return ok
}

func (t *tracedQueue) OfferWait(task pool.Task, deadline time.Time, cancel <-chan struct{}) bool {
	if t.parent == 0 {
		return t.q.OfferWait(task, deadline, cancel)
	}
	t0 := t.tr.Now()
	ok := t.q.OfferWait(task, deadline, cancel)
	t.tr.Add("synchq.put", t.tr.NewID(), t.parent, t0, t.tr.Now())
	return ok
}

func (t *tracedQueue) PollTimeout(d time.Duration) (pool.Task, bool) { return t.q.PollTimeout(d) }

// PollWait traces one idle worker poll in eight.
func (t *tracedQueue) PollWait(deadline time.Time, cancel <-chan struct{}) (pool.Task, bool) {
	if t.polls.Add(1)&7 != 0 {
		return t.q.PollWait(deadline, cancel)
	}
	t0 := t.tr.Now()
	v, ok := t.q.PollWait(deadline, cancel)
	t.tr.Add("synchq.take", t.tr.NewID(), 0, t0, t.tr.Now())
	return v, ok
}

func (t *tracedQueue) Close() { t.q.Close() }
