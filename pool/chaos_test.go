package pool

// History-bridge chaos tests: the executor tier's contract, expressed in
// the same recorded-history vocabulary the core structures are verified
// with. A Submit that returns nil is a successful Put of a unique value;
// the task's execution is the matching Take. Conservation then reads
// "every accepted task ran exactly once — none lost, none run twice" and
// is checked by verify.CheckClassified over the bridged history, with the
// backing synchronous queue running under the deterministic fault
// injector. Synchrony deliberately does not apply: execution is
// asynchronous, so the synchrony class of the classifier is ignored here
// (that asymmetry is exactly why the classifier splits its verdicts).

import (
	"context"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"synchq/internal/core"
	"synchq/internal/fault"
	"synchq/internal/metrics"
	"synchq/internal/verify"
)

// chaosQueue adapts a fault-injected dual queue to the pool's Queue.
type chaosQueue struct{ q *core.DualQueue[Task] }

func (cq chaosQueue) Offer(t Task) bool {
	return cq.q.PutDeadline(t, core.DeadlineFor(0), nil) == core.OK
}

func (cq chaosQueue) PollTimeout(d time.Duration) (Task, bool) {
	v, st := cq.q.TakeDeadline(core.DeadlineFor(d), nil)
	return v, st == core.OK
}

// bridgedPool runs a submission storm against a pool whose hand-off queue
// is under chaos injection and returns the bridged history.
func bridgedPool(t *testing.T, seed uint64, submitters, perSubmitter int, keepAlive time.Duration) []verify.Op {
	t.Helper()
	inj := fault.Chaos(seed)
	q := core.NewDualQueue[Task](core.WaitConfig{Metrics: metrics.New(), Fault: inj})
	p := New(chaosQueue{q}, Config{KeepAlive: keepAlive, MaxWorkers: 16})

	rec := verify.NewRecorder()
	// Executions are recorded on a dedicated log per worker-side value:
	// tasks may run on any worker goroutine, so the record itself is
	// funneled through a mutex-guarded log (contention here is fine — the
	// bridge measures the pool, not the recorder).
	var execMu sync.Mutex
	execLog := rec.NewThread()

	var accepted, executed atomic.Int64
	var wg sync.WaitGroup
	for s := 0; s < submitters; s++ {
		wg.Add(1)
		go func(id int64) {
			defer wg.Done()
			log := rec.NewThread()
			for seq := int64(0); seq < int64(perSubmitter); seq++ {
				v := id<<40 | seq
				inv := log.Begin()
				err := p.Submit(func() {
					execMu.Lock()
					execInv := execLog.Begin()
					execLog.End(verify.Take, v, execInv, true)
					execMu.Unlock()
					executed.Add(1)
				})
				log.End(verify.Put, v, inv, err == nil)
				if err == nil {
					accepted.Add(1)
				}
			}
		}(int64(s))
	}
	wg.Wait()
	p.Shutdown()
	p.Wait()
	q.Close()

	if acc, exe := accepted.Load(), executed.Load(); acc != exe {
		t.Fatalf("accepted %d tasks but executed %d", acc, exe)
	}
	return rec.History()
}

func TestPoolChaosConservation(t *testing.T) {
	for _, seed := range []uint64{1, 42, 1979} {
		history := bridgedPool(t, seed, 8, 200, 2*time.Millisecond)
		c := verify.CheckClassified(history, true)
		// Only the conservation class applies to an asynchronous tier.
		for _, e := range c.Conservation {
			t.Errorf("seed %d: %s", seed, e)
		}
		if c.Transfers == 0 && len(c.Synchrony) == 0 {
			t.Errorf("seed %d: no task executions recorded", seed)
		}
	}
}

// TestPoolChaosWorkerChurn uses a near-zero keep-alive so workers retire
// between submissions constantly: every hand-off then crosses the
// spawn/retire race, the queue's timeout and clean paths run under
// injected CAS failures, and conservation must still hold.
func TestPoolChaosWorkerChurn(t *testing.T) {
	history := bridgedPool(t, 7, 4, 300, 50*time.Microsecond)
	c := verify.CheckClassified(history, true)
	for _, e := range c.Conservation {
		t.Error(e)
	}
}

// chaosWaitQueue adapts the fault-injected dual queue to the pool's
// WaitQueue surface, so blocking offers and cancelable idle polls run the
// queue's deadline/cancel paths under injection (the production shape).
type chaosWaitQueue struct{ q *core.DualQueue[Task] }

func (cq chaosWaitQueue) Offer(t Task) bool { return chaosQueue(cq).Offer(t) }
func (cq chaosWaitQueue) PollTimeout(d time.Duration) (Task, bool) {
	return chaosQueue(cq).PollTimeout(d)
}
func (cq chaosWaitQueue) Close() { cq.q.Close() }
func (cq chaosWaitQueue) OfferWait(t Task, deadline time.Time, cancel <-chan struct{}) bool {
	return cq.q.PutDeadline(t, deadline, cancel) == core.OK
}
func (cq chaosWaitQueue) PollWait(deadline time.Time, cancel <-chan struct{}) (Task, bool) {
	v, st := cq.q.TakeDeadline(deadline, cancel)
	return v, st == core.OK
}

// TestPoolChaosFullLedger drives the complete conservation equation under
// injection: a mixed storm (a quarter of the submissions carry µs-scale
// deadlines that may shed at dispatch) is cut short by a tightly bounded
// Drain, whose returned tasks the caller re-runs. At rest the ledger must
// balance exactly — Accepted == Completed + Shed + Returned — and every
// accepted task must have run exactly once (worker- or caller-side) or
// been shed, never both, never neither.
func TestPoolChaosFullLedger(t *testing.T) {
	for _, seed := range []uint64{5, 11} {
		inj := fault.Chaos(seed)
		q := core.NewDualQueue[Task](core.WaitConfig{Metrics: metrics.New(), Fault: inj})
		p := New(chaosWaitQueue{q}, Config{
			KeepAlive:          time.Millisecond,
			MaxWorkers:         8,
			MaxPending:         64,
			OnSaturation:       BlockWithDeadline,
			SaturationPatience: 200 * time.Microsecond,
		})

		var ran atomic.Int64
		var accepted atomic.Int64
		var wg sync.WaitGroup
		for s := 0; s < 8; s++ {
			wg.Add(1)
			go func(id int) {
				defer wg.Done()
				for seq := 0; seq < 200; seq++ {
					ctx := context.Background()
					var cancel context.CancelFunc = func() {}
					if seq%4 == 0 {
						ctx, cancel = context.WithTimeout(ctx, time.Duration(10+seq%50)*time.Microsecond)
					}
					if p.SubmitContext(ctx, func() { ran.Add(1) }) == nil {
						accepted.Add(1)
					}
					cancel()
				}
			}(s)
		}
		time.Sleep(2 * time.Millisecond)
		ctx, cancel := context.WithTimeout(context.Background(), time.Millisecond)
		res := p.Drain(ctx)
		cancel()
		wg.Wait()
		for _, task := range res.Returned {
			task()
		}

		st := p.Stats()
		if gap := st.ConservationGap(); gap != 0 {
			t.Fatalf("seed %d: ledger gap %d: %+v", seed, gap, st)
		}
		if acc := accepted.Load(); acc != st.Accepted {
			t.Fatalf("seed %d: caller counted %d accepted, ledger says %d", seed, acc, st.Accepted)
		}
		if got, want := ran.Load(), st.Completed+st.Returned; got != want {
			t.Fatalf("seed %d: %d executions, want completed+returned = %d (%+v)", seed, got, want, st)
		}
		q.Close()
	}
}

// TestPoolChaosShutdownRejects verifies the closed-pool path under
// injection: once Shutdown is called, Submit must reject with ErrShutdown
// and never leak an accepted-but-unrun task.
func TestPoolChaosShutdownRejects(t *testing.T) {
	inj := fault.Chaos(3)
	q := core.NewDualQueue[Task](core.WaitConfig{Fault: inj})
	p := New(chaosQueue{q}, Config{KeepAlive: time.Millisecond, MaxWorkers: 4})

	var ran atomic.Int64
	accepted := 0
	for i := 0; i < 50; i++ {
		switch err := p.Submit(func() { ran.Add(1) }); err {
		case nil:
			accepted++
		case ErrSaturated: // legal under a tiny MaxWorkers; not a loss
		default:
			t.Fatalf("warm-up submit %d: %v", i, err)
		}
	}
	p.Shutdown()
	p.Wait()
	if err := p.Submit(func() { ran.Add(1) }); err != ErrShutdown {
		t.Fatalf("post-shutdown submit: got %v, want ErrShutdown", err)
	}
	if got := ran.Load(); got != int64(accepted) {
		t.Fatalf("accepted %d tasks, ran %d", accepted, got)
	}
	q.Close()
}
