// Package pool implements a production-grade executor tier in the style of
// java.util.concurrent.ThreadPoolExecutor over a synchronous queue — the
// paper's "real-world" benchmark scenario (Figure 6) and the original
// motivating client of the rich synchronous queue interface.
//
// The hand-off discipline is exactly the executor's: Submit offers the task
// to the synchronous queue, which succeeds only if an idle worker is
// already waiting in a poll; if no worker is waiting, a new worker
// goroutine is spawned with the task in hand. Workers that receive no work
// within the keep-alive interval terminate themselves (never below
// CoreWorkers). The pool therefore grows under load and shrinks when idle,
// and the synchronous queue's pairing performance directly bounds task
// dispatch latency.
//
// On top of that hand-off core the pool layers the robustness machinery a
// production executor needs:
//
//   - Deadline-aware admission: SubmitContext propagates the context's
//     deadline both into the saturation wait (via the queue's timed/
//     cancelable OfferWait) and onto the task itself, so a task whose
//     deadline passes while it sits queued is shed before dispatch — it
//     never runs, and the shed is counted.
//   - Backpressure and shedding: RejectionPolicy grows BlockWithDeadline
//     and ShedOldest arms next to Reject/CallerRuns/Wait, and MaxPending
//     bounds the accepted-but-undispatched backlog so overload degrades by
//     policy instead of unbounded growth.
//   - Conservation: every accepted task is accounted for exactly once —
//     executed, shed, or returned by a forced Drain. Stats exposes the
//     ledger; nothing is ever silently lost.
//   - Multi-phase graceful drain: Drain(ctx) quiesces admission, lets the
//     workers empty the backlog, and only when the context expires forces
//     the remainder back to the caller, composing on the queue's lock-free
//     Close and exiting with no leaked goroutines.
//   - Worker-lifecycle hardening: the Submit/Shutdown spawn race is closed
//     by a post-spawn re-check, panics are contained per task with
//     crash-loop detection that backs off pool growth during a panic
//     storm, and keep-alive retirement can never undershoot CoreWorkers.
package pool

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"time"

	"synchq/internal/fault"
	"synchq/internal/metrics"
)

// Task is a unit of work. A nil Task is reserved by the pool as a poison
// pill and is rejected by Submit.
type Task func()

// Queue is the hand-off channel between Submit and idle workers: any
// synchronous queue carrying tasks. Offer must succeed only if a worker is
// currently waiting in PollTimeout — synchronous hand-off semantics. Both
// the paper's new algorithms and the Java 5 baseline satisfy this (via
// synchq.SynchronousQueue[pool.Task] and friends).
type Queue interface {
	Offer(t Task) bool
	PollTimeout(d time.Duration) (Task, bool)
}

// WaitQueue is the extended hand-off contract: a Queue whose blocking
// operations take a deadline and a cancellation channel (a zero deadline
// means no deadline; a nil channel never fires). The synchq structures all
// satisfy it, and the pool uses it to make saturation waits and idle
// worker polls truly blocking and cancelable — no busy retry loops. A
// plain Queue still works: the pool falls back to poison pills for
// shutdown wake-ups and a yielding retry loop for blocking offers.
type WaitQueue interface {
	Queue
	OfferWait(t Task, deadline time.Time, cancel <-chan struct{}) bool
	PollWait(deadline time.Time, cancel <-chan struct{}) (Task, bool)
}

// BatchQueue is the optional bulk facet of a queue: DrainTo appends up to
// max immediately available tasks to buf without waiting. When the backing
// queue provides it (synchq.SynchronousQueue[pool.Task] and the NewBuffered
// work queue both do) and Config.DispatchBatch asks for it, a worker that
// wakes for one task claims a small batch in the same wakeup.
type BatchQueue interface {
	DrainTo(buf []Task, max int) []Task
}

// Closer is the optional graceful-close facet of a queue. When the backing
// queue provides it (every synchq structure does), a forced Drain closes
// the queue so blocked producers and idle workers wake immediately with
// the closed status instead of burning their full patience.
type Closer interface{ Close() }

// Errors returned by Submit and SubmitContext.
var (
	// ErrShutdown is returned after Shutdown has been called.
	ErrShutdown = errors.New("pool: shut down")
	// ErrDraining is returned while a Drain is quiescing admission.
	ErrDraining = errors.New("pool: draining")
	// ErrNilTask is returned for a nil task.
	ErrNilTask = errors.New("pool: nil task")
	// ErrSaturated is returned when the pool is saturated (at MaxWorkers
	// with no idle worker, or at the MaxPending admission budget) and the
	// rejection policy refuses the submission.
	ErrSaturated = errors.New("pool: saturated")
	// ErrExpired is returned when the submission's deadline passed before
	// the task could be admitted.
	ErrExpired = errors.New("pool: deadline expired")
)

// RejectionPolicy says what Submit does when the pool is saturated: at
// MaxWorkers with no idle worker, or at the MaxPending admission budget.
type RejectionPolicy int

const (
	// Reject makes Submit return ErrSaturated.
	Reject RejectionPolicy = iota
	// CallerRuns makes Submit execute the task on the calling goroutine,
	// providing natural backpressure.
	CallerRuns
	// Wait makes Submit block until the task is admitted, the submission
	// deadline passes, the caller's context is canceled, or the pool
	// shuts down. The block is a real queue-level OfferWait (or budget
	// wait), not a retry spin.
	Wait
	// BlockWithDeadline blocks like Wait but gives up after
	// SaturationPatience (or the submission deadline, whichever is
	// sooner) and returns ErrSaturated — bounded backpressure.
	BlockWithDeadline
	// ShedOldest sheds the oldest accepted-but-undispatched task to make
	// room for the new one — newest-wins load shedding for buffered
	// pools. When nothing is pending to shed (e.g. a purely synchronous
	// hand-off), it degrades to Reject.
	ShedOldest
)

// Config parameterizes a Pool.
type Config struct {
	// KeepAlive is how long an idle worker waits for work before
	// terminating. Zero selects 60 seconds, the Java cached-pool
	// default.
	KeepAlive time.Duration
	// MaxWorkers caps the number of concurrent workers. Zero selects
	// effectively-unbounded (the cached pool configuration).
	MaxWorkers int
	// CoreWorkers is the number of workers retained even when idle
	// beyond KeepAlive (ThreadPoolExecutor's corePoolSize). Zero — the
	// cached-pool configuration — lets every idle worker expire.
	CoreWorkers int
	// OnSaturation selects the rejection policy; the default is Reject.
	OnSaturation RejectionPolicy
	// MaxPending, when positive, bounds the number of accepted tasks
	// that have not yet been picked up by a worker — the admission
	// budget. At the budget, Submit applies the rejection policy. Zero
	// leaves admission unbounded.
	MaxPending int
	// SaturationPatience bounds the BlockWithDeadline policy's wait.
	// Zero selects one millisecond.
	SaturationPatience time.Duration
	// Metrics, when non-nil, receives the executor's counters
	// (tasks-shed/-rejected/-returned, crash-loops) and latency
	// histograms (queue-wait, exec, drain). Obtain a handle from
	// synchq.NewMetrics().RawHandle() to share one instrumentation
	// root between the pool and its queue.
	Metrics *metrics.Handle
	// DispatchBatch, when greater than one, lets a worker that woke for a
	// task claim up to DispatchBatch-1 more immediately available tasks
	// from the queue in the same wakeup, through the queue's BatchQueue
	// facet — amortizing the park/unpark cycle under burst load. Zero or
	// one (or a queue without DrainTo) keeps the one-task-per-wakeup
	// discipline. Every batched task still passes through the normal
	// claim/shed/execute path, so the conservation ledger is unchanged.
	DispatchBatch int
	// Fault, when non-nil, is queried at the pool's own injection sites
	// (spawn race, admission, retirement) for deterministic chaos tests.
	Fault *fault.Injector
}

// Pool is a dynamically sized worker pool fed through a synchronous queue.
// Construct one with New; a Pool must not be copied after first use.
type Pool struct {
	q         Queue
	wq        WaitQueue  // non-nil when q supports blocking cancelable ops
	bq        BatchQueue // non-nil when q supports DrainTo and batching is on
	batch     int        // max tasks a worker claims per wakeup (>= 1)
	keepAlive time.Duration
	maxWorker int64
	core      int64
	policy    RejectionPolicy
	patience  time.Duration
	h         *metrics.Handle
	inj       *fault.Injector

	workers  atomic.Int64 // live worker goroutines
	shut     atomic.Bool
	draining atomic.Bool
	shutCtx  context.Context    // canceled by Shutdown
	shutDown context.CancelFunc // cancels shutCtx
	shutCh   <-chan struct{}    // shutCtx.Done(); wakes blocking queue ops
	wg       sync.WaitGroup

	// Admission budget: a semaphore of MaxPending tokens (nil when
	// unbounded). Reserving sends, releasing receives; release never
	// blocks because only reserved slots are released.
	slots chan struct{}

	// Pending-task ledger (see pending.go).
	pendN    atomic.Int64 // accepted tasks not yet claimed by anyone
	active   atomic.Int64 // tasks currently executing
	pendMu   sync.Mutex
	pendHead *taskEnv
	pendTail *taskEnv

	// Crash-loop detection: consecutive panicking tasks trip the
	// breaker, which disables pool growth until a task succeeds.
	consecPanics atomic.Int64
	crashLoop    atomic.Bool

	// Statistics (monotone counters; read with Stats).
	spawned    atomic.Int64
	completed  atomic.Int64
	handoffs   atomic.Int64 // submissions served by an already-idle worker
	panicked   atomic.Int64 // tasks that panicked (recovered by the worker)
	accepted   atomic.Int64
	shedN      atomic.Int64
	rejected   atomic.Int64
	returnedN  atomic.Int64
	expired    atomic.Int64
	crashLoops atomic.Int64
}

// crashLoopThreshold is the consecutive-panic count that trips the
// crash-loop breaker and pauses pool growth.
const crashLoopThreshold = 8

// New returns a pool dispatching through q. The zero Config yields a
// cached pool: unbounded workers, 60 s keep-alive, growth on demand.
func New(q Queue, cfg Config) *Pool {
	if cfg.KeepAlive == 0 {
		cfg.KeepAlive = 60 * time.Second
	}
	max := int64(cfg.MaxWorkers)
	if max <= 0 {
		max = 1 << 30
	}
	core := int64(cfg.CoreWorkers)
	if core > max {
		core = max
	}
	patience := cfg.SaturationPatience
	if patience <= 0 {
		patience = time.Millisecond
	}
	p := &Pool{
		q:         q,
		keepAlive: cfg.KeepAlive,
		maxWorker: max,
		core:      core,
		policy:    cfg.OnSaturation,
		patience:  patience,
		h:         cfg.Metrics,
		inj:       cfg.Fault,
	}
	p.shutCtx, p.shutDown = context.WithCancel(context.Background())
	p.shutCh = p.shutCtx.Done()
	if wq, ok := q.(WaitQueue); ok {
		p.wq = wq
	}
	p.batch = 1
	if bq, ok := q.(BatchQueue); ok && cfg.DispatchBatch > 1 {
		p.bq = bq
		p.batch = cfg.DispatchBatch
	}
	if cfg.MaxPending > 0 {
		p.slots = make(chan struct{}, cfg.MaxPending)
	}
	return p
}

// NewFixed returns a fixed-size pool of n workers fed through an unbounded
// buffered queue (the nonblocking dual queue of Scherer & Scott 2004 in
// its data-buffering mode): Submit never blocks and never spawns beyond n,
// and the n workers never expire. It is the analogue of
// java.util.concurrent.newFixedThreadPool, provided as the buffered
// counterpoint to the synchronous cached pool.
func NewFixed(n int) *Pool {
	if n < 1 {
		n = 1
	}
	return New(NewBuffered(), Config{
		MaxWorkers:  n,
		CoreWorkers: n,
		// Core workers ignore expiry; a short keep-alive just makes
		// them re-check the shutdown flag promptly.
		KeepAlive:    100 * time.Millisecond,
		OnSaturation: Wait,
	})
}

// Submit schedules t for execution: it is handed directly to an idle
// worker when one is waiting; otherwise a new worker is started (up to
// MaxWorkers); otherwise the rejection policy applies.
func (p *Pool) Submit(t Task) error { return p.submit(nil, t) }

// SubmitContext schedules t like Submit, with the context governing
// admission: its deadline bounds any saturation wait and travels with the
// task — a task still undispatched when the deadline passes is shed, not
// run — and its cancellation aborts a blocked submission. The error
// distinguishes ErrExpired (deadline passed before admission) from the
// context's own cause on cancellation.
func (p *Pool) SubmitContext(ctx context.Context, t Task) error {
	return p.submit(ctx, t)
}

func (p *Pool) submit(ctx context.Context, t Task) error {
	if t == nil {
		return ErrNilTask
	}
	if p.shut.Load() {
		return ErrShutdown
	}
	if p.draining.Load() {
		return ErrDraining
	}
	var deadline time.Time
	if ctx != nil {
		if d, ok := ctx.Deadline(); ok {
			deadline = d
		}
		if err := context.Cause(ctx); err != nil {
			p.refuse(errors.Is(err, context.DeadlineExceeded))
			return err
		}
		if !deadline.IsZero() && !time.Now().Before(deadline) {
			p.refuse(true)
			return ErrExpired
		}
	}

	// Reserve an admission-budget slot (policy applies at the budget).
	switch err := p.reserve(ctx, deadline); {
	case err == nil:
	case errors.Is(err, errRunInline):
		// CallerRuns at the budget: execute on the submitter without
		// ever entering the pending ledger.
		p.accepted.Add(1)
		p.active.Add(1)
		p.execute(t)
		p.active.Add(-1)
		return nil
	default:
		return err
	}

	env := &taskEnv{t: t}
	if !deadline.IsZero() {
		// Positive: the deadline was checked unexpired above.
		env.due = metrics.NanosAt(deadline)
	}
	p.link(env)
	p.inj.Preempt(fault.PoolAdmitPause)

	// Below the core size, spawn unconditionally (ThreadPoolExecutor
	// grows to corePoolSize before queueing).
	if spawned, err := p.trySpawn(env, p.core); err != nil {
		return p.unwind(env, err)
	} else if spawned {
		p.accepted.Add(1)
		return nil
	}

	// Fast path: hand to the queue — for a synchronous queue this
	// succeeds only if a worker is idle in a poll right now; a buffered
	// queue accepts unconditionally.
	wrapper := func() { p.dispatch(env) }
	if p.q.Offer(wrapper) {
		p.handoffs.Add(1)
		p.accepted.Add(1)
		return nil
	}

	// Slow path: grow the pool (paused while the crash-loop breaker is
	// tripped — a panic storm must not scale the pool up).
	if !p.crashLoop.Load() {
		if spawned, err := p.trySpawn(env, p.maxWorker); err != nil {
			return p.unwind(env, err)
		} else if spawned {
			p.accepted.Add(1)
			return nil
		}
	}

	// Saturated: apply the rejection policy.
	switch p.policy {
	case CallerRuns:
		p.dispatch(env)
		p.accepted.Add(1)
		return nil
	case Wait:
		return p.offerBlocking(env, wrapper, ctx, deadline, false)
	case BlockWithDeadline:
		bound := time.Now().Add(p.patience)
		if !deadline.IsZero() && deadline.Before(bound) {
			bound = deadline
		}
		return p.offerBlocking(env, wrapper, ctx, bound, true)
	case ShedOldest:
		// A synchronous hand-off has no buffered backlog to evict in
		// the queue itself; shedding the oldest pending submission
		// frees budget but cannot conjure an idle worker, so at
		// queue-level saturation the policy degrades to Reject.
		return p.unwind(env, ErrSaturated)
	default:
		return p.unwind(env, ErrSaturated)
	}
}

// errRunInline is reserve's signal that the CallerRuns policy applies.
var errRunInline = errors.New("pool: run inline")

// reserve takes an admission-budget slot, applying the rejection policy
// when the budget is exhausted. Nil error means a slot is held (a no-op
// without a budget).
func (p *Pool) reserve(ctx context.Context, deadline time.Time) error {
	if p.slots == nil {
		return nil
	}
	select {
	case p.slots <- struct{}{}:
		return nil
	default:
	}
	switch p.policy {
	case ShedOldest:
		for {
			if !p.shedOldest() {
				p.refuse(false)
				return ErrSaturated
			}
			select {
			case p.slots <- struct{}{}:
				return nil
			default:
			}
		}
	case CallerRuns:
		return errRunInline
	case Wait, BlockWithDeadline:
		bound := deadline
		if p.policy == BlockWithDeadline {
			b := time.Now().Add(p.patience)
			if bound.IsZero() || b.Before(bound) {
				bound = b
			}
		}
		var timerC <-chan time.Time
		if !bound.IsZero() {
			tm := time.NewTimer(time.Until(bound))
			defer tm.Stop()
			timerC = tm.C
		}
		var done <-chan struct{}
		if ctx != nil {
			done = ctx.Done()
		}
		select {
		case p.slots <- struct{}{}:
			return nil
		case <-p.shutCh:
			return ErrShutdown
		case <-done:
			err := context.Cause(ctx)
			p.refuse(errors.Is(err, context.DeadlineExceeded))
			return err
		case <-timerC:
			if p.policy == BlockWithDeadline && (deadline.IsZero() || bound.Before(deadline)) {
				p.refuse(false)
				return ErrSaturated
			}
			p.refuse(true)
			return ErrExpired
		}
	default:
		p.refuse(false)
		return ErrSaturated
	}
}

// offerBlocking lands the wrapper with a real blocking offer: the queue's
// cancelable OfferWait when available, otherwise a yielding retry loop
// that still honors cancellation, shutdown, and the bound. A zero bound
// means wait indefinitely (Wait policy without a submission deadline).
func (p *Pool) offerBlocking(env *taskEnv, wrapper Task, ctx context.Context, bound time.Time, saturation bool) error {
	if p.wq != nil {
		cancel, stop := p.mergedCancel(ctx)
		ok := p.wq.OfferWait(wrapper, bound, cancel)
		stop()
		if ok {
			p.handoffs.Add(1)
			p.accepted.Add(1)
			return nil
		}
	} else {
		for backoff := time.Microsecond; ; {
			if p.q.Offer(wrapper) {
				p.handoffs.Add(1)
				p.accepted.Add(1)
				return nil
			}
			if p.shut.Load() {
				break
			}
			if ctx != nil && ctx.Err() != nil {
				break
			}
			if !bound.IsZero() && !time.Now().Before(bound) {
				break
			}
			time.Sleep(backoff)
			if backoff < 64*time.Microsecond {
				backoff *= 2
			}
		}
	}
	// The offer did not land: classify the failure.
	switch {
	case ctx != nil && ctx.Err() != nil:
		return p.unwind(env, context.Cause(ctx))
	case p.shut.Load():
		return p.unwind(env, ErrShutdown)
	case saturation:
		return p.unwind(env, ErrSaturated)
	default:
		return p.unwind(env, ErrExpired)
	}
}

// mergedCancel returns a channel that fires when either the context is
// done or the pool shuts down, plus a release for the two registrations.
// Both wake-ups are context.AfterFunc callbacks, so a blocked submission
// costs no goroutine beyond the submitter's. When the context can never
// fire, the shutdown channel is used directly.
func (p *Pool) mergedCancel(ctx context.Context) (<-chan struct{}, func()) {
	if ctx == nil || ctx.Done() == nil {
		return p.shutCh, func() {}
	}
	out := make(chan struct{})
	fire := sync.OnceFunc(func() { close(out) })
	stopCtx := context.AfterFunc(ctx, fire)
	stopShut := context.AfterFunc(p.shutCtx, fire)
	return out, func() {
		stopCtx()
		stopShut()
	}
}

// refuse tallies an admission refusal (expired deadlines doubly so).
func (p *Pool) refuse(expired bool) {
	p.rejected.Add(1)
	p.h.Inc(metrics.TasksRejected)
	if expired {
		p.expired.Add(1)
	}
}

// unwind aborts an admitted-but-not-yet-accepted envelope after a failed
// hand-off and returns err, tallying the refusal. If a concurrent shedder
// or drain already claimed the envelope, the submission actually was
// accepted — its fate (shed or returned) is already counted — so the
// caller gets nil and no refusal is recorded.
func (p *Pool) unwind(env *taskEnv, err error) error {
	if env.claim(envAborted) {
		p.settle(env)
		if !errors.Is(err, ErrShutdown) && !errors.Is(err, ErrDraining) {
			p.refuse(errors.Is(err, ErrExpired) || errors.Is(err, context.DeadlineExceeded))
		}
		return err
	}
	p.accepted.Add(1)
	return nil
}

// trySpawn starts a worker with env in hand if the worker count is below
// limit. The post-spawn shutdown re-check closes the Submit/Shutdown
// race: a Submit that passed the shut check can otherwise commit a worker
// after Shutdown's wake-up sweep, leaving it parked for a full keep-alive
// and its task accepted into a dead pool. Ordering matters — wg.Add
// happens before the re-check, so a false read of shut guarantees the
// following Shutdown+Wait observes this worker.
func (p *Pool) trySpawn(env *taskEnv, limit int64) (bool, error) {
	for {
		n := p.workers.Load()
		if n >= limit {
			return false, nil
		}
		if !p.workers.CompareAndSwap(n, n+1) {
			continue
		}
		p.inj.Preempt(fault.PoolSpawnRacePause)
		p.wg.Add(1)
		if p.shut.Load() {
			p.wg.Done()
			p.workers.Add(-1)
			return false, ErrShutdown
		}
		p.spawned.Add(1)
		go p.worker(env)
		return true, nil
	}
}

// worker dispatches env, then serves the queue until keep-alive expires
// (and the pool is above its core size), a poison pill arrives, or the
// pool shuts down.
func (p *Pool) worker(env *taskEnv) {
	defer p.wg.Done()
	// batch is the worker's private claim buffer, reused across wakeups so
	// batched dispatch allocates nothing in steady state.
	var batch []Task
	for {
		if env != nil {
			p.dispatch(env)
			env = nil
		}
		if p.shut.Load() {
			p.workers.Add(-1)
			return
		}
		var t Task
		var ok bool
		if p.wq != nil {
			t, ok = p.wq.PollWait(time.Now().Add(p.keepAlive), p.shutCh)
		} else {
			t, ok = p.q.PollTimeout(p.keepAlive)
		}
		if !ok {
			if p.shut.Load() {
				p.workers.Add(-1)
				return
			}
			if p.tryRetire() {
				return // keep-alive expired above core: shrink
			}
			continue // core worker: keep serving
		}
		if t == nil {
			p.workers.Add(-1)
			return // poison pill from Shutdown
		}
		t()
		if p.bq != nil {
			// Batched dispatch: having paid for this wakeup, claim up to
			// DispatchBatch-1 more tasks that are immediately available and
			// run them before polling (and possibly parking) again. Each
			// claimed task is a dispatch wrapper, so shedding and the
			// conservation ledger behave exactly as under single dispatch.
			batch = p.bq.DrainTo(batch[:0], p.batch-1)
			pill := false
			for _, bt := range batch {
				if bt == nil {
					// A poison pill swept up mid-batch still means
					// shutdown; honor it once the claimed tasks have run.
					pill = true
					continue
				}
				bt()
			}
			if pill {
				p.workers.Add(-1)
				return
			}
		}
	}
}

// dispatch claims env and runs its task — unless the task's deadline
// passed while it waited, in which case it is shed before execution. A
// lost claim means a shedder or forced drain already settled the task.
func (p *Pool) dispatch(env *taskEnv) {
	if !env.claim(envRunning) {
		return
	}
	p.settle(env)
	p.h.Since(metrics.QueueWaitNs, env.enq)
	if env.due != 0 && metrics.Nanos() >= env.due {
		p.shedN.Add(1)
		p.h.Inc(metrics.TasksShed)
		return
	}
	p.active.Add(1)
	p.execute(env.t)
	p.active.Add(-1)
}

// execute runs t with panic containment and full accounting.
func (p *Pool) execute(t Task) {
	t0 := p.h.Start()
	p.runTask(t)
	p.h.Since(metrics.ExecNs, t0)
	p.completed.Add(1)
}

// tryRetire decrements the worker count only while it stays at or above
// the core size, so keep-alive expiry can never shrink the pool below
// CoreWorkers even when several workers time out together. The injector
// can force the CAS to be treated as lost, replaying the several-workers-
// retire-together race.
func (p *Pool) tryRetire() bool {
	for {
		n := p.workers.Load()
		if n <= p.core {
			return false
		}
		if p.inj.FailCAS(fault.PoolRetireCAS) {
			continue
		}
		if p.workers.CompareAndSwap(n, n-1) {
			return true
		}
	}
}

// runTask executes t, containing panics: a panicking task must cost the
// pool nothing but a statistics tick — it must not kill the worker's
// process nor leak the worker (java.util.concurrent likewise survives
// runtime exceptions thrown by tasks). A run of crashLoopThreshold
// consecutive panics trips the crash-loop breaker, which pauses pool
// growth until a task completes normally.
func (p *Pool) runTask(t Task) {
	defer func() {
		if r := recover(); r != nil {
			p.panicked.Add(1)
			if p.consecPanics.Add(1) >= crashLoopThreshold &&
				p.crashLoop.CompareAndSwap(false, true) {
				p.crashLoops.Add(1)
				p.h.Inc(metrics.CrashLoops)
			}
		}
	}()
	t()
	p.consecPanics.Store(0)
	p.crashLoop.Store(false)
}

// Shutdown stops accepting work and wakes idle workers so they exit
// promptly; workers running a task finish it first. It does not wait; call
// Wait for that. Accepted-but-undispatched tasks in a buffered pool are
// not run by Shutdown — use Drain for a graceful stop that either runs or
// returns them.
func (p *Pool) Shutdown() {
	if p.shut.Swap(true) {
		return
	}
	p.shutDown()
	if p.wq != nil {
		return // blocking polls observe shutCh directly
	}
	// Plain queues cannot watch shutCh: drain currently idle workers
	// with poison pills, at most one per live worker (a buffered queue
	// would otherwise accept poison forever). Workers that are mid-task
	// re-check the shutdown flag before polling again, so this races
	// benignly: anyone we miss exits at the flag check or after one
	// keep-alive at most.
	for i := p.workers.Load(); i > 0; i-- {
		if !p.q.Offer(nil) {
			break
		}
	}
}

// Wait blocks until all workers have exited. Callers normally Shutdown
// first.
func (p *Pool) Wait() { p.wg.Wait() }

// Stats is a snapshot of the pool's counters. The conservation ledger
// reads: Accepted == Completed + Shed + Returned + Pending + Active, with
// Pending and Active both zero once the pool has quiesced — every
// accepted task executes, is shed, or is returned; none are lost.
type Stats struct {
	// Live is the current number of worker goroutines.
	Live int64
	// Spawned counts workers ever created.
	Spawned int64
	// Completed counts tasks that finished executing (panicking tasks
	// included — their panic was contained, but they did run).
	Completed int64
	// Handoffs counts submissions served by an already-idle worker
	// (i.e. synchronous hand-offs that avoided spawning).
	Handoffs int64
	// Panicked counts tasks that panicked and were contained.
	Panicked int64
	// Accepted counts submissions the pool took responsibility for
	// (Submit returned nil, or the task was shed/returned after
	// admission).
	Accepted int64
	// Shed counts accepted tasks deliberately dropped without running:
	// deadline expiry detected before dispatch, or ShedOldest evictions.
	Shed int64
	// Rejected counts submissions refused at admission: saturation,
	// budget exhaustion, expired deadlines, canceled contexts.
	// Shutdown/draining refusals are not counted.
	Rejected int64
	// Returned counts accepted tasks handed back by a forced Drain.
	Returned int64
	// Expired counts the subset of Rejected refused for a passed
	// deadline.
	Expired int64
	// Pending is the current accepted-but-unclaimed backlog.
	Pending int64
	// Active is the number of tasks currently executing.
	Active int64
	// CrashLoops counts crash-loop breaker trips (panic storms dense
	// enough to pause pool growth).
	CrashLoops int64
}

// Stats returns a snapshot of the pool's counters.
func (p *Pool) Stats() Stats {
	return Stats{
		Live:       p.workers.Load(),
		Spawned:    p.spawned.Load(),
		Completed:  p.completed.Load(),
		Handoffs:   p.handoffs.Load(),
		Panicked:   p.panicked.Load(),
		Accepted:   p.accepted.Load(),
		Shed:       p.shedN.Load(),
		Rejected:   p.rejected.Load(),
		Returned:   p.returnedN.Load(),
		Expired:    p.expired.Load(),
		Pending:    p.pendN.Load(),
		Active:     p.active.Load(),
		CrashLoops: p.crashLoops.Load(),
	}
}

// ConservationGap is the executor conservation invariant as a number:
// Accepted − (Completed + Shed + Returned + Pending + Active). It is
// exactly zero on a quiesced pool; during a run it transiently reflects
// tasks between two counter updates.
func (s Stats) ConservationGap() int64 {
	return s.Accepted - (s.Completed + s.Shed + s.Returned + s.Pending + s.Active)
}
