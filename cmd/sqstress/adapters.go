package main

// Chaos adapters: one uniform, status-returning surface over every
// structure the chaos harness drives, so the scenario library can run the
// same workload — and the property suite can check the same invariants —
// against the dual stack, the dual queue, the transfer queue, the sharded
// fabric, the eliminating composition, and the executor pool.
//
// Each adapter is described by a coreDef carrying its capability flags
// (which properties apply) and its fault-site classes (which Reachable
// properties are registered), so adding a structure to the harness is one
// table entry, not a new test body.

import (
	"context"
	"errors"
	"sync/atomic"
	"time"

	"synchq/internal/core"
	"synchq/internal/exchanger"
	"synchq/internal/fault"
	"synchq/internal/metrics"
	"synchq/internal/segq"
	"synchq/internal/shard"
	"synchq/pool"
)

// chaosStruct is the surface the scenario library drives. Offers and polls
// are deadline-bounded and cancelable; both report the full Status so
// scenarios can distinguish timeouts, cancellations, and closed rejections.
type chaosStruct interface {
	ChaosOffer(v int64, patience time.Duration, cancel <-chan struct{}) core.Status
	ChaosPoll(patience time.Duration, cancel <-chan struct{}) (int64, core.Status)
	Close()
	Closed() bool
}

// quiescer is implemented by adapters with internal goroutines (the pool's
// workers): Quiesce waits for them with a bound and reports success. The
// harness's no-stranded-waiter property fails when it reports false.
type quiescer interface {
	Quiesce(d time.Duration) bool
}

// chaosBatcher is the optional batched surface: adapters over cores with
// PutBatch/TakeBatch implement it, and the workload engine mixes k-item
// batch operations into the traffic of every scenario. Offers must stay
// synchronous per item on syncPair cores (the transfer row uses the dual
// queue's PutBatch, not the asynchronous PutAllAsync burst, so the
// synchrony property still holds for batched values). ChaosOfferBatch
// reports the partial-fill count n; per the batch contract, vs[n:]
// afterwards holds exactly the undelivered values.
type chaosBatcher interface {
	ChaosOfferBatch(vs []int64, patience time.Duration, cancel <-chan struct{}) (int, core.Status)
	ChaosPollBatch(max int, patience time.Duration, cancel <-chan struct{}) ([]int64, core.Status)
}

// coreDef describes one structure under test.
type coreDef struct {
	// key is the stable config name used in -cores and the verdict table.
	key string
	// desc is the human-readable structure name.
	desc string
	// fifo: per-producer FIFO delivery is part of the contract (plain
	// fair queue and the transfer queue; sharding and elimination
	// deliberately relax global order, the stack is LIFO).
	fifo bool
	// syncPair: put and take intervals must overlap (every synchronous
	// structure; the executor pool runs tasks asynchronously).
	syncPair bool
	// cancelable: the structure supports per-operation cancel channels.
	cancelable bool
	// executor: the structure is the executor tier; it carries the
	// executor-ledger property, the drain/overload scenarios apply, and
	// submissions propagate context deadlines and cancellation.
	executor bool
	// batch: the adapter implements chaosBatcher and the workload engine
	// mixes multi-item offers/polls into every scenario (the pool's
	// submission surface is per-task, so it opts out).
	batch bool
	// buffered is the structure's legal buffering capacity (0 for the
	// synchronous cores); it widens the continuous conservation slack.
	buffered int64
	// classes are the fault-site classes the structure queries; every
	// site in them is registered as a Reachable property.
	classes []fault.Class
	// sometimesCounters maps a metrics counter to the sometimes-property
	// its per-scenario delta evidences (e.g. ElimHits → elimination-fires).
	sometimesCounters map[metrics.ID]string
	// build constructs a fresh instance wired to the shared metrics
	// handle and injector carried inside cfg.
	build func(cfg core.WaitConfig) chaosStruct
}

// optDef is one WaitConfig variant of the option axis.
type optDef struct {
	key string
	// apply mutates the base WaitConfig (which already carries the
	// metrics handle and injector).
	apply func(cfg core.WaitConfig) core.WaitConfig
}

var optDefs = []optDef{
	{key: "default", apply: func(cfg core.WaitConfig) core.WaitConfig { return cfg }},
	{key: "nospin", apply: func(cfg core.WaitConfig) core.WaitConfig {
		cfg.Spins = -1
		return cfg
	}},
}

func optByKey(key string) (optDef, bool) {
	for _, o := range optDefs {
		if o.key == key {
			return o, true
		}
	}
	return optDef{}, false
}

// ---- the hand-off contract ------------------------------------------------

// handoffChaos drives any core — dual queue, dual stack, segmented core,
// shard fabric — through the hand-off contract alone. The transfer row is
// this adapter over a dual queue: its synchronous Transfer is the queue's
// PutDeadline, its batch the queue's PutBatch, so the synchrony property
// still holds for batched values.
type handoffChaos struct{ h core.Handoff[int64] }

func (a handoffChaos) ChaosOffer(v int64, d time.Duration, cancel <-chan struct{}) core.Status {
	return a.h.PutDeadline(v, time.Now().Add(d), cancel)
}
func (a handoffChaos) ChaosPoll(d time.Duration, cancel <-chan struct{}) (int64, core.Status) {
	return a.h.TakeDeadline(time.Now().Add(d), cancel)
}
func (a handoffChaos) Close()       { a.h.Close() }
func (a handoffChaos) Closed() bool { return a.h.Closed() }

func (a handoffChaos) ChaosOfferBatch(vs []int64, d time.Duration, cancel <-chan struct{}) (int, core.Status) {
	return a.h.PutBatch(vs, time.Now().Add(d), cancel)
}
func (a handoffChaos) ChaosPollBatch(max int, d time.Duration, cancel <-chan struct{}) ([]int64, core.Status) {
	return a.h.TakeBatch(nil, max, time.Now().Add(d), cancel)
}

// widthShifter is the fabric's width drive; the width-shift scenario
// oscillates adapters whose core provides it mid-workload. On a
// fixed-width fabric DriveWidth is a no-op, so the scenario degrades to a
// plain steady run there.
type widthShifter interface{ DriveWidth(contended bool) }

// ---- eliminating composition ----------------------------------------------

// elimChaos alternates the adaptive arena entry points with fixed-patience
// attempts. The adaptive controller tunes its patience to µs-scale
// hand-off latencies; under the race detector's slowdown on a small host
// every op takes longer than that, the controller correctly collapses,
// and elimination would never fire — so every other operation dwells in
// the arena long enough for a race-slowed partner to arrive, keeping the
// slot CAS/fulfill/retract sites and the elimination-fires event exercised
// in both regimes. Batches, Close and Closed are the embedded adapter's:
// batches bypass the arena, as on a queue built with EliminatingAdaptive,
// since an arena exchange pairs exactly one producer with one consumer.
type elimChaos struct {
	handoffChaos
	arena *exchanger.Arena[int64]
	alt   *atomic.Int64
}

// elimStaticPatience is the fixed arena dwell of the non-adaptive leg.
const elimStaticPatience = 100 * time.Microsecond

func (a elimChaos) ChaosOffer(v int64, d time.Duration, cancel <-chan struct{}) core.Status {
	if a.alt.Add(1)%2 == 0 {
		if a.arena.TryGiveAdaptive(v) {
			return core.OK
		}
	} else if a.arena.TryGive(v, elimStaticPatience) {
		return core.OK
	}
	return a.handoffChaos.ChaosOffer(v, d, cancel)
}
func (a elimChaos) ChaosPoll(d time.Duration, cancel <-chan struct{}) (int64, core.Status) {
	if a.alt.Add(1)%2 == 0 {
		if v, ok := a.arena.TryTakeAdaptive(); ok {
			return v, core.OK
		}
	} else if v, ok := a.arena.TryTake(elimStaticPatience); ok {
		return v, core.OK
	}
	return a.handoffChaos.ChaosPoll(d, cancel)
}

// ---- executor pool --------------------------------------------------------

// poolChaos brings the executor tier under the harness invariants: an
// offer is a SubmitContext of a task that delivers its value into a
// results channel, a poll is a receive from that channel. Conservation
// then states "every accepted task runs exactly once"; synchrony does not
// apply (execution is asynchronous), and the backing synchronous queue —
// which the pool drives through its cancelable WaitQueue paths — runs
// under the same fault injector as the bare cores. Harness tasks carry no
// deadline (their values must always deliver, so offered == delivered
// stays exact); the deadline-shed path is driven instead by the overload
// scenario's chaff storm, whose valueless tasks are built to expire
// between admission and dispatch.
type poolChaos struct {
	p       *pool.Pool
	q       *core.DualQueue[pool.Task]
	results chan int64
	closed  atomic.Bool
	chaff   atomic.Int64 // executions of overload chaff (body only)
}

// poolResultsCap bounds the in-flight executed-but-unconsumed values.
const poolResultsCap = 1 << 14

// poolMaxWorkers / poolMaxPending are the executor's worker cap and
// admission budget. An accepted-but-undelivered value can legally sit in
// the pending ledger (≤ poolMaxPending), in an active worker's hands —
// including blocked on a full results channel (≤ poolMaxWorkers) — or in
// the results buffer itself, so the conservation slack declared to the
// harness is the sum of all three capacities.
const (
	poolMaxWorkers = 32
	poolMaxPending = 256
	poolBuffered   = poolResultsCap + poolMaxPending + poolMaxWorkers
)

// poolPatience bounds how long a saturated submission blocks for a worker
// (the BlockWithDeadline backpressure bound). It must be far below the
// harness's stranded-waiter bound: admission never blocks indefinitely.
const poolPatience = 500 * time.Microsecond

// poolQueue adapts the injected dual queue to the pool.WaitQueue surface,
// so the executor's blocking offers and idle polls run the queue's
// deadline-and-cancel paths under fault injection. It also implements
// pool.Closer: a forced drain closes the queue to release the blocked.
type poolQueue struct{ q *core.DualQueue[pool.Task] }

func (pq poolQueue) Offer(t pool.Task) bool { return pq.OfferWait(t, core.Expired, nil) }
func (pq poolQueue) Close()                 { pq.q.Close() }

func (pq poolQueue) PollTimeout(d time.Duration) (pool.Task, bool) {
	return pq.PollWait(core.DeadlineFor(d), nil)
}

func (pq poolQueue) OfferWait(t pool.Task, deadline time.Time, cancel <-chan struct{}) bool {
	return pq.q.PutDeadline(t, deadline, cancel) == core.OK
}

func (pq poolQueue) PollWait(deadline time.Time, cancel <-chan struct{}) (pool.Task, bool) {
	v, st := pq.q.TakeDeadline(deadline, cancel)
	return v, st == core.OK
}

func newPoolChaos(cfg core.WaitConfig) *poolChaos {
	q := core.NewDualQueue[pool.Task](cfg)
	a := &poolChaos{q: q, results: make(chan int64, poolResultsCap)}
	a.p = pool.New(poolQueue{q}, pool.Config{
		// A short keep-alive makes idle workers expire constantly, so
		// the backing queue's timeout, cancel, and clean paths — and the
		// pool's retirement CAS — run under chaos.
		KeepAlive:          2 * time.Millisecond,
		MaxWorkers:         poolMaxWorkers,
		MaxPending:         poolMaxPending,
		OnSaturation:       pool.BlockWithDeadline,
		SaturationPatience: poolPatience,
		Metrics:            cfg.Metrics,
		Fault:              cfg.Fault,
	})
	return a
}

// LedgerGap exposes the executor conservation ledger for the
// executor-ledger always-property: at rest it must be exactly zero.
func (a *poolChaos) LedgerGap() int64 { return a.p.Stats().ConservationGap() }

func (a *poolChaos) ChaosOffer(v int64, d time.Duration, cancel <-chan struct{}) core.Status {
	ctx := context.Background()
	if cancel != nil {
		var cfn context.CancelFunc
		ctx, cfn = context.WithCancel(ctx)
		stop := make(chan struct{})
		defer close(stop)
		defer cfn()
		go func() {
			select {
			case <-cancel:
				cfn()
			case <-stop:
			}
		}()
	}
	err := a.p.SubmitContext(ctx, func() { a.results <- v })
	switch {
	case err == nil:
		return core.OK
	case errors.Is(err, pool.ErrShutdown), errors.Is(err, pool.ErrDraining):
		return core.Closed
	case errors.Is(err, context.Canceled):
		return core.Canceled
	default: // ErrSaturated / ErrExpired: no worker within the patience
		return core.Timeout
	}
}

func (a *poolChaos) ChaosPoll(d time.Duration, cancel <-chan struct{}) (int64, core.Status) {
	select {
	case v := <-a.results:
		return v, core.OK
	default:
	}
	if a.closed.Load() {
		// Drain any stragglers before reporting Closed so the harness's
		// drain loop empties the channel.
		select {
		case v := <-a.results:
			return v, core.OK
		default:
			return 0, core.Closed
		}
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case v := <-a.results:
		return v, core.OK
	case <-cancel:
		// A delivery that landed while the cancel fired still pairs: the
		// fulfill won the race (the cores' cancel-races-fulfill shape).
		select {
		case v := <-a.results:
			return v, core.OK
		default:
			return 0, core.Canceled
		}
	case <-t.C:
		return 0, core.Timeout
	}
}

// ChaffStorm floods the executor with valueless tasks whose deadlines are
// long enough to pass the admission check but short enough to usually
// lapse before a worker dispatches them — the deadline-shed path under
// live traffic. Chaff that wins its race and executes only bumps an
// internal counter, so the harness ledger is untouched either way.
func (a *poolChaos) ChaffStorm(n int) {
	for i := 0; i < n; i++ {
		fuse := time.Duration(1+i%25) * time.Microsecond
		ctx, cancel := context.WithTimeout(context.Background(), fuse)
		a.p.SubmitContext(ctx, func() { a.chaff.Add(1) })
		cancel()
	}
}

// DrainStorm performs the production shutdown mid-traffic: a bounded
// graceful drain with two workers deliberately wedged past the bound so
// phase 3 (forced reclaim) must run. Reclaimed tasks belong to the caller
// and are re-run here, so every accepted value still delivers exactly
// once. Reports whether the drain was forced.
func (a *poolChaos) DrainStorm() (forced bool) {
	release := make(chan struct{})
	for i := 0; i < 2; i++ {
		a.submitWedge(release)
	}
	// Arm the release only after both wedges are in: submission can retry
	// through saturation for tens of milliseconds under the race detector,
	// and a release clock that started before Submit can expire before the
	// drain context below does — the wedge evaporates and the drain
	// quiesces gracefully instead of reaching the forced phase. The wedge
	// must outlive the drain context by a margin wider than any plausible
	// descheduling gap; Drain itself waits for the released tasks, so the
	// margin only stretches this scenario, not the pool's rest state.
	time.AfterFunc(60*time.Millisecond, func() { close(release) })
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Millisecond)
	defer cancel()
	res := a.p.Drain(ctx)
	for _, t := range res.Returned {
		t()
	}
	a.closed.Store(true)
	return res.Forced
}

// submitWedge lands one blocking task, retrying through transient
// saturation.
func (a *poolChaos) submitWedge(release <-chan struct{}) {
	deadline := time.Now().Add(time.Second)
	for time.Now().Before(deadline) {
		if a.p.Submit(func() { <-release }) == nil {
			return
		}
		time.Sleep(100 * time.Microsecond)
	}
}

func (a *poolChaos) Close() {
	a.closed.Store(true)
	a.p.Shutdown()
	a.q.Close()
}

func (a *poolChaos) Closed() bool { return a.closed.Load() }

// Quiesce waits for the pool's workers to exit.
func (a *poolChaos) Quiesce(d time.Duration) bool {
	done := make(chan struct{})
	go func() { a.p.Wait(); close(done) }()
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-done:
		return true
	case <-t.C:
		return false
	}
}

// ---- the core registry ----------------------------------------------------

// coreDefs is the harness's structure matrix, in verdict-table order.
var coreDefs = []coreDef{
	{
		key: "stack", desc: "dual stack (unfair)",
		syncPair: true, cancelable: true, batch: true,
		classes: []fault.Class{fault.ClassStack, fault.ClassWait},
		build: func(cfg core.WaitConfig) chaosStruct {
			return handoffChaos{core.NewDualStack[int64](cfg)}
		},
	},
	{
		key: "queue", desc: "dual queue (fair)",
		fifo: true, syncPair: true, cancelable: true, batch: true,
		classes: []fault.Class{fault.ClassQueue, fault.ClassWait},
		build: func(cfg core.WaitConfig) chaosStruct {
			return handoffChaos{core.NewDualQueue[int64](cfg)}
		},
	},
	{
		key: "transfer", desc: "transfer queue (§5)",
		fifo: true, syncPair: true, cancelable: true, batch: true,
		classes: []fault.Class{fault.ClassQueue, fault.ClassWait},
		build: func(cfg core.WaitConfig) chaosStruct {
			return handoffChaos{core.NewDualQueue[int64](cfg)}
		},
	},
	{
		// fifo stays false: pairing is FIFO by arrival (each side's F&A
		// counter), but delivery *completion* order can invert between two
		// of one producer's values when the taker of the earlier cell
		// stalls between claiming its index and resolving the cell —
		// interval-sound, yet outside the per-producer FIFO property the
		// dual queue's head-ordered fulfillment guarantees.
		key: "seg", desc: "segmented F&A core",
		syncPair: true, cancelable: true, batch: true,
		classes: []fault.Class{fault.ClassSeg, fault.ClassWait},
		sometimesCounters: map[metrics.ID]string{
			metrics.SegUnlinks: "segment-unlinked",
		},
		build: func(cfg core.WaitConfig) chaosStruct {
			return handoffChaos{segq.New[int64](cfg)}
		},
	},
	{
		key: "sharded", desc: "sharded fabric over fair queues",
		syncPair: true, cancelable: true, batch: true,
		classes: []fault.Class{fault.ClassQueue, fault.ClassShard, fault.ClassWait},
		sometimesCounters: map[metrics.ID]string{
			metrics.ShardSteals: "cross-shard-steal",
		},
		build: func(cfg core.WaitConfig) chaosStruct {
			fab := shard.New(0, func(int) shard.Dual[int64] {
				return core.NewDualQueue[int64](cfg)
			}).SetMetrics(cfg.Metrics).SetFault(cfg.Fault)
			return handoffChaos{fab}
		},
	},
	{
		// The self-scaling fabric re-picks its effective width from
		// observed contention; the width-shift scenario additionally
		// forces it through grow/drain cycles mid-workload so the
		// activate/drain protocol (and its two fault windows) runs under
		// every schedule the injector can produce.
		key: "auto", desc: "self-scaling fabric over fair queues",
		syncPair: true, cancelable: true, batch: true,
		classes: []fault.Class{fault.ClassQueue, fault.ClassShard, fault.ClassAutoShard, fault.ClassWait},
		sometimesCounters: map[metrics.ID]string{
			metrics.ShardSteals:        "cross-shard-steal",
			metrics.FabricWidthChanges: "width-shift",
		},
		build: func(cfg core.WaitConfig) chaosStruct {
			fab := shard.NewAuto(0, func(int) shard.Dual[int64] {
				return core.NewDualQueue[int64](cfg)
			}).SetMetrics(cfg.Metrics).SetFault(cfg.Fault)
			return handoffChaos{fab}
		},
	},
	{
		key: "elim", desc: "adaptive elimination over fair queue",
		syncPair: true, cancelable: true, batch: true,
		classes: []fault.Class{fault.ClassQueue, fault.ClassExchanger, fault.ClassWait},
		sometimesCounters: map[metrics.ID]string{
			metrics.ElimHits: "elimination-fires",
		},
		build: func(cfg core.WaitConfig) chaosStruct {
			arena := exchanger.NewArenaAdaptive[int64](0).
				SetMetrics(cfg.Metrics).SetFault(cfg.Fault)
			return elimChaos{handoffChaos{core.NewDualQueue[int64](cfg)}, arena, new(atomic.Int64)}
		},
	},
	{
		key: "pool", desc: "executor pool over fair queue",
		cancelable: true, executor: true,
		buffered: poolBuffered,
		classes:  []fault.Class{fault.ClassQueue, fault.ClassWait, fault.ClassPool},
		sometimesCounters: map[metrics.ID]string{
			metrics.TasksShed: "shed-under-overload",
		},
		build: func(cfg core.WaitConfig) chaosStruct {
			return newPoolChaos(cfg)
		},
	},
}

func coreByKey(key string) (coreDef, bool) {
	for _, c := range coreDefs {
		if c.key == key {
			return c, true
		}
	}
	return coreDef{}, false
}
