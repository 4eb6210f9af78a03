// Package shard implements the sharded hand-off fabric: N independent core
// dual structures composed behind one synchronous-queue surface, so that
// the single contended head/tail word the paper identifies as the
// scalability limit becomes N words on N cache lines.
//
// Dispatch is striped: each operation draws a random home shard (per-P
// randomness, so the choice itself contends on nothing) and first sweeps
// the shards the presence summaries flag as occupied, probing with a
// zero-patience Offer or Poll, starting at home. A probe that succeeds on
// a foreign shard is a steal: the operation rescued a waiter another
// stripe left behind, counted by metrics.ShardSteals. Only when the sweep
// finds no counterpart anywhere does the operation commit to waiting on
// its home shard, through a Dekker-style protocol — link a waiter,
// announce the shard's bit in the own-side summary, reload the opposite
// summary — that makes cross-shard stranding impossible without any
// timer-based rescue: of two parties racing to commit on different
// shards, at least one's reload observes the other's announced bit, and
// the probe it then launches finds the other's already-linked waiter.
// The observer withdraws its own waiter and pairs; the observed party is
// fulfilled where it waits. The announce and reload run as the shard's
// commit step (core.Withdrawn documents the contract), inside the one
// waiting call, so a committed wait costs the shard's own node and
// nothing more.
//
// The price of sharding is the pairing discipline: FIFO (fair) order holds
// only per shard. Two producers that wait on different shards may be
// fulfilled in either order, whatever their arrival order; the fabric's
// contract is "per-shard FIFO, globally none", which is the standard
// relaxation scalable queues trade for cache-line independence (cf. the
// distributed-queue designs surveyed in PAPERS.md). Synchrony and
// conservation — the §2.2 dual-structure contract — are NOT relaxed:
// every transfer still happens inside one shard's linearized hand-off,
// which the history-bridge tests verify end to end.
//
// Close composes per shard: Close closes every shard, each shard's own
// eviction sweep wakes its waiters with the Closed status, and the
// fabric's waiting paths return it unchanged. Fault injection composes
// the same way — the shards share the fabric's injector, and the fabric
// adds its own site (fault.ShardStealCAS) that makes an opportunistic
// steal probe lose its race and move on, exercising the keep-searching
// arc of the sweep. The commit protocol's own probes are exempt: they
// carry the no-stranding guarantee, so a manufactured lost race there
// would inject a deadlock no real execution can produce.
package shard

import (
	"math/bits"
	"math/rand/v2"
	"runtime"
	"sync/atomic"
	"time"

	"synchq/internal/core"
	"synchq/internal/fault"
	"synchq/internal/metrics"
)

// Dual is the surface the fabric requires of each shard — exactly the
// method set the hand-off cores (core.DualQueue, core.DualStack,
// segq.Queue) provide.
type Dual[T any] interface {
	Put(T)
	Take() T
	PutDeadline(T, time.Time, <-chan struct{}) core.Status
	TakeDeadline(time.Time, <-chan struct{}) (T, core.Status)
	PutCommit(T, time.Time, <-chan struct{}, func() bool) core.Status
	TakeCommit(time.Time, <-chan struct{}, func() bool) (T, core.Status)
	Offer(T) bool
	OfferTimeout(T, time.Duration) bool
	Poll() (T, bool)
	PollTimeout(time.Duration) (T, bool)
	HasWaitingConsumer() bool
	HasWaitingProducer() bool
	IsEmpty() bool
	ReserveTake() (T, core.Ticket[T], bool)
	ReservePut(T) (core.Ticket[T], bool)
	Close()
	Closed() bool
}

// errClosedDemand matches the core structures' closed-demand panic text
// (and the public ErrClosed message) so every closed-queue panic reads the
// same regardless of sharding.
const errClosedDemand = "synchq: queue closed"

// Fabric composes n power-of-two shards behind the synchronous queue
// surface. Create one with New; a Fabric must not be copied after first
// use.
type Fabric[T any] struct {
	shards []Dual[T]
	mask   int
	// st is the per-shard controller state (probe-skip streaks, depth and
	// steal gauges), one padded cache line per shard; see adaptive.go.
	st []shardState
	// putStep[i] and takeStep[i] are shard i's commit steps for each side
	// (see commitStep), built once in New so a committed wait allocates
	// nothing in the fabric.
	putStep, takeStep []func() bool
	// ctl is the self-scaling width controller; nil on fixed-width
	// fabrics, which then never touch a controller word.
	ctl *widthCtl
	// m receives the fabric's counters (ShardSteals; the shards usually
	// share the same handle so per-shard events aggregate); nil disables.
	m *metrics.Handle
	// f injects deterministic faults at the steal-probe site and the
	// width controller's grow/drain windows; nil disables.
	f *fault.Injector
	// wmask is the effective routing mask: home() draws from
	// [0, wmask+1). On a fixed-width fabric it equals mask forever; on a
	// self-scaling one the controller republishes it. Width is a routing
	// hint only — sweeps, Dekker reloads and Close always cover all
	// mask+1 shards, which is what makes width changes safe (see
	// adaptive.go).
	wmask atomic.Int32
	// closed is published by Close only after every shard has shut down,
	// so Closed() never leads the last shard: once a caller observes
	// Closed()==true, no transfer can complete on any shard — the same
	// linearization the unsharded structures give.
	closed atomic.Bool

	// prod and cons are presence summaries: bit i set means shard i MAY
	// hold a waiting producer (prod) or consumer (cons). A waiter sets its
	// shard's bit before committing, so a sweep is one atomic load plus
	// probes of only the flagged shards — not a walk of every shard. The
	// summaries are conservative, never authoritative: a set bit can be
	// stale (the waiter was fulfilled, timed out, or has announced but not
	// yet enqueued), and probes clear bits they find stale. A missed
	// pairing due to a stale or not-yet-visible bit is always repaired by
	// the rescue loop, so the summaries are purely an optimization — the
	// steal sweep's correctness never depends on them being exact.
	//
	// The commit path orders "set own bit, then reload the opposite
	// summary" (Dekker-style): of two parties racing to commit on
	// different shards, at least one's reload observes the other's bit and
	// probes it, shrinking the mutual-stranding window from a rescue round
	// to the enqueue latency.
	_    [64]byte // keep the hot summaries off the shards header's line
	prod atomic.Uint64
	_    [56]byte // producers RMW prod, consumers RMW cons: split the lines
	cons atomic.Uint64
	_    [64]byte
}

// DefaultShards returns the platform shard count: GOMAXPROCS rounded up to
// a power of two, capped at 64 — one shard per hardware thread that could
// be hammering the structure, and a mask-friendly size.
func DefaultShards() int {
	return ceilPow2(runtime.GOMAXPROCS(0))
}

// ceilPow2 rounds n up to a power of two in [1, 64].
func ceilPow2(n int) int {
	p := 1
	for p < n && p < 64 {
		p <<= 1
	}
	return p
}

// New returns a fabric of n shards (0 or negative: DefaultShards; any
// other value is rounded up to a power of two and capped at 64, since the
// presence summaries are single 64-bit words) built by mk, which is
// called once per shard. Use Shards to read the count actually chosen.
// Attach metrics and fault injection to the shards
// inside mk — sharing one handle across shards keeps the counter set
// aggregated, which is how the -metrics tables expect it.
func New[T any](n int, mk func(i int) Dual[T]) *Fabric[T] {
	if n <= 0 {
		n = DefaultShards()
	} else {
		n = ceilPow2(n)
	}
	f := &Fabric[T]{
		shards:   make([]Dual[T], n),
		mask:     n - 1,
		st:       make([]shardState, n),
		putStep:  make([]func() bool, n),
		takeStep: make([]func() bool, n),
	}
	f.wmask.Store(int32(n - 1))
	for i := range f.shards {
		f.shards[i] = mk(i)
		bit, st := uint64(1)<<uint(i), &f.st[i]
		f.putStep[i] = func() bool { return commitStep(&f.prod, &f.cons, bit, &st.emptyProd) }
		f.takeStep[i] = func() bool { return commitStep(&f.cons, &f.prod, bit, &st.emptyCons) }
	}
	return f
}

// SetMetrics attaches an instrumentation handle for the fabric-level
// counters (nil disables) and returns f for chaining. Call before the
// fabric is shared between goroutines.
func (f *Fabric[T]) SetMetrics(h *metrics.Handle) *Fabric[T] {
	f.m = h
	return f
}

// SetFault attaches a fault injector for the steal-probe site (nil
// disables) and returns f for chaining. Call before the fabric is shared
// between goroutines.
func (f *Fabric[T]) SetFault(inj *fault.Injector) *Fabric[T] {
	f.f = inj
	return f
}

// Metrics returns the fabric's instrumentation handle (nil when disabled).
func (f *Fabric[T]) Metrics() *metrics.Handle { return f.m }

// Shards returns the current effective width: the number of shards new
// arrivals route to. On a fixed-width fabric this is the constructed
// count forever; on a self-scaling one (NewAuto) it moves with observed
// contention, between 1 and MaxShards.
func (f *Fabric[T]) Shards() int { return int(f.wmask.Load()) + 1 }

// MaxShards returns the number of constructed shards — the self-scaling
// controller's width ceiling, and the count sweeps and Close always
// cover.
func (f *Fabric[T]) MaxShards() int { return len(f.shards) }

// Shard returns shard i (for tests and monitoring).
func (f *Fabric[T]) Shard(i int) Dual[T] { return f.shards[i] }

// home draws a random home shard within the effective width.
// math/rand/v2's global generator is per-P, so striping itself introduces
// no shared word — the entire point of the fabric.
func (f *Fabric[T]) home() int {
	m := int(f.wmask.Load())
	if m == 0 {
		return 0
	}
	return int(rand.Uint64()) & m
}

// sweepPut probes the shards the cons summary flags as holding a waiting
// consumer, starting at home. Probes that find a flagged shard actually
// empty clear its stale bit, keeping the summary tight. A critical sweep
// is exempt from fault injection: it is the reload of the commit
// protocol's announce-then-recheck handshake, whose probes are what make
// cross-shard stranding impossible, so an injected "lost race" there would
// manufacture a deadlock no real execution can produce.
// t0 is the fabric operation's arrival timestamp (zero when the fabric is
// uninstrumented); a probe that completes on a non-home shard records the
// arrival-to-steal latency separately from the shards' own hand-off
// histograms. ss accumulates the operation's contention evidence (lost
// probe races, completed-as-a-steal) for the width controller.
//
// Non-critical sweeps are steal-weighted: a foreign shard observed empty
// on probeSkipAfter consecutive probes is passed over without probing
// (with a periodic re-probe), so drained shards stop costing two loads on
// every sweep of every operation. Critical sweeps never skip — they carry
// the commit protocol's no-stranding guarantee — and the home shard is
// never skipped, since it is where the operation would commit anyway.
func (f *Fabric[T]) sweepPut(home int, v T, critical bool, t0 int64, ss *sweepStat) bool {
	avail := f.cons.Load()
	for avail != 0 {
		i := nearestBit(avail, home)
		avail &^= 1 << uint(i)
		if !critical && i != home {
			if f.skipProbe(i, &f.st[i].emptyCons) {
				continue // steal-weighting: shard repeatedly seen drained
			}
			if f.f.FailCAS(fault.ShardStealCAS) {
				continue // injected lost steal race: move to the next shard
			}
		}
		// Check occupancy before probing: a stale hint costs one load here
		// instead of a full failed hand-off attempt. A linked reservation is
		// visible to HasWaitingConsumer the instant it is enqueued, so the
		// critical sweep's no-stranding guarantee survives the shortcut.
		if f.shards[i].HasWaitingConsumer() {
			resetStreak(&f.st[i].emptyCons)
			if f.shards[i].Offer(v) {
				if i != home {
					f.st[i].steals.Add(1)
					ss.stole = true
					f.m.Inc(metrics.ShardSteals)
					f.m.Since(metrics.StealNs, t0)
				}
				return true
			}
			// A waiter was there and another operation claimed it first: a
			// lost probe race, the contention evidence the width follows.
			ss.fails++
		} else {
			f.noteProbeEmpty(i, &f.st[i].emptyCons)
			clearBit(&f.cons, 1<<uint(i))
			// The staleness check and the clear are two steps: a consumer
			// may link and announce between them, and its announce can be a
			// no-op when the bit was already set, so the clear would erase a
			// live hint for good. Re-check and restore — a set bit with a
			// waiter behind it must stay durable, or the commit protocol's
			// Dekker reload can miss the waiter forever.
			if f.shards[i].HasWaitingConsumer() {
				f.st[i].emptyCons.Store(0)
				setBit(&f.cons, 1<<uint(i))
				avail |= 1 << uint(i)
			}
		}
	}
	return false
}

// sweepTake probes the shards the prod summary flags as holding a waiting
// producer, starting at home.
func (f *Fabric[T]) sweepTake(home int, critical bool, t0 int64, ss *sweepStat) (T, bool) {
	avail := f.prod.Load()
	for avail != 0 {
		i := nearestBit(avail, home)
		avail &^= 1 << uint(i)
		if !critical && i != home {
			if f.skipProbe(i, &f.st[i].emptyProd) {
				continue
			}
			if f.f.FailCAS(fault.ShardStealCAS) {
				continue
			}
		}
		if f.shards[i].HasWaitingProducer() {
			resetStreak(&f.st[i].emptyProd)
			if v, ok := f.shards[i].Poll(); ok {
				if i != home {
					f.st[i].steals.Add(1)
					ss.stole = true
					f.m.Inc(metrics.ShardSteals)
					f.m.Since(metrics.StealNs, t0)
				}
				return v, true
			}
			ss.fails++
		} else {
			f.noteProbeEmpty(i, &f.st[i].emptyProd)
			clearBit(&f.prod, 1<<uint(i))
			// Same check-then-clear repair as sweepPut: restore the hint if
			// a producer linked between the staleness check and the clear.
			if f.shards[i].HasWaitingProducer() {
				f.st[i].emptyProd.Store(0)
				setBit(&f.prod, 1<<uint(i))
				avail |= 1 << uint(i)
			}
		}
	}
	var zero T
	return zero, false
}

// nearestBit returns the index of a set bit of avail (avail != 0),
// preferring home, then the bits cyclically above it — the same
// home-first order the unsummarized sweep would visit.
func nearestBit(avail uint64, home int) int {
	if avail&(1<<uint(home)) != 0 {
		return home
	}
	rot := avail>>uint(home) | avail<<(64-uint(home))
	return (home + bits.TrailingZeros64(rot)) & 63
}

// setBit and clearBit are the summary updates, written as CAS loops (the
// module predates the atomic Or/And helpers). Lost races only delay a
// hint, never a transfer.
func setBit(w *atomic.Uint64, bit uint64) {
	for {
		old := w.Load()
		if old&bit != 0 || w.CompareAndSwap(old, old|bit) {
			return
		}
	}
}

func clearBit(w *atomic.Uint64, bit uint64) {
	for {
		old := w.Load()
		if old&bit == 0 || w.CompareAndSwap(old, old&^bit) {
			return
		}
	}
}

// commitStep is the announce-then-reload half of the commit protocol, run
// by the home shard as its commit step — after our waiter has linked and
// before it spins or parks. It sets the shard's bit in our own summary
// (the announce doubles as the steal-weighting reset: a linked waiter
// makes the shard worth probing again immediately) and reports whether
// the opposite summary is still empty, i.e. whether it is safe to wait.
func commitStep(own, opp *atomic.Uint64, bit uint64, streak *atomic.Int32) bool {
	setBit(own, bit)
	resetStreak(streak)
	return opp.Load() == 0
}

// put is the producer engine, built on the commit protocol that makes
// cross-shard stranding impossible without any timer-based rescue:
//
//  1. Opportunistic sweep: pair with a consumer already flagged anywhere.
//  2. Wait on the home shard through PutCommit — the node is LINKED
//     before anything is announced.
//  3. The commit step announces (sets home's bit in the prod summary) and
//     runs the Dekker reload (re-reads the cons summary). Because every
//     waiter links then announces then reloads, of any producer/consumer
//     pair racing to commit on different shards, at least one's reload
//     observes the other's already-set bit (the bit-sets and reloads are
//     totally ordered), and the shard it then probes already holds the
//     other's linked node. A flagged consumer means our datum must come
//     back out first: the step declines, the shard withdraws our node (a
//     withdrawal that loses to a fulfiller means we are done), and we
//     retry from the sweep.
//  4. Otherwise the same call goes on to wait — untimed for a demand put,
//     so the steady state costs one node and one park, with no timer and
//     no periodic rescue wakeups.
func (f *Fabric[T]) put(v T, deadline time.Time, cancel <-chan struct{}) core.Status {
	var ss sweepStat
	st := f.putEngine(v, deadline, cancel, &ss)
	f.observe(&ss)
	return st
}

func (f *Fabric[T]) putEngine(v T, deadline time.Time, cancel <-chan struct{}, ss *sweepStat) core.Status {
	t0 := f.m.Start()
	home := f.home()
	critical := false
	for {
		if f.sweepPut(home, v, critical, t0, ss) {
			return core.OK
		}
		if !deadline.IsZero() && !time.Now().Before(deadline) {
			// No counterpart and the caller's patience is spent (or was
			// zero to begin with: a pure Offer).
			return core.Timeout
		}
		f.st[home].depth.Add(1)
		st := f.shards[home].PutCommit(v, deadline, cancel, f.putStep[home])
		f.st[home].depth.Add(-1)
		if st == core.OK {
			return st
		}
		// Our bit may now be stale; drop it so sweeps stay tight.
		f.retireBit(home, true)
		if st != core.Withdrawn {
			return st
		}
		// The Dekker reload flagged a consumer somewhere: retry through
		// the sweep, critical from here on — these probes carry the
		// no-stranding guarantee. Losing the commit to a cross-shard race
		// is contention evidence just like a lost probe.
		ss.fails++
		critical = true
	}
}

// take is the consumer engine, symmetric to put.
func (f *Fabric[T]) take(deadline time.Time, cancel <-chan struct{}) (T, core.Status) {
	var ss sweepStat
	v, st := f.takeEngine(deadline, cancel, &ss)
	f.observe(&ss)
	return v, st
}

func (f *Fabric[T]) takeEngine(deadline time.Time, cancel <-chan struct{}, ss *sweepStat) (T, core.Status) {
	t0 := f.m.Start()
	home := f.home()
	critical := false
	for {
		if v, ok := f.sweepTake(home, critical, t0, ss); ok {
			return v, core.OK
		}
		if !deadline.IsZero() && !time.Now().Before(deadline) {
			var zero T
			return zero, core.Timeout
		}
		f.st[home].depth.Add(1)
		v, st := f.shards[home].TakeCommit(deadline, cancel, f.takeStep[home])
		f.st[home].depth.Add(-1)
		if st == core.OK {
			return v, st
		}
		f.retireBit(home, false)
		if st != core.Withdrawn {
			return v, st
		}
		ss.fails++
		critical = true
	}
}

// retireBit drops shard i's bit from the prod (or cons) summary once the
// shard no longer holds a waiting producer (consumer). Like the sweeps, it
// re-checks after the clear and restores the bit if a waiter linked and
// announced in between — that announce may have been a no-op on the
// still-set bit, and a set bit with a waiter behind it must stay durable.
func (f *Fabric[T]) retireBit(i int, prod bool) {
	w, bit := &f.cons, uint64(1)<<uint(i)
	if prod {
		w = &f.prod
	}
	if f.waiting(i, prod) {
		return
	}
	clearBit(w, bit)
	if f.waiting(i, prod) {
		setBit(w, bit)
	}
}

// waiting reports whether shard i holds a waiting producer (or consumer).
func (f *Fabric[T]) waiting(i int, prod bool) bool {
	if prod {
		return f.shards[i].HasWaitingProducer()
	}
	return f.shards[i].HasWaitingConsumer()
}

// closedStatus reports Closed for operations that must refuse a shut-down
// fabric before sweeping (a sweep on a closed fabric merely misses, since
// closed shards refuse zero-patience probes with a false). It reads the
// fabric-level flag, not shard state: during a concurrent Close the
// individual shards close in index order, and reporting Closed from a
// partially closed fabric would let a caller observe Closed()==true while
// transfers still complete on not-yet-closed shards. Operations racing
// the shard shutdowns themselves still get core.Closed from their shard.
func (f *Fabric[T]) closedStatus() bool { return f.closed.Load() }

// Put transfers v to a consumer, waiting as long as necessary. It panics
// if the fabric is closed, mirroring the unsharded demand operations.
func (f *Fabric[T]) Put(v T) {
	if st := f.put(v, time.Time{}, nil); st == core.Closed {
		panic(errClosedDemand)
	}
}

// Take receives a value from a producer, waiting as long as necessary. It
// panics if the fabric is closed.
func (f *Fabric[T]) Take() T {
	v, st := f.take(time.Time{}, nil)
	if st == core.Closed {
		panic(errClosedDemand)
	}
	return v
}

// PutDeadline transfers v, giving up at the deadline (zero: never) or when
// cancel fires (nil: never).
func (f *Fabric[T]) PutDeadline(v T, deadline time.Time, cancel <-chan struct{}) core.Status {
	if f.closedStatus() {
		return core.Closed
	}
	return f.put(v, deadline, cancel)
}

// TakeDeadline receives a value, giving up at the deadline (zero: never)
// or when cancel fires (nil: never).
func (f *Fabric[T]) TakeDeadline(deadline time.Time, cancel <-chan struct{}) (T, core.Status) {
	if f.closedStatus() {
		var zero T
		return zero, core.Closed
	}
	return f.take(deadline, cancel)
}

// Offer transfers v only if a consumer is already waiting on some shard.
func (f *Fabric[T]) Offer(v T) bool {
	var ss sweepStat
	ok := f.sweepPut(f.home(), v, false, f.m.Start(), &ss)
	f.observe(&ss)
	return ok
}

// OfferTimeout transfers v, waiting up to d for a consumer.
func (f *Fabric[T]) OfferTimeout(v T, d time.Duration) bool {
	if d <= 0 {
		return f.Offer(v)
	}
	return f.put(v, time.Now().Add(d), nil) == core.OK
}

// Poll receives a value only if a producer is already waiting on some
// shard.
func (f *Fabric[T]) Poll() (T, bool) {
	var ss sweepStat
	v, ok := f.sweepTake(f.home(), false, f.m.Start(), &ss)
	f.observe(&ss)
	return v, ok
}

// PollTimeout receives a value, waiting up to d for a producer.
func (f *Fabric[T]) PollTimeout(d time.Duration) (T, bool) {
	if d <= 0 {
		return f.Poll()
	}
	v, st := f.take(time.Now().Add(d), nil)
	return v, st == core.OK
}

// ReserveTake registers a request for a value: an immediate counterpart on
// any shard is consumed at once (nil ticket); otherwise the reservation is
// pinned to the home shard and its ticket returned. A pinned reservation
// is visible to every producer's sweep, but — unlike the demand operations
// — its Await has no rescue loop (the ticket belongs to one shard), so
// callers that mix long-lived reservations from both sides should bound
// Await and re-reserve, or use the demand operations. Panics if the fabric
// is closed, like the unsharded reservation requests.
func (f *Fabric[T]) ReserveTake() (T, core.Ticket[T], bool) {
	var ss sweepStat
	defer f.observe(&ss)
	t0 := f.m.Start()
	var zero T
	home := f.home()
	bit := uint64(1) << uint(home)
	critical := false
	for {
		if v, ok := f.sweepTake(home, critical, t0, &ss); ok {
			return v, nil, true
		}
		// Announce early — unlike the demand path, which reserves first and
		// announces second, the pre-link bit narrows the window in which a
		// producer's Dekker reload misses us. It is only a hint at this
		// point: a sweep probing in the announce-to-link window sees no
		// waiter and may clear it, which is why the bit is re-established
		// below once the reservation has actually linked.
		setBit(&f.cons, bit)
		resetStreak(&f.st[home].emptyCons)
		v, tkt, ok := f.shards[home].ReserveTake()
		if ok {
			// Paired immediately; drop our announce if it is now stale.
			f.retireBit(home, false)
			return v, nil, true
		}
		// The reservation is linked. Run the demand path's commit step:
		// re-establishing the bit repairs any clear that raced the pre-link
		// window — from here on announced implies linked, so the pinned
		// reservation is durably visible to every producer's sweep (the
		// sweeps restore a set bit they clear while a waiter is present).
		if !f.takeStep[home]() {
			// Dekker reload flags a producer somewhere: it may have
			// committed to waiting before our announce was visible, so no
			// rescue would find either of us. Abort and retry through the
			// sweep, exactly as the demand path withdraws and retries.
			if !tkt.Abort() {
				v, _ := tkt.TryFollowup()
				return v, nil, true
			}
			f.retireBit(home, false)
			critical = true
			continue
		}
		return zero, tkt, false
	}
}

// ReservePut offers v to a future consumer, with the same shard-pinning
// contract as ReserveTake.
func (f *Fabric[T]) ReservePut(v T) (core.Ticket[T], bool) {
	var ss sweepStat
	defer f.observe(&ss)
	t0 := f.m.Start()
	home := f.home()
	bit := uint64(1) << uint(home)
	critical := false
	for {
		if f.sweepPut(home, v, critical, t0, &ss) {
			return nil, true
		}
		// Early hint; see ReserveTake for the announce/link protocol.
		setBit(&f.prod, bit)
		resetStreak(&f.st[home].emptyProd)
		tkt, ok := f.shards[home].ReservePut(v)
		if ok {
			f.retireBit(home, true)
			return nil, true
		}
		// Linked: the commit step re-establishes the bit so a clear that
		// raced the pre-link window cannot leave the reservation invisible.
		if !f.putStep[home]() {
			if !tkt.Abort() {
				tkt.TryFollowup()
				return nil, true
			}
			f.retireBit(home, true)
			critical = true
			continue
		}
		return tkt, false
	}
}

// Close shuts every shard down. Each shard's eviction sweep wakes its own
// waiters with the Closed status; waiters inside a rescue round observe
// Closed on their next bounded wait. Close is idempotent and safe to call
// concurrently with any operation.
func (f *Fabric[T]) Close() {
	for _, s := range f.shards {
		s.Close()
	}
	f.closed.Store(true)
}

// Closed reports whether Close has been called.
func (f *Fabric[T]) Closed() bool { return f.closedStatus() }

// HasWaitingConsumer reports whether a consumer was observed waiting on
// any shard.
func (f *Fabric[T]) HasWaitingConsumer() bool {
	for _, s := range f.shards {
		if s.HasWaitingConsumer() {
			return true
		}
	}
	return false
}

// HasWaitingProducer reports whether a producer was observed waiting on
// any shard.
func (f *Fabric[T]) HasWaitingProducer() bool {
	for _, s := range f.shards {
		if s.HasWaitingProducer() {
			return true
		}
	}
	return false
}

// IsEmpty reports whether every shard was observed empty.
func (f *Fabric[T]) IsEmpty() bool {
	for _, s := range f.shards {
		if !s.IsEmpty() {
			return false
		}
	}
	return true
}
