// Package metrics is the low-overhead instrumentation layer for the
// synchronous queue implementations. It exposes the micro-behaviors behind
// the paper's performance claims — CAS retry rates at each loop site, the
// spin-vs-park split of the §Pragmatics waiting strategy, fulfillment and
// cancellation rates, and how often canceled-node cleaning (the queue's
// lazy cleanMe protocol, the stack's traversal sweep) actually runs — so
// that performance work on the hot paths can be judged by what the
// algorithm did, not only by wall time.
//
// A Handle is a per-queue set of dense atomic counters. All methods are
// safe on a nil *Handle and do nothing, so instrumented code carries
// exactly one predictable branch when metrics are disabled:
//
//	q.m.Inc(metrics.Parks) // no-op (one nil check) when q.m == nil
//
// Counters are monotonically increasing; deltas over an interval are taken
// with Snapshot and Snapshot.Sub. A Handle can be published to expvar for
// long-running processes.
package metrics

import (
	"expvar"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
)

// ID names one counter in a Handle's set.
type ID int

// The counter inventory. Each site-specific CAS-failure counter maps to a
// retry arc in the paper's pseudocode; the event counters tally the
// waiting-policy and cleaning behaviors of §Pragmatics.
const (
	// CASFailEnqueue counts lost enqueue/push races: the tail-next CAS of
	// the dual queue (Listing 5 line 13) or the head push CAS of the dual
	// stack (Listing 6 line 11) failed and the engage loop retried.
	CASFailEnqueue ID = iota
	// CASFailFulfill counts failed fulfillment attempts: the item CAS on
	// the node at head (queue, Listing 5 line 28) or the fulfilling-node
	// push / match CAS (stack, Listing 6 lines 18–21) lost to a racing
	// fulfiller or to cancellation.
	CASFailFulfill
	// CASFailClean counts lost unlink CASes while removing canceled nodes.
	CASFailClean
	// HelpCollisions counts encounters with another thread's incomplete
	// operation that this thread helped finish: a lagging tail in the
	// queue, a foreign fulfilling node on top of the stack (the helping
	// protocol of Listing 6 lines 26–31).
	HelpCollisions
	// Spins counts busy-wait iterations taken before parking.
	Spins
	// Parks counts waits that actually blocked (slow-path park entries).
	Parks
	// Unparks counts permits delivered to blocked or about-to-block
	// waiters (coalesced unparks of an already-available permit are not
	// counted). The segmented core unparks only waiters that published a
	// parker, so a hand-off whose waiter was resolved before its spin
	// phase ended counts no unpark.
	Unparks
	// Fulfillments counts matched put/take pairs, tallied once per pair
	// by the fulfilling side.
	Fulfillments
	// AsyncDeposits counts asynchronous data deposits (the TransferQueue
	// extension's Put path).
	AsyncDeposits
	// Timeouts counts operations abandoned because their patience
	// expired, including zero-patience poll/offer misses.
	Timeouts
	// Cancellations counts operations abandoned because their cancel
	// channel fired (the Go analogue of thread interruption).
	Cancellations
	// CleanSweeps counts canceled nodes actually unlinked: cleanMe
	// flushes and interior unlinks in the queue, head absorption and
	// traversal unsplices in the stack.
	CleanSweeps
	// ClosedWakeups counts waiters woken with the Closed status by a
	// graceful shutdown (Close), including waiters that detected the
	// close themselves after racing an in-flight close sweep.
	ClosedWakeups
	// NodeAllocs counts hot-path allocations the recycling layer could
	// not avoid: a waiter node requested while its pool was empty, or a
	// value box newly issued by the dual queue's box table.
	NodeAllocs
	// NodeReuses counts waiter nodes served from a structure's recycling
	// pool instead of the allocator, and value boxes taken from the box
	// table's free stack.
	NodeReuses
	// SpinBudget is a gauge, not a counter: the adaptive calibrator's
	// current untimed spin budget (see internal/spin.Calibrator), written
	// with Set. Zero when the structure uses a static spin policy.
	SpinBudget
	// ElimHits counts hand-offs completed in an elimination arena — pairs
	// that met in a slot and never touched the backing structure's
	// head/tail word.
	ElimHits
	// ElimMisses counts elimination attempts that expired (or were skipped
	// by the adaptive front-end's collapse-to-direct policy after probing)
	// and fell through to the backing structure.
	ElimMisses
	// ArenaWidth is a gauge: the adaptive arena's current active slot
	// count (see internal/exchanger.adaptor), written with Set. Zero when
	// the arena runs the static fixed-width policy.
	ArenaWidth
	// ShardSteals counts hand-offs a sharded fabric completed on a shard
	// other than the operation's home shard — the work-stealing rescue
	// that keeps waiters from stranding on an idle shard.
	ShardSteals
	// TasksShed counts executor tasks dropped by an explicit shedding
	// decision — an expired deadline detected before dispatch, or a
	// ShedOldest eviction that made room for a newer submission. Shed
	// tasks never run; they are the executor's graceful-degradation arm.
	TasksShed
	// TasksRejected counts executor submissions refused at admission
	// (saturation under the Reject policy, admission-budget exhaustion,
	// or a blocking offer that timed out / was canceled before landing).
	// Rejected tasks were never accepted, so they sit outside the
	// conservation ledger.
	TasksRejected
	// TasksReturned counts accepted-but-unrun tasks handed back to the
	// caller by a forced Drain — the conservation ledger's third column
	// (accepted == executed + shed + returned).
	TasksReturned
	// CrashLoops counts crash-loop detections in an executor's workers:
	// a panic burst dense enough that the pool engaged spawn backoff.
	CrashLoops
	// SegUnlinks counts hand-off segments whose cells all reached a
	// terminal state (the segmented core's recycling trigger): each such
	// segment is handed to the unlinker and spliced out of the ring, so
	// this counter evidences that cancellation storms actually reclaim
	// their segments instead of growing the structure.
	SegUnlinks
	// FabricWidth is a gauge: a self-scaling shard fabric's current
	// effective width (the number of shards new arrivals route to),
	// written with Set on every width change. Zero when the fabric runs a
	// fixed width chosen at construction.
	FabricWidth
	// FabricWidthChanges counts width transitions of a self-scaling shard
	// fabric — activations under contention and collapses on quiet
	// structures both count, so a nonzero delta evidences the controller
	// actually moved.
	FabricWidthChanges
	// ShardProbeMisses counts sweep probes of a presence-flagged shard
	// that found no waiter behind the hint — the wasted-steal work the
	// probe-skip policy exists to bound.
	ShardProbeMisses
	// ShardProbeSkips counts flagged shards a sweep passed over without
	// probing because the shard had been observed empty on K consecutive
	// probes (steal-weighting); periodic re-probes keep skipped shards
	// from going dark.
	ShardProbeSkips

	// NumIDs is the number of counters in a Handle.
	NumIDs
)

var names = [NumIDs]string{
	CASFailEnqueue:     "cas-fail-enqueue",
	CASFailFulfill:     "cas-fail-fulfill",
	CASFailClean:       "cas-fail-clean",
	HelpCollisions:     "help-collisions",
	Spins:              "spins",
	Parks:              "parks",
	Unparks:            "unparks",
	Fulfillments:       "fulfillments",
	AsyncDeposits:      "async-deposits",
	Timeouts:           "timeouts",
	Cancellations:      "cancellations",
	CleanSweeps:        "clean-sweeps",
	ClosedWakeups:      "closed-wakeups",
	NodeAllocs:         "node-allocs",
	NodeReuses:         "node-reuses",
	SpinBudget:         "spin-budget",
	ElimHits:           "elim-hits",
	ElimMisses:         "elim-misses",
	ArenaWidth:         "arena-width",
	ShardSteals:        "shard-steals",
	TasksShed:          "tasks-shed",
	TasksRejected:      "tasks-rejected",
	TasksReturned:      "tasks-returned",
	CrashLoops:         "crash-loops",
	SegUnlinks:         "seg-unlinks",
	FabricWidth:        "fabric-width",
	FabricWidthChanges: "fabric-width-changes",
	ShardProbeMisses:   "shard-probe-misses",
	ShardProbeSkips:    "shard-probe-skips",
}

// String returns the counter's stable snake-ish name (used as expvar map
// keys and table row labels).
func (id ID) String() string {
	if id < 0 || id >= NumIDs {
		return fmt.Sprintf("metrics.ID(%d)", int(id))
	}
	return names[id]
}

// gauges marks the IDs written with Set: levels such as a spin budget or
// a width, not event counts. This is the one place that says which IDs
// are gauges; Merge reads it.
var gauges = [NumIDs]bool{SpinBudget: true, ArenaWidth: true, FabricWidth: true}

// Gauge reports whether id is a level written with Set rather than a
// monotone count.
func (id ID) Gauge() bool { return id >= 0 && id < NumIDs && gauges[id] }

// Merge combines two handles' values of id: counts add, while gauges take
// the larger level — four shards at spin budget 40 have a budget of 40,
// not 160.
func (id ID) Merge(a, b int64) int64 {
	if id.Gauge() {
		return max(a, b)
	}
	return a + b
}

// Lookup returns the ID with the given name (see String).
func Lookup(name string) (ID, bool) {
	for i, n := range names {
		if n == name {
			return ID(i), true
		}
	}
	return 0, false
}

// Names returns all counter names in ID order.
func Names() []string {
	out := make([]string, NumIDs)
	for i := range out {
		out[i] = ID(i).String()
	}
	return out
}

// Handle is a per-queue counter set. The zero value is ready to use;
// a nil *Handle is valid and every method on it is a no-op, which is how
// the disabled path stays at a single branch. A Handle must not be copied
// after first use.
//
// The counters sit dense, eight to a cache line, so a handle fits the
// 384-byte size class instead of 2000 bytes: a structure builds one handle
// per shard, so a per-counter pad multiplied every instance's fixed cost.
// One hand-off's counter writes (node reuse, fulfillment, spins) come from
// the same goroutine in sequence, so packing them costs it one line
// instead of several; the sharded fabric stripes them across its per-shard
// handles (see DESIGN.md "Instrumentation layer").
//
// The latency histograms are built on first record: each slot stays nil
// until a Record or Since into it installs a Histogram with one CAS, and
// an installed histogram is never replaced. Readers treat a nil slot as
// an empty histogram, so a structure pays 512 bytes only for the
// histograms it records into, not for all NumHistIDs of them.
type Handle struct {
	_    [64]byte // keep c[0] off whatever cache line precedes the allocation
	c    [NumIDs]atomic.Int64
	hist [NumHistIDs]atomic.Pointer[Histogram]
}

// New returns a fresh, zeroed counter set.
func New() *Handle { return &Handle{} }

// Enabled reports whether the handle records anything (i.e. is non-nil).
func (h *Handle) Enabled() bool { return h != nil }

// Inc adds one to the counter. No-op on a nil handle.
func (h *Handle) Inc(id ID) {
	if h != nil {
		h.c[id].Add(1)
	}
}

// Add adds n to the counter. No-op on a nil handle or zero n.
func (h *Handle) Add(id ID, n int64) {
	if h != nil && n != 0 {
		h.c[id].Add(n)
	}
}

// Set stores v as the counter's value — the gauge-style write used for
// levels such as SpinBudget, as opposed to the monotone Inc/Add. No-op on
// a nil handle.
func (h *Handle) Set(id ID, v int64) {
	if h != nil {
		h.c[id].Store(v)
	}
}

// Load returns the counter's current value (zero on a nil handle).
func (h *Handle) Load(id ID) int64 {
	if h == nil {
		return 0
	}
	return h.c[id].Load()
}

// Reset zeroes every counter. Counters written concurrently with Reset
// land on one side or the other; use Snapshot deltas when exactness under
// concurrency matters.
func (h *Handle) Reset() {
	if h == nil {
		return
	}
	for i := range h.c {
		h.c[i].Store(0)
	}
	for i := range h.hist {
		if g := h.hist[i].Load(); g != nil {
			g.reset()
		}
	}
}

// Snapshot is a point-in-time copy of a Handle's counters.
type Snapshot [NumIDs]int64

// Snapshot copies the current counter values (all zero on a nil handle).
// The copy is per-counter atomic, not globally consistent — fine for the
// monotone counters recorded here.
func (h *Handle) Snapshot() Snapshot {
	var s Snapshot
	if h == nil {
		return s
	}
	for i := range h.c {
		s[i] = h.c[i].Load()
	}
	return s
}

// Merge returns the per-ID combination of two handles' snapshots (see
// ID.Merge).
func (s Snapshot) Merge(o Snapshot) Snapshot {
	for i := range s {
		s[i] = ID(i).Merge(s[i], o[i])
	}
	return s
}

// Get returns the snapshot's value for id.
func (s Snapshot) Get(id ID) int64 { return s[id] }

// Sub returns the per-counter delta s − prev.
func (s Snapshot) Sub(prev Snapshot) Snapshot {
	var d Snapshot
	for i := range s {
		d[i] = s[i] - prev[i]
	}
	return d
}

// Total returns the sum of the listed counters (all counters if none are
// listed).
func (s Snapshot) Total(ids ...ID) int64 {
	var t int64
	if len(ids) == 0 {
		for _, v := range s {
			t += v
		}
		return t
	}
	for _, id := range ids {
		t += s[id]
	}
	return t
}

// CASFailures returns the sum of the per-site CAS-failure counters.
func (s Snapshot) CASFailures() int64 {
	return s.Total(CASFailEnqueue, CASFailFulfill, CASFailClean)
}

// Map returns the snapshot as name→value, the expvar representation.
func (s Snapshot) Map() map[string]int64 {
	m := make(map[string]int64, NumIDs)
	for i, v := range s {
		m[ID(i).String()] = v
	}
	return m
}

// String renders the nonzero counters as "name=value" pairs in ID order
// ("all-zero" when nothing fired).
func (s Snapshot) String() string {
	var b strings.Builder
	for i, v := range s {
		if v == 0 {
			continue
		}
		if b.Len() > 0 {
			b.WriteByte(' ')
		}
		fmt.Fprintf(&b, "%s=%d", ID(i), v)
	}
	if b.Len() == 0 {
		return "all-zero"
	}
	return b.String()
}

// published maps expvar names to the handle currently backing them.
// expvar forbids re-publishing a name, so the Func closure indirects
// through this registry and Publish may rebind a name to a new handle.
var (
	pubMu     sync.Mutex
	published = make(map[string]*Handle)
)

// Publish exposes h's counters and latency histograms under the given
// expvar name (shown as a JSON object at /debug/vars when the process
// serves HTTP): counters at the top level under their ID names, and
// histogram percentile summaries nested under the "latency" key (see
// HistSnapshot.LatencyMap for the shape). Publishing an already-published
// name rebinds it to h rather than panicking, so fresh queues can take
// over a stable name across restarts of a subsystem.
func Publish(name string, h *Handle) {
	pubMu.Lock()
	defer pubMu.Unlock()
	if _, ok := published[name]; ok {
		published[name] = h
		return
	}
	published[name] = h
	expvar.Publish(name, expvar.Func(func() any {
		pubMu.Lock()
		cur := published[name]
		pubMu.Unlock()
		doc := make(map[string]any, NumIDs+1)
		for k, v := range cur.Snapshot().Map() {
			doc[k] = v
		}
		if lat := cur.Histograms().LatencyMap(); len(lat) > 0 {
			doc["latency"] = lat
		}
		return doc
	}))
}
