package metrics

import (
	"fmt"
	"math/bits"
	"math/rand/v2"
	"sync/atomic"
	"time"
)

// This file is the latency layer of the instrumentation package: fixed-size
// log₂-nanosecond histograms recorded with the same discipline as the
// counters — lock-free, allocation-free, nil-safe, cache-line padded — so
// that enabling them perturbs the hand-off paths by clock reads only, and
// disabling them costs exactly one predictable branch. Log₂ buckets trade
// resolution the paper's figures do not need (ns/transfer curves span four
// decades) for a Record that is one bits.Len64 plus one atomic add, with no
// search, no table, and no configuration.

// HistID names one latency histogram in a Handle's set.
type HistID int

// The histogram inventory. All values are durations in nanoseconds; each
// histogram isolates one phase of an operation's life so the paper's
// ns/transfer curves (Figs. 5–6) can be decomposed by where the time went.
const (
	// HandoffNs is the end-to-end latency of successful transfers: from an
	// operation's arrival at the structure to the moment it observes its
	// pairing. Both sides of a pair record it — the fulfilling side sees
	// its own (short) arrival-to-CAS time, the waiting side its full
	// arrival-to-wakeup time — so the distribution answers "how long does
	// an operation spend inside the queue?", not "how often do pairs form".
	HandoffNs HistID = iota
	// SpinNs is the busy-wait phase of each wait: from the wait's start to
	// either the moment it gives up and arms its parker (the spin→park
	// transition) or, for waits fulfilled without ever parking, to the
	// fulfillment itself. Together with ParkNs this is the spin-vs-park
	// breakdown of the §Pragmatics waiting policy.
	SpinNs
	// ParkNs is the blocked interval of each wait that actually parked:
	// from slow-path entry in the parker to its return, including re-parks
	// after stale tokens. Recorded in internal/park, so it covers every
	// structure's waiters uniformly.
	ParkNs
	// WastedNs is the wait time thrown away by operations that gave up:
	// from arrival to abandoning the attempt on timeout, cancellation, or
	// close. Zero-patience poll/offer misses record (near-)zero samples
	// here, so the count tracks the Timeouts+Cancellations counters while
	// the upper percentiles expose how long real patience was burned.
	WastedNs
	// StealNs is the latency of cross-shard rescues in a sharded fabric:
	// from the fabric operation's arrival to a hand-off completed on a
	// shard other than its home shard. Recorded on the fabric's own
	// (merged) handle, separately from the per-shard HandoffNs.
	StealNs
	// ElimNs is the latency of hand-offs completed in an elimination
	// arena: from the arena attempt's start to the slot exchange. Kept
	// apart from HandoffNs so arena hits and backing-structure transfers
	// remain separately visible.
	ElimNs
	// FallbackNs is the end-to-end latency of eliminating-queue operations
	// that missed the arena and succeeded on the backing queue: from the
	// operation's arrival (before the arena detour) to the backing
	// hand-off. FallbackNs − HandoffNs at matching percentiles is the
	// price of a failed elimination probe.
	FallbackNs
	// QueueWaitNs is an executor task's time-in-queue: from acceptance at
	// Submit to the moment a worker dequeues it for execution. The
	// executor-tier analogue of HandoffNs, recorded on the pool's handle
	// so the dispatch delay and the structure's own hand-off latency stay
	// separately visible.
	QueueWaitNs
	// ExecNs is an executor task's execution time: from dequeue to the
	// task function's return (panicking tasks record up to the recover).
	ExecNs
	// DrainNs is the duration of executor drain phases: one sample per
	// phase reached (quiesce, drain-pending, force), so the count exposes
	// how far the drain state machine ran and the buckets how long each
	// phase took.
	DrainNs

	// NumHistIDs is the number of histograms in a Handle.
	NumHistIDs
)

var histNames = [NumHistIDs]string{
	HandoffNs:   "handoff",
	SpinNs:      "spin",
	ParkNs:      "park",
	WastedNs:    "wasted",
	StealNs:     "steal",
	ElimNs:      "elim",
	FallbackNs:  "fallback",
	QueueWaitNs: "queue-wait",
	ExecNs:      "exec",
	DrainNs:     "drain",
}

// String returns the histogram's stable name (used as expvar keys and JSON
// field names; the unit — nanoseconds — is carried by the value fields).
func (id HistID) String() string {
	if id < 0 || id >= NumHistIDs {
		return fmt.Sprintf("metrics.HistID(%d)", int(id))
	}
	return histNames[id]
}

// HistogramNames returns all histogram names in HistID order.
func HistogramNames() []string {
	out := make([]string, NumHistIDs)
	for i := range out {
		out[i] = HistID(i).String()
	}
	return out
}

// HistBuckets is the fixed bucket count of every histogram. Bucket 0 holds
// zero (and clamped negative) durations; bucket i ≥ 1 holds durations in
// [2^(i-1), 2^i − 1] nanoseconds. 63 buckets of powers of two cover every
// positive int64 nanosecond count, so Record needs no range check beyond
// the sign clamp.
const HistBuckets = 64

// BucketIndex returns the histogram bucket for a duration. Negative
// durations (a clock stepping backwards under coarse timers) clamp to
// bucket 0 rather than corrupting an out-of-range index.
func BucketIndex(d time.Duration) int {
	if d <= 0 {
		return 0
	}
	return bits.Len64(uint64(d))
}

// BucketValue returns the representative duration (in nanoseconds) reported
// for a bucket: its inclusive upper bound, so percentile estimates err on
// the pessimistic side by less than 2×. The top bucket is open-ended and
// reports its lower bound, 2^62 ns — a saturation marker, not a
// measurement.
func BucketValue(i int) int64 {
	switch {
	case i <= 0:
		return 0
	case i >= HistBuckets-1:
		return 1 << 62
	default:
		return (int64(1) << uint(i)) - 1
	}
}

// Histogram is one lock-free log₂-nanosecond histogram: 64 atomic
// buckets. Unlike the Handle's counters the buckets are deliberately NOT
// cache-line padded: a padded histogram set is ~28KB per handle, and the
// resulting cache footprint taxes the instrumented hot path far more than
// the occasional false share between adjacent buckets (under a steady
// latency distribution only a handful of buckets are hot, and neighbors
// are rarely hot together). The zero value is ready to use; it must not be
// copied after first use. Unlike Handle it has no nil-receiver contract —
// a standalone Histogram is always live; the nil-safe path goes through
// Handle.Record/Handle.Since.
type Histogram struct {
	b [HistBuckets]atomic.Int64
}

// Record adds one sample. It is allocation-free and safe for any number of
// concurrent recorders.
func (g *Histogram) Record(d time.Duration) {
	g.b[BucketIndex(d)].Add(1)
}

// Snapshot copies the current bucket counts. Per-bucket atomic, not
// globally consistent — samples recorded concurrently land on one side or
// the other.
func (g *Histogram) Snapshot() BucketCounts {
	var s BucketCounts
	for i := range g.b {
		s[i] = g.b[i].Load()
	}
	return s
}

// reset zeroes the buckets (same caveats as Handle.Reset).
func (g *Histogram) reset() {
	for i := range g.b {
		g.b[i].Store(0)
	}
}

// BucketCounts is a point-in-time copy of one histogram's buckets.
type BucketCounts [HistBuckets]int64

// Count returns the total number of recorded samples.
func (c BucketCounts) Count() int64 {
	var t int64
	for _, v := range c {
		t += v
	}
	return t
}

// Percentile returns the estimated p-quantile (p in [0,1]) in nanoseconds:
// the representative value of the bucket containing the ceil(p·count)-th
// sample. Zero when the histogram is empty; p ≥ 1 returns Max.
func (c BucketCounts) Percentile(p float64) int64 {
	total := c.Count()
	if total == 0 {
		return 0
	}
	rank := int64(p * float64(total))
	if float64(rank) < p*float64(total) {
		rank++ // ceil
	}
	if rank < 1 {
		rank = 1
	}
	if rank > total {
		rank = total
	}
	var cum int64
	for i, v := range c {
		cum += v
		if cum >= rank {
			return BucketValue(i)
		}
	}
	return BucketValue(HistBuckets - 1)
}

// Max returns the representative value of the highest nonempty bucket
// (zero when empty).
func (c BucketCounts) Max() int64 {
	for i := HistBuckets - 1; i >= 0; i-- {
		if c[i] != 0 {
			return BucketValue(i)
		}
	}
	return 0
}

// Add returns the per-bucket sum c + o — the merge operation behind a
// sharded fabric's combined view.
func (c BucketCounts) Add(o BucketCounts) BucketCounts {
	var s BucketCounts
	for i := range c {
		s[i] = c[i] + o[i]
	}
	return s
}

// Sub returns the per-bucket delta c − o, for interval measurements.
func (c BucketCounts) Sub(o BucketCounts) BucketCounts {
	var s BucketCounts
	for i := range c {
		s[i] = c[i] - o[i]
	}
	return s
}

// HistSnapshot is a point-in-time copy of all of a Handle's histograms.
type HistSnapshot [NumHistIDs]BucketCounts

// Get returns the snapshot's buckets for id.
func (s HistSnapshot) Get(id HistID) BucketCounts { return s[id] }

// Add returns the per-bucket sum s + o.
func (s HistSnapshot) Add(o HistSnapshot) HistSnapshot {
	var out HistSnapshot
	for i := range s {
		out[i] = s[i].Add(o[i])
	}
	return out
}

// Sub returns the per-bucket delta s − o.
func (s HistSnapshot) Sub(o HistSnapshot) HistSnapshot {
	var out HistSnapshot
	for i := range s {
		out[i] = s[i].Sub(o[i])
	}
	return out
}

// latencyBase anchors the monotonic nanosecond timestamps below. Reading
// elapsed time against a fixed base costs one monotonic-clock read, about
// half the price of time.Now (which also reads the wall clock) — and the
// hand-off paths read this clock twice per instrumented operation, so the
// cheaper form is what keeps the metrics-on overhead inside the
// bench-latency budget.
var latencyBase = time.Now()

// Nanos returns the current monotonic timestamp in nanoseconds since an
// arbitrary process-local base — the clock behind Start/Since, exported
// for recording sites that need to split one reading across several
// histograms. It is never zero (the base predates any caller).
func Nanos() int64 { return int64(time.Since(latencyBase)) }

// NanosAt converts t to the Nanos clock, so a deadline can be stored as one
// word and checked with a single Nanos read. A t before the base comes out
// zero or negative.
func NanosAt(t time.Time) int64 { return int64(t.Sub(latencyBase)) }

// SampleShift sets the latency layer's sampling rate: Start times one in
// every SampleRate = 2^SampleShift operations, chosen uniformly at random
// per operation (a per-thread PRNG costing a few nanoseconds, no shared
// state). Unsampled operations carry the zero timestamp, which every
// downstream recording site already treats as "record nothing" — so the
// whole chain of clock reads (arrival, spin→park transition, park exit,
// fulfillment) is paid by only 1/SampleRate of operations, which is what
// holds the metrics-on overhead of a ~600ns hand-off under the
// bench-latency gate's 10% budget. Sampling at the arrival site is
// unbiased for the distributions (an operation's fate cannot influence a
// decision made before it unfolds); histogram counts are sample counts —
// multiply by SampleRate to estimate operation counts, or use the exact
// event counters (Fulfillments, Timeouts, …), which are never sampled.
const (
	SampleShift = 4
	SampleRate  = 1 << SampleShift
)

// Start returns the current monotonic timestamp for a sampled operation,
// and 0 on a nil handle or an unsampled operation — the entry half of the
// Start/Since pair that keeps the uninstrumented path free of clock reads
// and the instrumented path nearly so:
//
//	t0 := q.m.Start()              // 0 (no clock read) when q.m == nil or unsampled
//	...
//	q.m.Since(metrics.HandoffNs, t0) // no-op when t0 is 0
func (h *Handle) Start() int64 {
	if h == nil {
		return 0
	}
	if rand.Uint64()&(SampleRate-1) != 0 {
		return 0
	}
	return Nanos()
}

// Record adds one sample to the histogram. No-op on a nil handle.
func (h *Handle) Record(id HistID, d time.Duration) {
	if h != nil {
		h.hist[id].Record(d)
	}
}

// Since records the elapsed time from t0 — a timestamp produced by Start —
// into the histogram. No-op on a nil handle or a zero t0, so a timestamp
// taken through a nil handle flows through unrecorded.
func (h *Handle) Since(id HistID, t0 int64) {
	if h != nil && t0 != 0 {
		h.hist[id].Record(time.Duration(Nanos() - t0))
	}
}

// Hist returns the underlying histogram (nil on a nil handle), for callers
// that record many samples in a loop and want to hoist the handle check.
func (h *Handle) Hist(id HistID) *Histogram {
	if h == nil {
		return nil
	}
	return &h.hist[id]
}

// Histograms copies the current bucket counts of every histogram (all zero
// on a nil handle).
func (h *Handle) Histograms() HistSnapshot {
	var s HistSnapshot
	if h == nil {
		return s
	}
	for i := range h.hist {
		s[i] = h.hist[i].Snapshot()
	}
	return s
}

// LatencyMap renders the snapshot as the stable expvar/JSON shape published
// under a handle's "latency" key: histogram name → {count, p50_ns, p90_ns,
// p99_ns, p999_ns, max_ns}. Empty histograms are omitted so idle structures
// publish compact documents.
func (s HistSnapshot) LatencyMap() map[string]any {
	m := make(map[string]any, NumHistIDs)
	for i := range s {
		c := s[i]
		n := c.Count()
		if n == 0 {
			continue
		}
		m[HistID(i).String()] = map[string]int64{
			"count":   n,
			"p50_ns":  c.Percentile(0.50),
			"p90_ns":  c.Percentile(0.90),
			"p99_ns":  c.Percentile(0.99),
			"p999_ns": c.Percentile(0.999),
			"max_ns":  c.Max(),
		}
	}
	return m
}
