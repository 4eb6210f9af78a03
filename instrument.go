package synchq

import (
	"expvar"
	"sync"
	"time"

	"synchq/internal/metrics"
	"synchq/internal/shard"
)

// Metrics is the public instrumentation surface of this package: a
// lock-free set of event counters and log₂-nanosecond latency histograms
// that any structure built with the Instrument option records into.
//
// Create one with NewMetrics, pass it to New, NewTransferQueue, or
// NewExchanger via Instrument, and read it back with Stats (or the
// structure's Metrics accessor). One Metrics may be shared by several
// structures, in which case their events aggregate.
// Recording is allocation-free and wait-free; an uninstrumented structure
// pays one predictable branch per would-be event and reads no clocks.
//
// A Metrics must not be copied after first use.
type Metrics struct {
	root *metrics.Handle

	mu     sync.Mutex
	shards []*metrics.Handle // per-shard children of a Sharded queue
	fabric *fabricHooks      // introspection of the sharded queue built with this Metrics
}

// NewMetrics returns an empty metrics set, ready to be attached with
// Instrument.
func NewMetrics() *Metrics {
	return &Metrics{root: metrics.New()}
}

// Instrument attaches m to the structure under construction: every
// hand-off, wait, timeout, and CAS retry it performs is recorded into m.
// Pass the same m to several structures to aggregate them. A nil m is
// ignored (the structure stays uninstrumented).
func Instrument(m *Metrics) Option {
	return func(c *config) {
		c.inst = m
		c.wait.Metrics = m.handle()
	}
}

// handle returns the root recording handle (nil on a nil Metrics), which
// is what uninstrumented construction paths thread through core.WaitConfig.
func (m *Metrics) handle() *metrics.Handle {
	if m == nil {
		return nil
	}
	return m.root
}

// RawHandle returns the root recording handle — the internal counter set a
// Metrics wraps. It exists so sibling tiers built on this module (the pool
// executor, custom fabrics) can record into the same handle a queue was
// instrumented with; the returned value is opaque outside this module and
// nil on a nil Metrics.
func (m *Metrics) RawHandle() *metrics.Handle { return m.handle() }

// shardHandle returns (creating as needed) the child handle for shard i,
// so a sharded queue's per-shard behavior stays separately visible while
// Stats presents the merged view.
func (m *Metrics) shardHandle(i int) *metrics.Handle {
	m.mu.Lock()
	defer m.mu.Unlock()
	for len(m.shards) <= i {
		m.shards = append(m.shards, metrics.New())
	}
	return m.shards[i]
}

// shardHandles snapshots the child-handle slice.
func (m *Metrics) shardHandles() []*metrics.Handle {
	m.mu.Lock()
	defer m.mu.Unlock()
	return append([]*metrics.Handle(nil), m.shards...)
}

// setFabric records the sharded queue's introspection hooks so
// FabricStats is reachable from the Metrics side as well as the queue's.
// When one Metrics instruments several sharded queues (their counters
// aggregate), the hooks of the most recently built one win.
func (m *Metrics) setFabric(h *fabricHooks) {
	m.mu.Lock()
	m.fabric = h
	m.mu.Unlock()
}

// FabricStats snapshots the sharded fabric of the queue this Metrics
// instruments — the same snapshot the queue's own FabricStats method
// returns. ok is false on a nil Metrics, a Metrics not attached to any
// queue yet, or one attached only to unsharded structures.
func (m *Metrics) FabricStats() (FabricStats, bool) {
	if m == nil {
		return FabricStats{}, false
	}
	m.mu.Lock()
	h := m.fabric
	m.mu.Unlock()
	if h == nil {
		return FabricStats{}, false
	}
	return h.stats(), true
}

// FabricShardStats is one shard's slice of FabricStats.
type FabricShardStats struct {
	// Index is the shard's position in the fabric.
	Index int `json:"index"`
	// Active reports whether the shard is within the current effective
	// width (new arrivals may route to it). Inactive shards can still
	// hold waiters committed before a collapse; they drain through the
	// ordinary sweep/steal path.
	Active bool `json:"active"`
	// Depth gauges the demand-path operations committing to or waiting on
	// the shard.
	Depth int64 `json:"depth"`
	// Steals counts hand-offs completed on this shard by operations homed
	// elsewhere.
	Steals int64 `json:"steals"`
}

// FabricStats is a point-in-time snapshot of a sharded queue's fabric:
// the effective width against its ceiling, the self-scaling controller's
// transition count, and the per-shard depth/steal breakdown. Field names
// (JSON tags) are stable in the same way the metrics counter names are.
type FabricStats struct {
	// MaxShards is the constructed shard count — the width ceiling.
	MaxShards int `json:"max_shards"`
	// Width is the current effective width (Shards()).
	Width int `json:"width"`
	// Adaptive reports whether the width is controller-managed
	// (AutoShard / Sharded(0)) rather than fixed.
	Adaptive bool `json:"adaptive"`
	// WidthChanges counts the controller's width transitions.
	WidthChanges int64 `json:"width_changes"`
	// Steals, ProbeMisses and ProbeSkips aggregate the per-shard sweep
	// counters: completed cross-shard rescues, probes that found a stale
	// presence hint, and sweeps that passed over a skip-listed shard.
	Steals      int64 `json:"steals"`
	ProbeMisses int64 `json:"probe_misses"`
	ProbeSkips  int64 `json:"probe_skips"`
	// Shards is the per-shard breakdown, MaxShards entries in index order.
	Shards []FabricShardStats `json:"shards"`
}

// fabricStatsFrom converts the internal fabric snapshot to the public
// type.
func fabricStatsFrom(s shard.Stats) FabricStats {
	out := FabricStats{
		MaxShards:    s.MaxShards,
		Width:        s.Width,
		Adaptive:     s.Adaptive,
		WidthChanges: s.WidthChanges,
		Steals:       s.Steals,
		ProbeMisses:  s.ProbeMisses,
		ProbeSkips:   s.ProbeSkips,
		Shards:       make([]FabricShardStats, len(s.Shards)),
	}
	for i, sh := range s.Shards {
		out.Shards[i] = FabricShardStats{
			Index:  sh.Index,
			Active: sh.Active,
			Depth:  sh.Depth,
			Steals: sh.Steals,
		}
	}
	return out
}

// SampleRate is the latency layer's sampling factor: the structures time
// one in SampleRate operations, chosen uniformly at random per operation,
// which is what keeps the metrics-on hand-off path within the
// bench-latency overhead budget. Latency histogram counts are therefore
// sample counts (multiply by SampleRate to estimate operation counts);
// sampling at the arrival site is unbiased for the distributions
// themselves. The event counters in Stats.Counters are exact, never
// sampled.
const SampleRate = metrics.SampleRate

// LatencyStats summarizes one latency histogram. All values are
// nanoseconds. Percentiles are bucket upper bounds of the underlying
// log₂-ns histogram, so they over-estimate by less than 2×; Max is the
// representative value of the highest nonempty bucket, and a Max of 2⁶² ns
// marks top-bucket saturation rather than a measurement. Count is the
// number of sampled operations (see SampleRate). Buckets carries the raw
// bucket counts (bucket 0 holds zero-duration samples; bucket i covers
// [2^(i−1), 2^i−1] ns), which is what makes snapshots mergeable.
type LatencyStats struct {
	Count   int64   `json:"count"`
	P50     int64   `json:"p50_ns"`
	P90     int64   `json:"p90_ns"`
	P99     int64   `json:"p99_ns"`
	P999    int64   `json:"p999_ns"`
	Max     int64   `json:"max_ns"`
	Buckets []int64 `json:"buckets"`
}

// Stats is a point-in-time snapshot of a Metrics set: event counters by
// stable name, and latency histograms by stable name (handoff, spin, park,
// wasted, steal, elim, fallback — empty histograms are omitted). It is
// plain data: JSON-marshalable for dashboards, mergeable across structures
// or shards with Merge, and diffable by subtracting counters and bucket
// counts.
type Stats struct {
	Counters map[string]int64        `json:"counters"`
	Latency  map[string]LatencyStats `json:"latency"`
}

// latencyStats renders one histogram's bucket counts as LatencyStats.
func latencyStats(c metrics.BucketCounts) LatencyStats {
	return LatencyStats{
		Count:   c.Count(),
		P50:     c.Percentile(0.50),
		P90:     c.Percentile(0.90),
		P99:     c.Percentile(0.99),
		P999:    c.Percentile(0.999),
		Max:     c.Max(),
		Buckets: append([]int64(nil), c[:]...),
	}
}

// statsOf builds a Stats from one handle's snapshots.
func statsOf(cs metrics.Snapshot, hs metrics.HistSnapshot) Stats {
	s := Stats{
		Counters: cs.Map(),
		Latency:  make(map[string]LatencyStats, metrics.NumHistIDs),
	}
	for i := metrics.HistID(0); i < metrics.NumHistIDs; i++ {
		if c := hs.Get(i); c.Count() > 0 {
			s.Latency[i.String()] = latencyStats(c)
		}
	}
	return s
}

// Stats returns the merged view of everything recorded into m: the root
// handle plus, for sharded queues, every per-shard child. Safe to call at
// any time; the snapshot is per-counter atomic.
func (m *Metrics) Stats() Stats {
	if m == nil {
		return Stats{Counters: map[string]int64{}, Latency: map[string]LatencyStats{}}
	}
	cs := m.root.Snapshot()
	hs := m.root.Histograms()
	for _, h := range m.shardHandles() {
		shc := h.Snapshot()
		for i := range cs {
			cs[i] += shc[i]
		}
		hs = hs.Add(h.Histograms())
	}
	return statsOf(cs, hs)
}

// ShardStats returns one Stats per shard of a Sharded queue built with
// this Metrics (empty for unsharded structures). Fabric-level events —
// steal counts and steal latency — live on the merged view, not here.
func (m *Metrics) ShardStats() []Stats {
	if m == nil {
		return nil
	}
	hs := m.shardHandles()
	out := make([]Stats, len(hs))
	for i, h := range hs {
		out[i] = statsOf(h.Snapshot(), h.Histograms())
	}
	return out
}

// Reset zeroes every counter and histogram (root and shards). Events
// recorded concurrently land on one side or the other; diff Stats
// snapshots when interval exactness under load matters.
func (m *Metrics) Reset() {
	if m == nil {
		return
	}
	m.root.Reset()
	for _, h := range m.shardHandles() {
		h.Reset()
	}
}

// Merge returns the combination of two snapshots: counters summed, latency
// histograms merged bucket-wise with percentiles recomputed from the
// merged buckets. Use it to aggregate Stats across queues or processes.
func (s Stats) Merge(o Stats) Stats {
	out := Stats{
		Counters: make(map[string]int64, len(s.Counters)),
		Latency:  make(map[string]LatencyStats, len(s.Latency)),
	}
	for k, v := range s.Counters {
		out.Counters[k] = v
	}
	for k, v := range o.Counters {
		out.Counters[k] += v
	}
	merge := func(k string, v LatencyStats) {
		var c metrics.BucketCounts
		copy(c[:], v.Buckets)
		if prev, ok := out.Latency[k]; ok {
			var p metrics.BucketCounts
			copy(p[:], prev.Buckets)
			c = c.Add(p)
		}
		out.Latency[k] = latencyStats(c)
	}
	for k, v := range s.Latency {
		merge(k, v)
	}
	for k, v := range o.Latency {
		merge(k, v)
	}
	return out
}

// LatencyRecorder exposes direct recording into one of m's histograms
// under its stable name ("handoff", "spin", "park", "wasted", "steal",
// "elim", "fallback"), for callers measuring phases the structures cannot
// see (e.g. end-to-end application latency around a queue operation).
// Unknown names return a no-op recorder.
func (m *Metrics) LatencyRecorder(name string) func(time.Duration) {
	if m == nil {
		return func(time.Duration) {}
	}
	for i := metrics.HistID(0); i < metrics.NumHistIDs; i++ {
		if i.String() == name {
			id := i
			return func(d time.Duration) { m.root.Record(id, d) }
		}
	}
	return func(time.Duration) {}
}

// statsPublished is the rebind registry behind Metrics.Publish (expvar
// forbids re-publishing a name, so the Func indirects through it).
var (
	statsPubMu     sync.Mutex
	statsPublished = make(map[string]*Metrics)
)

// Publish exposes the merged Stats under the given expvar name, visible at
// /debug/vars when the process serves HTTP. The published JSON has the
// shape documented on Stats. Re-publishing a name rebinds it to m.
func (m *Metrics) Publish(name string) {
	statsPubMu.Lock()
	defer statsPubMu.Unlock()
	if _, ok := statsPublished[name]; ok {
		statsPublished[name] = m
		return
	}
	statsPublished[name] = m
	expvar.Publish(name, expvar.Func(func() any {
		statsPubMu.Lock()
		cur := statsPublished[name]
		statsPubMu.Unlock()
		return cur.Stats()
	}))
}
