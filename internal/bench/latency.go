package bench

import (
	"encoding/json"
	"fmt"
	"runtime"

	"synchq"
	"synchq/internal/stats"
)

// This file is the latency-observability benchmark behind `sqbench -figure
// latency` and the committed BENCH_latency.json artifact: for both dual
// structures it measures hand-off throughput with the latency histograms
// off and on, reports the instrumentation overhead, and digests the
// recorded wait/hand-off distributions (p50/p99/p999). `make bench-latency`
// runs its regression gate: enabling metrics must not tax the hot path by
// more than latencyGateMaxOverhead.

// LatencyDigest is the percentile summary of one recorded histogram, in
// nanoseconds (the percentile fields are log₂-bucket upper bounds; see
// metrics.BucketValue).
type LatencyDigest struct {
	Count int64 `json:"count"`
	P50   int64 `json:"p50_ns"`
	P99   int64 `json:"p99_ns"`
	P999  int64 `json:"p999_ns"`
	Max   int64 `json:"max_ns"`
}

// digestOf summarizes one histogram of a Metrics snapshot, nil when
// nothing was recorded (so empty histograms vanish from the JSON artifact).
func digestOf(st synchq.Stats, name string) *LatencyDigest {
	l, ok := st.Latency[name]
	if !ok || l.Count == 0 {
		return nil
	}
	return &LatencyDigest{Count: l.Count, P50: l.P50, P99: l.P99, P999: l.P999, Max: l.Max}
}

// LatencyCell is one structure's measurement: throughput with the
// histograms off and on, the relative overhead, and the distributions the
// instrumented runs recorded.
type LatencyCell struct {
	Name             string         `json:"name"` // "queue" (fair) or "stack" (unfair)
	Fair             bool           `json:"fair"`
	UninstrumentedNs float64        `json:"uninstrumented_ns_per_transfer"`
	InstrumentedNs   float64        `json:"instrumented_ns_per_transfer"`
	Overhead         float64        `json:"overhead"` // instrumented/uninstrumented − 1
	Handoff          *LatencyDigest `json:"handoff,omitempty"`
	Spin             *LatencyDigest `json:"spin,omitempty"`
	Park             *LatencyDigest `json:"park,omitempty"`
	Wasted           *LatencyDigest `json:"wasted,omitempty"`
}

// LatencySummary is the gate's input: the worst overhead across cells.
type LatencySummary struct {
	MaxOverhead float64 `json:"max_overhead"`
}

// LatencyReport is the JSON document behind BENCH_latency.json.
type LatencyReport struct {
	Benchmark  string         `json:"benchmark"`
	GOMAXPROCS int            `json:"gomaxprocs"`
	NumCPU     int            `json:"numcpu"`
	Transfers  int64          `json:"transfers"`
	Repeats    int            `json:"repeats"`
	Pairs      int            `json:"pairs"`
	Cells      []LatencyCell  `json:"cells"`
	Summary    LatencySummary `json:"summary"`
}

// JSON renders the report with stable formatting so the committed artifact
// diffs cleanly across regenerations.
func (r LatencyReport) JSON() ([]byte, error) {
	return json.MarshalIndent(r, "", "  ")
}

// Headlines renders the headline printed under the table.
func (r LatencyReport) Headlines() string {
	return fmt.Sprintf("summary: worst metrics-on overhead %.1f%%\n", r.Summary.MaxOverhead*100)
}

// latencyGateMaxOverhead is the regression budget: turning the latency
// histograms on may cost at most this fraction of hand-off throughput. The
// instrumented steady state pays a per-thread PRNG draw per operation for
// the sampling decision plus, on the sampled 1-in-metrics.SampleRate of
// operations, the full chain of clock reads and bucket increments — tens
// of nanoseconds amortized against hand-offs that cost hundreds.
const latencyGateMaxOverhead = 0.10

// latencyGateMaxOverheadSingleCPU is the relaxed budget on hosts with one
// hardware thread, following the precedent of the scaling gate's
// gateFloorSingleCPU: with a single CPU every hand-off serializes through
// the scheduler and the baseline itself wobbles 20–30% run to run (the
// uninstrumented min-of-repeats moves by that much between invocations on
// a timeshared single-core host), so a tight ratio gate would flake on
// noise the instrumentation did not cause. The budget must sit above the
// baseline's own spread to gate the instrumentation rather than the host.
const latencyGateMaxOverheadSingleCPU = 0.50

// Gate is the regression check `make bench-latency` enforces: the worst
// metrics-on overhead across cells must stay within the budget.
func (r LatencyReport) Gate() error {
	budget := latencyGateMaxOverhead
	if r.NumCPU < 2 {
		budget = latencyGateMaxOverheadSingleCPU
	}
	if r.Summary.MaxOverhead > budget {
		return fmt.Errorf("latency gate: metrics-on overhead %.1f%% exceeds %.0f%% budget (numcpu=%d)",
			r.Summary.MaxOverhead*100, budget*100, r.NumCPU)
	}
	return nil
}

// Latency runs the overhead measurement and returns both renderings: the
// aligned table for the terminal and the JSON report for the artifact.
//
// Each cell times New(Fair(b)) against New(Fair(b), Instrument(m)),
// interleaved repeat by repeat (bestOf), so slow drift of the host
// (thermal, timeshared neighbors) decorrelates from the on/off comparison.
// The instrumented runs of a cell share one Metrics, so the digests
// summarize every sample from every repeat.
func Latency(o SweepOpts) (*stats.Table, LatencyReport) {
	o = o.withDefaults([]int{1}, 20000)
	pairs := o.Levels[0]

	report := LatencyReport{
		Benchmark:  "latency",
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		NumCPU:     runtime.NumCPU(),
		Transfers:  o.Transfers,
		Repeats:    o.Repeats,
		Pairs:      pairs,
	}
	t := stats.NewTable("Latency observability: histogram overhead, "+fmt.Sprint(pairs)+" producer:consumer pair(s)",
		"series", "ns/transfer", []string{"off", "on", "overhead %"})

	for _, cfg := range []struct {
		name string
		fair bool
	}{{"queue", true}, {"stack", false}} {
		if o.Progress != nil {
			o.Progress(0, cfg.name+" [latency]", pairs)
		}
		m := synchq.NewMetrics()
		fair := synchq.Fair(cfg.fair)
		best := bestOf(o.Repeats,
			handoffNs(func() SQ { return synchq.New[int64](fair) }, pairs, pairs, 1, o.Transfers),
			handoffNs(func() SQ { return synchq.New[int64](fair, synchq.Instrument(m)) }, pairs, pairs, 1, o.Transfers))
		offBest, onBest := best[0], best[1]
		overhead := 0.0
		if offBest > 0 {
			overhead = onBest/offBest - 1
		}
		st := m.Stats()
		report.Cells = append(report.Cells, LatencyCell{
			Name:             cfg.name,
			Fair:             cfg.fair,
			UninstrumentedNs: offBest,
			InstrumentedNs:   onBest,
			Overhead:         overhead,
			Handoff:          digestOf(st, "handoff"),
			Spin:             digestOf(st, "spin"),
			Park:             digestOf(st, "park"),
			Wasted:           digestOf(st, "wasted"),
		})
		if overhead > report.Summary.MaxOverhead {
			report.Summary.MaxOverhead = overhead
		}
		t.Set(cfg.name, "off", offBest)
		t.Set(cfg.name, "on", onBest)
		t.Set(cfg.name, "overhead %", overhead*100)
	}
	return t, report
}
