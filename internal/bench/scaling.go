package bench

import (
	"encoding/json"
	"fmt"
	"runtime"
	"strings"

	"synchq"
	"synchq/internal/shard"
	"synchq/internal/stats"
)

// This file is the producer×consumer scaling sweep behind `sqbench -figure
// scaling` and the committed BENCH_scaling.json artifact: both dual
// structures, each plain, elimination-fronted (adaptive arena), sharded,
// and sharded+elimination, the segmented core, and the self-scaling
// fabric, swept from one pair up to GOMAXPROCS pairs. Every series is a
// composition the public constructor ships, built through synchq.New, so
// a gate ratio's baseline and its subject pay the same facade cost. `make
// bench-scaling` runs its coarse regression gate.

// composition is one scaling series: a stable name (the JSON artifact's
// series key) and the synchq options that build it.
type composition struct {
	name string
	opts []synchq.Option
}

// scalingSeries enumerates the twelve swept configurations: {stack,
// queue} × {plain, +elim, +shard, +shard+elim}, the segmented core plain
// and sharded, and the self-scaling fabric over the fair queue ("auto")
// and over segmented shards ("auto+seg"). The static stripe is as wide as
// GOMAXPROCS, the default ceiling the self-scaling fabric grows to.
func scalingSeries() []composition {
	width := synchq.Sharded(runtime.GOMAXPROCS(0))
	elim := synchq.EliminatingAdaptive()
	series := make([]composition, 0, 12)
	for _, base := range []struct {
		name string
		fair bool
	}{{"stack", false}, {"queue", true}} {
		fair := synchq.Fair(base.fair)
		series = append(series,
			composition{base.name, []synchq.Option{fair}},
			composition{base.name + "+elim", []synchq.Option{fair, elim}},
			composition{base.name + "+shard", []synchq.Option{fair, width}},
			composition{base.name + "+shard+elim", []synchq.Option{fair, width, elim}},
		)
	}
	seg := synchq.Segmented()
	return append(series,
		composition{"seg", []synchq.Option{seg}},
		composition{"seg+shard", []synchq.Option{seg, width}},
		composition{"auto", []synchq.Option{synchq.Fair(true), synchq.AutoShard()}},
		composition{"auto+seg", []synchq.Option{seg, synchq.AutoShard()}},
	)
}

// ScalingLevels is the sweep's default x-axis: powers of two from one pair
// up to and including GOMAXPROCS pairs.
func ScalingLevels() []int {
	max := runtime.GOMAXPROCS(0)
	var levels []int
	for l := 1; l < max; l *= 2 {
		levels = append(levels, l)
	}
	return append(levels, max)
}

// ScalingCell is one series' measurement at one pair level.
type ScalingCell struct {
	Pairs         int     `json:"pairs"`
	NsPerTransfer float64 `json:"ns_per_transfer"`
}

// ScalingSeries is one swept configuration.
type ScalingSeries struct {
	Name  string        `json:"name"`
	Cells []ScalingCell `json:"cells"`
}

// ScalingSummary is the headline comparison at the maximum pair count:
// the sharded, elimination-fronted fair queue and the segmented core,
// each against the plain fair queue — the configuration pairs the
// acceptance gates compare. Fields for series excluded by a Cores filter
// are zero.
type ScalingSummary struct {
	MaxPairs   int     `json:"max_pairs"`
	BaselineNs float64 `json:"baseline_ns_per_transfer"`      // plain "queue"
	ShardedNs  float64 `json:"sharded_ns_per_transfer"`       // "queue+shard+elim"
	Speedup    float64 `json:"speedup"`                       // BaselineNs / ShardedNs
	SegNs      float64 `json:"seg_ns_per_transfer,omitempty"` // "seg"
	SegSpeedup float64 `json:"seg_speedup,omitempty"`         // BaselineNs / SegNs
	// The self-scaling fabric's two headline numbers: at max pairs it
	// should ride the stripe (AutoSpeedup vs the plain queue, like the
	// static series), and at ONE pair it should have collapsed to a single
	// shard, so its cost over the plain queue — the collapse tax — stays
	// within a few percent instead of the static stripe's ~25%.
	AutoNs      float64 `json:"auto_ns_per_transfer,omitempty"` // "auto" at max pairs
	AutoSpeedup float64 `json:"auto_speedup,omitempty"`         // BaselineNs / AutoNs
	Baseline1Ns float64 `json:"baseline_1pair_ns,omitempty"`    // "queue" at 1 pair
	Auto1Ns     float64 `json:"auto_1pair_ns,omitempty"`        // "auto" at 1 pair
	AutoTax     float64 `json:"auto_collapse_tax,omitempty"`    // Auto1Ns / Baseline1Ns
	// Auto1Collapsed counts the one-pair auto repeats whose fabric ended
	// at effective width one — the behavioral record of the collapse the
	// tax ratio measures in wall-clock terms (see Gate for why both are
	// kept).
	Auto1Collapsed int `json:"auto_1pair_collapsed,omitempty"`
}

// ScalingReport is the JSON document behind BENCH_scaling.json.
type ScalingReport struct {
	Benchmark  string          `json:"benchmark"`
	GOMAXPROCS int             `json:"gomaxprocs"`
	NumCPU     int             `json:"numcpu"`
	Transfers  int64           `json:"transfers"`
	Repeats    int             `json:"repeats"`
	Shards     int             `json:"shards"`
	Series     []ScalingSeries `json:"series"`
	Summary    ScalingSummary  `json:"summary"`
}

// JSON renders the report with stable formatting so the committed artifact
// diffs cleanly across regenerations.
func (r ScalingReport) JSON() ([]byte, error) {
	return json.MarshalIndent(r, "", "  ")
}

// Headlines renders the headline comparisons printed under the table.
func (r ScalingReport) Headlines() string {
	var b strings.Builder
	s := r.Summary
	if s.ShardedNs > 0 {
		fmt.Fprintf(&b, "summary: queue+shard+elim at %d pairs: %.0f ns/transfer vs %.0f unsharded (%.2fx)\n",
			s.MaxPairs, s.ShardedNs, s.BaselineNs, s.Speedup)
	}
	if s.SegNs > 0 {
		fmt.Fprintf(&b, "summary: seg at %d pairs: %.0f ns/transfer vs %.0f plain queue (%.2fx)\n",
			s.MaxPairs, s.SegNs, s.BaselineNs, s.SegSpeedup)
	}
	if s.AutoNs > 0 {
		fmt.Fprintf(&b, "summary: auto at %d pairs: %.0f ns/transfer vs %.0f plain queue (%.2fx)\n",
			s.MaxPairs, s.AutoNs, s.BaselineNs, s.AutoSpeedup)
	}
	if s.AutoTax > 0 {
		fmt.Fprintf(&b, "summary: auto at 1 pair: %.0f ns/transfer vs %.0f plain queue (collapse tax %.2fx, collapsed in %d/%d repeats)\n",
			s.Auto1Ns, s.Baseline1Ns, s.AutoTax, s.Auto1Collapsed, r.Repeats)
	}
	return b.String()
}

// gateFloorSingleCPU is the speedup floor on hosts with one hardware
// thread. Sharding exists to split cache-line traffic across cores; on a
// single CPU there are no cores to split across, the plain queue's CAS
// failure rate is already zero, and every striping layer is pure
// overhead. All the gate can honestly demand there is that the overhead
// stays bounded.
const gateFloorSingleCPU = 0.35

// gateAutoTax bounds the self-scaling fabric's one-pair collapse tax: at
// one pair the controller must have folded the fabric to a single shard,
// so the only residual cost over the plain queue is the fabric's
// dispatch (one mask load, one summary check). Five percent covers that
// honestly on real multicore.
const gateAutoTax = 1.05

// gateAutoTaxSingleCPU is the same bound for hosts with one hardware
// thread, where the sweep's "pair" is two goroutines timesharing one CPU
// and every scheduler quantum boundary lands in the measurement (the same
// convention as gateFloorSingleCPU: single-CPU numbers bound overhead,
// they do not demonstrate scaling). On such hosts even the plain queue's
// one-pair cell swings well over 1.5x run to run (the denominator of the
// tax ratio), so a ratio bound alone cannot be both honest and stable;
// when the ratio overshoots, the gate falls back to the behavioral check
// recorded in Auto1Collapsed — a majority of repeats must have finished
// the cell with the fabric folded back to width one, which is the
// regression the tax ratio exists to catch.
const gateAutoTaxSingleCPU = 1.4

// Gate is the coarse regression check `make bench-scaling` enforces: at
// the maximum pair count, every headline configuration present in the
// sweep — the sharded+adaptive fair queue, the segmented core — must not
// be slower than the plain fair queue. (The committed artifact is
// expected to show a much larger margin on real multicore; the gate is
// deliberately loose so a timeshared CI host does not flake it.) On a
// host with a single hardware thread the gate degrades to a
// bounded-overhead check — see gateFloorSingleCPU. A sweep narrowed by
// Cores gates only the pairs it measured; a sweep with no checkable pair
// is an error, not a silent pass.
func (r ScalingReport) Gate() error {
	floor := 1.0
	if r.NumCPU < 2 {
		floor = gateFloorSingleCPU
	}
	checked := 0
	if r.Summary.ShardedNs > 0 && r.Summary.BaselineNs > 0 {
		checked++
		if r.Summary.Speedup < floor {
			return fmt.Errorf("scaling gate: queue+shard+elim at %d pairs is %.0f ns/transfer vs %.0f unsharded (speedup %.2fx < %.2fx, numcpu=%d)",
				r.Summary.MaxPairs, r.Summary.ShardedNs, r.Summary.BaselineNs, r.Summary.Speedup, floor, r.NumCPU)
		}
	}
	if r.Summary.SegNs > 0 && r.Summary.BaselineNs > 0 {
		checked++
		if r.Summary.SegSpeedup < floor {
			return fmt.Errorf("scaling gate: seg at %d pairs is %.0f ns/transfer vs %.0f plain queue (speedup %.2fx < %.2fx, numcpu=%d)",
				r.Summary.MaxPairs, r.Summary.SegNs, r.Summary.BaselineNs, r.Summary.SegSpeedup, floor, r.NumCPU)
		}
	}
	if r.Summary.AutoNs > 0 && r.Summary.BaselineNs > 0 {
		checked++
		if r.Summary.AutoSpeedup < floor {
			return fmt.Errorf("scaling gate: auto at %d pairs is %.0f ns/transfer vs %.0f plain queue (speedup %.2fx < %.2fx, numcpu=%d)",
				r.Summary.MaxPairs, r.Summary.AutoNs, r.Summary.BaselineNs, r.Summary.AutoSpeedup, floor, r.NumCPU)
		}
	}
	// The collapse-tax gate: at one pair the self-scaling fabric must be
	// within gateAutoTax of the plain queue (gateAutoTaxSingleCPU on a
	// single-CPU host) — the whole point of adaptivity over the static
	// stripe's fixed ~25% one-pair overhead.
	if r.Summary.Auto1Ns > 0 && r.Summary.Baseline1Ns > 0 {
		checked++
		tax := gateAutoTax
		if r.NumCPU < 2 {
			tax = gateAutoTaxSingleCPU
		}
		if r.Summary.AutoTax > tax {
			// Single-CPU fallback: the ratio's denominator is scheduler
			// noise there, the recorded end widths are not (see
			// gateAutoTaxSingleCPU).
			collapsed := r.NumCPU < 2 && r.Summary.Auto1Collapsed*2 >= r.Repeats
			if !collapsed {
				return fmt.Errorf("scaling gate: auto at 1 pair is %.0f ns/transfer vs %.0f plain queue (collapse tax %.2fx > %.2fx, collapsed in %d/%d repeats, numcpu=%d)",
					r.Summary.Auto1Ns, r.Summary.Baseline1Ns, r.Summary.AutoTax, tax, r.Summary.Auto1Collapsed, r.Repeats, r.NumCPU)
			}
		}
	}
	if checked == 0 {
		return fmt.Errorf("scaling gate: no checkable pair in the sweep (need \"queue\" plus \"queue+shard+elim\", \"seg\" or \"auto\")")
	}
	return nil
}

// Scaling runs the sweep and returns both renderings: the aligned table
// for the terminal and the JSON report for the artifact. It panics on an
// unknown Cores name (the callers are CLI entry points, which check their
// -cores input with ValidateCores first).
func Scaling(o SweepOpts) (*stats.Table, ScalingReport) {
	o = o.withDefaults(ScalingLevels(), 20000)
	series, err := selectSeries("scaling", scalingSeries(), func(c composition) string { return c.name }, o.Cores)
	if err != nil {
		panic(err)
	}
	names := make([]string, len(series))
	for i, c := range series {
		names[i] = c.name
	}
	t := stats.NewTable("Scaling: N producers : N consumers, ± elimination ± sharding",
		"pairs", "ns/transfer", names)

	report := ScalingReport{
		Benchmark:  "scaling",
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		NumCPU:     runtime.NumCPU(),
		Transfers:  o.Transfers,
		Repeats:    o.Repeats,
		Shards:     shard.DefaultShards(),
	}
	cells := make(map[string][]ScalingCell)
	autoCollapsed := 0
	for _, level := range o.Levels {
		for _, c := range series {
			if o.Progress != nil {
				o.Progress(0, c.name+" [scaling]", level)
			}
			// Each repeat also records whether the queue finished at
			// effective width one: the one-pair auto cell's collapse count,
			// which the single-CPU gate falls back on (see Gate).
			collapsed := 0
			ns := bestOf(o.Repeats, func() float64 {
				q := synchq.New[int64](c.opts...)
				ns := RunHandoff(q, level, level, 1, o.Transfers, nil).NsPerTransfer()
				if q.Shards() == 1 {
					collapsed++
				}
				return ns
			})[0]
			if c.name == "auto" && level == 1 {
				autoCollapsed = collapsed
			}
			t.Set(fmt.Sprint(level), c.name, ns)
			cells[c.name] = append(cells[c.name], ScalingCell{Pairs: level, NsPerTransfer: ns})
		}
	}
	for _, c := range series {
		report.Series = append(report.Series, ScalingSeries{Name: c.name, Cells: cells[c.name]})
	}

	max := o.Levels[len(o.Levels)-1]
	at := func(name string, pairs int) float64 {
		for _, c := range cells[name] {
			if c.Pairs == pairs {
				return c.NsPerTransfer
			}
		}
		return 0
	}
	ratio := func(num, den float64) float64 {
		if den > 0 {
			return num / den
		}
		return 0
	}
	sum := &report.Summary
	sum.MaxPairs = max
	sum.BaselineNs = at("queue", max)
	sum.ShardedNs = at("queue+shard+elim", max)
	sum.Speedup = ratio(sum.BaselineNs, sum.ShardedNs)
	sum.SegNs = at("seg", max)
	sum.SegSpeedup = ratio(sum.BaselineNs, sum.SegNs)
	sum.AutoNs = at("auto", max)
	sum.AutoSpeedup = ratio(sum.BaselineNs, sum.AutoNs)
	sum.Baseline1Ns = at("queue", 1)
	sum.Auto1Ns = at("auto", 1)
	sum.AutoTax = ratio(sum.Auto1Ns, sum.Baseline1Ns)
	if sum.AutoTax > 0 {
		sum.Auto1Collapsed = autoCollapsed
	}
	return t, report
}
