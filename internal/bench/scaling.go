package bench

import (
	"encoding/json"
	"fmt"
	"runtime"
	"strings"

	"synchq/internal/core"
	"synchq/internal/exchanger"
	"synchq/internal/segq"
	"synchq/internal/shard"
	"synchq/internal/stats"
)

// This file is the producer×consumer scaling sweep behind `sqbench -figure
// scaling` and the committed BENCH_scaling.json artifact: both dual
// structures, each plain, elimination-fronted (adaptive arena), sharded,
// and sharded+elimination, swept from one pair up to GOMAXPROCS pairs.
// It is the evaluation for the PR that added the adaptive arena and the
// shard fabric, and `make bench-scaling` runs its coarse regression gate.

// fabricSQ drives a shard fabric through the pairing surface. The adapter
// lives here, like elimSQ, so internal packages stay acyclic (bench must
// not import the public synchq package).
type fabricSQ struct{ f *shard.Fabric[int64] }

func (s fabricSQ) Put(v int64) { s.f.Put(v) }
func (s fabricSQ) Take() int64 { return s.f.Take() }

// newFabricSQ stripes the selected dual structure across the default
// (GOMAXPROCS-sized) shard count.
func newFabricSQ(fair bool) fabricSQ {
	return fabricSQ{shard.New(0, func(int) shard.Dual[int64] {
		if fair {
			return core.NewDualQueue[int64](core.WaitConfig{})
		}
		return core.NewDualStack[int64](core.WaitConfig{})
	})}
}

// newAutoFabricSQ builds the self-scaling fabric: same ceiling as the
// static stripe, but the effective width follows observed contention —
// collapsed to one shard at one pair, widening as pairs are added.
func newAutoFabricSQ() fabricSQ {
	return fabricSQ{shard.NewAuto(0, func(int) shard.Dual[int64] {
		return core.NewDualQueue[int64](core.WaitConfig{})
	})}
}

// adaptiveElimSQ fronts any pairing surface with a self-tuning elimination
// arena, mirroring synchq's EliminatingAdaptive option.
type adaptiveElimSQ struct {
	arena *exchanger.Arena[int64]
	q     SQ
}

func newAdaptiveElimSQ(q SQ) adaptiveElimSQ {
	return adaptiveElimSQ{arena: exchanger.NewArenaAdaptive[int64](0), q: q}
}

func (e adaptiveElimSQ) Put(v int64) {
	if e.arena.TryGiveAdaptive(v) {
		return
	}
	e.q.Put(v)
}

func (e adaptiveElimSQ) Take() int64 {
	if v, ok := e.arena.TryTakeAdaptive(); ok {
		return v
	}
	return e.q.Take()
}

// scalingSeries enumerates the twelve swept configurations: {stack,
// queue} × {plain, +elim, +shard, +shard+elim}, the segmented core plain
// and sharded, and the self-scaling fabric over the fair queue ("auto")
// and over segmented shards ("auto+seg"). Names are stable — they are the
// JSON artifact's series keys.
func scalingSeries() []Algorithm {
	series := make([]Algorithm, 0, 12)
	for _, base := range []struct {
		name string
		fair bool
	}{{"stack", false}, {"queue", true}} {
		fair := base.fair
		plain := func() SQ {
			if fair {
				return core.NewDualQueue[int64](core.WaitConfig{})
			}
			return core.NewDualStack[int64](core.WaitConfig{})
		}
		series = append(series,
			Algorithm{Name: base.name, New: plain},
			Algorithm{Name: base.name + "+elim", New: func() SQ { return newAdaptiveElimSQ(plain()) }},
			Algorithm{Name: base.name + "+shard", New: func() SQ { return newFabricSQ(fair) }},
			Algorithm{Name: base.name + "+shard+elim", New: func() SQ { return newAdaptiveElimSQ(newFabricSQ(fair)) }},
		)
	}
	series = append(series,
		Algorithm{Name: "seg", New: func() SQ { return segq.New[int64](core.WaitConfig{}) }},
		Algorithm{Name: "seg+shard", New: func() SQ {
			return fabricSQ{shard.New(0, func(int) shard.Dual[int64] {
				return segq.New[int64](core.WaitConfig{})
			})}
		}},
		Algorithm{Name: "auto", New: func() SQ { return newAutoFabricSQ() }},
		Algorithm{Name: "auto+seg", New: func() SQ {
			return fabricSQ{shard.NewAuto(0, func(int) shard.Dual[int64] {
				return segq.New[int64](core.WaitConfig{})
			})}
		}},
	)
	return series
}

// filterSeries restricts series to the named subset (exact series names),
// preserving sweep order. An unknown name is reported rather than silently
// dropped so a typo in a CI -cores flag cannot quietly gate nothing.
func filterSeries(series []Algorithm, names []string) ([]Algorithm, error) {
	if len(names) == 0 {
		return series, nil
	}
	byName := make(map[string]bool, len(names))
	for _, n := range names {
		byName[n] = true
	}
	var kept []Algorithm
	for _, a := range series {
		if byName[a.Name] {
			kept = append(kept, a)
			delete(byName, a.Name)
		}
	}
	for n := range byName {
		return nil, fmt.Errorf("unknown scaling series %q (have: %s)", n, strings.Join(seriesNames(series), ","))
	}
	return kept, nil
}

func seriesNames(series []Algorithm) []string {
	names := make([]string, len(series))
	for i, a := range series {
		names[i] = a.Name
	}
	return names
}

// ValidateScalingCores checks a -cores selection against the sweep's
// series names, so CLI entry points can reject a typo with a friendly
// message instead of the panic Scaling reserves for programmer error.
func ValidateScalingCores(names []string) error {
	_, err := filterSeries(scalingSeries(), names)
	return err
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
// unknown Cores name (the callers are CLI entry points whose -cores input
// is validated here).
func Scaling(o SweepOpts) (*stats.Table, ScalingReport) {
	o = o.withDefaults(ScalingLevels(), 20000)
	series, err := filterSeries(scalingSeries(), o.Cores)
	if err != nil {
		panic(err)
	}
	t := stats.NewTable("Scaling: N producers : N consumers, ± elimination ± sharding",
		"pairs", "ns/transfer", columnNames(series))

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
		for _, a := range series {
			if o.Progress != nil {
				o.Progress(0, a.Name+" [scaling]", level)
			}
			var ns float64
			if a.Name == "auto" && level == 1 {
				ns, autoCollapsed = measureAutoCollapse(a, o.Transfers, o.Repeats)
			} else {
				ns = measure(a, level, level, o.Transfers, o.Repeats)
			}
			t.Set(fmt.Sprint(level), a.Name, ns)
			cells[a.Name] = append(cells[a.Name], ScalingCell{Pairs: level, NsPerTransfer: ns})
		}
	}
	for _, a := range series {
		report.Series = append(report.Series, ScalingSeries{Name: a.Name, Cells: cells[a.Name]})
	}

	max := o.Levels[len(o.Levels)-1]
	report.Summary = ScalingSummary{MaxPairs: max}
	last := func(name string) float64 {
		for _, s := range report.Series {
			if s.Name == name {
				for _, c := range s.Cells {
					if c.Pairs == max {
						return c.NsPerTransfer
					}
				}
			}
		}
		return 0
	}
	report.Summary.BaselineNs = last("queue")
	report.Summary.ShardedNs = last("queue+shard+elim")
	if report.Summary.ShardedNs > 0 {
		report.Summary.Speedup = report.Summary.BaselineNs / report.Summary.ShardedNs
	}
	report.Summary.SegNs = last("seg")
	if report.Summary.SegNs > 0 {
		report.Summary.SegSpeedup = report.Summary.BaselineNs / report.Summary.SegNs
	}
	report.Summary.AutoNs = last("auto")
	if report.Summary.AutoNs > 0 {
		report.Summary.AutoSpeedup = report.Summary.BaselineNs / report.Summary.AutoNs
	}
	at1 := func(name string) float64 {
		for _, s := range report.Series {
			if s.Name == name {
				for _, c := range s.Cells {
					if c.Pairs == 1 {
						return c.NsPerTransfer
					}
				}
			}
		}
		return 0
	}
	report.Summary.Baseline1Ns = at1("queue")
	report.Summary.Auto1Ns = at1("auto")
	if report.Summary.Auto1Ns > 0 && report.Summary.Baseline1Ns > 0 {
		report.Summary.AutoTax = report.Summary.Auto1Ns / report.Summary.Baseline1Ns
		report.Summary.Auto1Collapsed = autoCollapsed
	}
	return t, report
}

// measureAutoCollapse is measure for the self-scaling fabric's one-pair
// cell: the same timing discipline (repeats runs, minimum ns/transfer),
// plus a per-repeat record of whether the fabric finished the run folded
// back to effective width one — the Auto1Collapsed count the single-CPU
// gate falls back on when the wall-clock tax ratio is noise-dominated.
func measureAutoCollapse(a Algorithm, transfers int64, repeats int) (float64, int) {
	best, collapsed := 0.0, 0
	for r := 0; r < repeats; r++ {
		q := a.New()
		res := RunHandoff(q, 1, 1, transfers, nil)
		if fs, ok := q.(fabricSQ); ok && fs.f.Shards() == 1 {
			collapsed++
		}
		ns := res.NsPerTransfer()
		if r == 0 || ns < best {
			best = ns
		}
	}
	return best, collapsed
}

// ScalingFigure adapts Scaling to the figure registry (table only).
func ScalingFigure(o SweepOpts) *stats.Table {
	t, _ := Scaling(o)
	return t
}
