package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"

	"synchq"
	"synchq/cmd/sqperf/internal/perf"
	"synchq/pool"
)

type metric struct {
	name  string
	value float64
	unit  string
}

type metricSpec struct{ name, unit string }

// endToEnd and perLayer name the metrics of the result line, with --trace 0
// and --trace 1 respectively. BENCHMARK.json lists the same names and
// units; the smoke test holds the two together.
//
// Throughput and latency are not among the gated metrics: on a shared
// 2-CPU host they move by up to 30% between phases that last minutes,
// more than any bound a gate may set. They are diagnostics, and -compare
// shows them (speedDiagnostics) for paired runs of two commits.
var endToEnd = []metricSpec{
	{"alloc_bytes_per_op", "B/op"},
	{"setup_s", "s"},
}

var speedDiagnostics = []metricSpec{
	{"throughput_per_s", "1/s"},
	{"latency_p90_us", "us"},
}

var perLayer = []metricSpec{
	{"core.ns_per_transfer.p1", "ns"},
	{"core.ns_per_transfer.p4", "ns"},
	{"core.allocs_per_transfer.p1", "allocs/op"},
	{"core.cas_fail_per_kop", "1/kop"},
	{"core.clean_sweeps_per_kop", "1/kop"},
	{"core.timeouts_per_kop", "1/kop"},
	{"core.node_reuse_ratio", "ratio"},
	{"synchq.tax_ns.p1", "ns"},
	{"synchq.tax_ns.p4", "ns"},
	{"synchq.seg_tax_ns.p1", "ns"},
	{"synchq.seg_tax_ns.p4", "ns"},
	{"synchq.put_ns_p50", "ns"},
	{"synchq.put_ns_p90", "ns"},
	{"synchq.take_ns_p50", "ns"},
	{"synchq.take_ns_p90", "ns"},
	{"park.roundtrip_ns", "ns"},
	{"park.parks_per_kop", "1/kop"},
	{"park.unparks_per_kop", "1/kop"},
	{"park.spins_per_kop", "1/kop"},
	{"metrics.tax_ns.p1", "ns"},
	{"metrics.tax_ns.p4", "ns"},
	{"shard.tax_ns.p1", "ns"},
	{"shard.tax_ns.p4", "ns"},
	{"shard.steal_ratio", "ratio"},
	{"shard.probe_miss_ratio", "ratio"},
	{"shard.width_changes", "count"},
	{"shard.width_end", "count"},
	{"segq.ns_per_transfer.p1", "ns"},
	{"segq.ns_per_transfer.p4", "ns"},
	{"segq.allocs_per_transfer.p1", "allocs/op"},
	{"segq.seg_unlinks_per_kop", "1/kop"},
	{"segq.batch_fill", "items/call"},
	{"exchanger.tax_ns.p1", "ns"},
	{"exchanger.tax_ns.p4", "ns"},
	{"exchanger.elim_hit_ratio", "ratio"},
	{"pool.tax_ns.p1", "ns"},
	{"pool.tax_ns.p4", "ns"},
	{"pool.submit_ns_p50", "ns"},
	{"pool.submit_ns_p90", "ns"},
	{"pool.dispatch_ns_p50", "ns"},
	{"pool.dispatch_ns_p90", "ns"},
	{"pool.handoff_ratio", "ratio"},
	{"pool.spawned", "count"},
	{"trace.overhead", "ratio"},
}

var workloads = []string{"pair", "timed-fanout", "batch", "executor"}

var handoffSpecs = map[string]*handoffSpec{"pair": pairSpec, "timed-fanout": fanoutSpec, "batch": batchSpec}

// phase is one measured stretch of a workload.
type phase struct {
	rates     []float64        // items or tasks per second, one per window
	lat       []float64        // delivery latency samples, ns
	bytes     float64          // heap bytes allocated per op in the measured phase
	ops       int64            // items or tasks completed in the measured phase
	attempted int64            // items sent or tasks offered over the whole phase
	failed    int64            // of those, not delivered, or delivered wrong
	fill      float64          // items per receiving call
	counters  map[string]int64 // instrumentation delta over the measured phase
	width     int              // effective shard width at the end
	widthChg  int64            // shard width changes in the measured phase
	pool      pool.Stats       // executor only
	invalid   string           // why the phase did not offer its load, if it did not
	diag      []metric
	probs     []string
}

func runPhase(workload string, in *inputs, seed uint64, warmup, measure time.Duration, m *synchq.Metrics, tr *perf.Tracer) phase {
	if spec, ok := handoffSpecs[workload]; ok {
		return runHandoff(spec, in, seed, warmup, measure, m, tr)
	}
	return runExecutor(seed, warmup, measure, m, tr)
}

func setupOnce(workload string, in *inputs, seed uint64) (time.Duration, []string) {
	if spec, ok := handoffSpecs[workload]; ok {
		return setupHandoff(spec, in, seed)
	}
	return setupExecutor()
}

// plan is how one run spends its time.
type plan struct {
	warmup, measure time.Duration // per workload phase
	setups          int           // set-up trials (untraced run)
	cell            time.Duration // ladder cell (traced run)
}

// planFor spreads a run of the given length. The untraced run measures the
// workload for all of it after a warm-up of a tenth. The traced run
// measures the workload untraced and traced for a fifth each and gives the
// layer ladder the other half.
func planFor(seconds time.Duration, traced bool) plan {
	if !traced {
		return plan{warmup: seconds / 10, measure: seconds, setups: 1001}
	}
	return plan{warmup: seconds / 20, measure: seconds / 5, cell: seconds / 2 / time.Duration(ladderCells) * 10 / 11}
}

type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type hostInfo struct {
	NumCPU      int     `json:"nproc"`
	GOMAXPROCS  int     `json:"gomaxprocs"`
	GoVersion   string  `json:"go"`
	WarmupS     float64 `json:"warmup_s"`
	MeasureS    float64 `json:"measure_s"`
	SetupTrials int     `json:"setup_trials,omitempty"`
	LadderCellS float64 `json:"ladder_cell_s,omitempty"`
}

// report is one run's full record, written by --json and read by
// --compare.
type report struct {
	Workload    string           `json:"workload"`
	Seed        uint64           `json:"seed"`
	Trace       bool             `json:"trace"`
	Host        hostInfo         `json:"host"`
	Correct     bool             `json:"correct"`
	Attempted   int64            `json:"attempted"`
	Failed      int64            `json:"failed"`
	Metrics     map[string]value `json:"metrics"`
	Diagnostics map[string]value `json:"diagnostics"`
	Problems    []string         `json:"problems,omitempty"` // failed checks
	Invalid     []string         `json:"invalid,omitempty"`  // why the offered load fell short

	order, dorder []string // print order of Metrics and Diagnostics
}

func newReport(workload string, seed uint64, traced bool, pl plan) *report {
	return &report{
		Workload: workload, Seed: seed, Trace: traced,
		Host: hostInfo{
			NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(),
			WarmupS: pl.warmup.Seconds(), MeasureS: pl.measure.Seconds(),
			SetupTrials: pl.setups, LadderCellS: pl.cell.Seconds(),
		},
		Metrics: map[string]value{}, Diagnostics: map[string]value{},
	}
}

// addPhase folds a phase's counts and verdicts into the report, and its
// diagnostics when diag is set.
func (r *report) addPhase(ph phase, diag bool) {
	r.Attempted += ph.attempted
	r.Failed += ph.failed
	r.Problems = append(r.Problems, ph.probs...)
	if ph.invalid != "" {
		r.Invalid = append(r.Invalid, ph.invalid)
	}
	if diag {
		for _, d := range ph.diag {
			r.diag(d)
		}
	}
}

// set records a gated metric. A value that is not a finite number means a
// metric went unmeasured, which fails the run.
func (r *report) set(name string, v float64, unit string) {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		r.Problems = append(r.Problems, fmt.Sprintf("metric %s was not measured", name))
		v = 0
	}
	r.Metrics[name] = value{v, unit}
	r.order = append(r.order, name)
}

func (r *report) diag(m metric) {
	if math.IsNaN(m.value) || math.IsInf(m.value, 0) {
		return
	}
	r.Diagnostics[m.name] = value{m.value, m.unit}
	r.dorder = append(r.dorder, m.name)
}

// measure runs one workload under plan pl.
func measure(workload string, seed uint64, pl plan, traced bool, spansPath string) *report {
	rep := newReport(workload, seed, traced, pl)
	in := newInputs(seed)
	if traced {
		measureLayers(rep, in, pl, spansPath)
	} else {
		measureEndToEnd(rep, in, pl)
	}
	rep.Correct = len(rep.Problems) == 0
	return rep
}

func measureEndToEnd(rep *report, in *inputs, pl plan) {
	var setups []float64
	for i := 0; i < pl.setups; i++ {
		d, probs := setupOnce(rep.Workload, in, rep.Seed)
		setups = append(setups, d.Seconds())
		rep.Problems = append(rep.Problems, probs...)
	}
	ph := runPhase(rep.Workload, in, rep.Seed, pl.warmup, pl.measure, nil, nil)
	rep.addPhase(ph, true)
	// One set-up takes one of two times, depending on whether its
	// goroutines start on the running CPU or must wake the idle one, and
	// the share of each moves from run to run. The first quartile, the
	// median of the faster half, stays within the fast mode; work added to
	// set-up still moves it.
	setups = perf.Sorted(setups)
	rep.set("alloc_bytes_per_op", ph.bytes, "B/op")
	rep.set("setup_s", perf.Percentile(setups, 0.25), "s")

	// The tail percentiles come with the count of samples beyond them,
	// which says whether they rest on at least ten.
	lat := perf.Sorted(ph.lat)
	rep.diag(metric{"throughput_per_s", perf.Median(ph.rates), "1/s"})
	rep.diag(metric{"latency_samples", float64(len(lat)), "count"})
	rep.diag(metric{"latency_p50_us", perf.Percentile(lat, 0.5) / 1e3, "us"})
	rep.diag(metric{"latency_p90_us", perf.Percentile(lat, 0.9) / 1e3, "us"})
	for _, q := range []float64{0.99, 0.999} {
		v := perf.Percentile(lat, q)
		name := "latency_p" + strconv.FormatFloat(100*q, 'g', -1, 64)
		rep.diag(metric{name + "_us", v / 1e3, "us"})
		rep.diag(metric{name + "_beyond", float64(perf.Beyond(lat, v)), "count"})
	}
	rates := perf.Sorted(ph.rates)
	rep.diag(metric{"throughput_min_window", rates[0], "1/s"})
	rep.diag(metric{"throughput_max_window", rates[len(rates)-1], "1/s"})
	rep.diag(metric{"setup_s_median", perf.Percentile(setups, 0.5), "s"})
	rep.diag(metric{"setup_s_p90", perf.Percentile(setups, 0.9), "s"})
}

// measureLayers is the traced run: the workload untraced and then traced
// (instrumented, spans sampled), then the layer ladder.
func measureLayers(rep *report, in *inputs, pl plan, spansPath string) {
	plain := runPhase(rep.Workload, in, rep.Seed, pl.warmup, pl.measure, nil, nil)
	rep.addPhase(plain, false)
	m, tr := synchq.NewMetrics(), perf.NewTracer()
	ph := runPhase(rep.Workload, in, rep.Seed, pl.warmup, pl.measure, m, tr)
	rep.addPhase(ph, true)
	lad := runLadder(pl.cell, tr)
	rep.Problems = append(rep.Problems, lad.probs...)

	spans := tr.Spans()
	if err := perf.CheckNesting(spans); err != nil {
		rep.Problems = append(rep.Problems, "span nesting: "+err.Error())
	}
	if err := writeSpans(spansPath, spans); err != nil {
		rep.Problems = append(rep.Problems, err.Error())
	}

	c := ph.counters
	perKop := func(names ...string) float64 {
		var n int64
		for _, k := range names {
			n += c[k]
		}
		return 1000 * ratio(n, ph.ops)
	}
	durs := perf.ByName(spans, false)
	pct := func(name string, q float64) float64 { return perf.Percentile(perf.Sorted(durs[name]), q) }
	vals := map[string]float64{
		"core.allocs_per_transfer.p1": lad.allocs["core"][0],
		"core.cas_fail_per_kop":       perKop("cas-fail-enqueue", "cas-fail-fulfill", "cas-fail-clean"),
		"core.clean_sweeps_per_kop":   perKop("clean-sweeps"),
		"core.timeouts_per_kop":       perKop("timeouts"),
		"core.node_reuse_ratio":       ratio(c["node-reuses"], c["node-reuses"]+c["node-allocs"]),
		"synchq.put_ns_p50":           pct("synchq.put", 0.5),
		"synchq.put_ns_p90":           pct("synchq.put", 0.9),
		"synchq.take_ns_p50":          pct("synchq.take", 0.5),
		"synchq.take_ns_p90":          pct("synchq.take", 0.9),
		"park.roundtrip_ns":           lad.parkNs,
		"park.parks_per_kop":          perKop("parks"),
		"park.unparks_per_kop":        perKop("unparks"),
		"park.spins_per_kop":          perKop("spins"),
		"shard.steal_ratio":           ratio(c["shard-steals"], ph.ops),
		"shard.probe_miss_ratio":      ratio(c["shard-probe-misses"], ph.ops),
		"shard.width_changes":         float64(ph.widthChg),
		"shard.width_end":             float64(ph.width),
		"segq.allocs_per_transfer.p1": lad.allocs["segq"][0],
		"segq.seg_unlinks_per_kop":    perKop("seg-unlinks"),
		"segq.batch_fill":             ph.fill,
		"exchanger.elim_hit_ratio":    lad.elimHit,
		"pool.submit_ns_p50":          perf.Percentile(perf.Sorted(lad.submit), 0.5),
		"pool.submit_ns_p90":          perf.Percentile(perf.Sorted(lad.submit), 0.9),
		"pool.dispatch_ns_p50":        perf.Percentile(perf.Sorted(lad.dispatch), 0.5),
		"pool.dispatch_ns_p90":        perf.Percentile(perf.Sorted(lad.dispatch), 0.9),
		"pool.handoff_ratio":          ratio(ph.pool.Handoffs, ph.pool.Accepted),
		"pool.spawned":                float64(ph.pool.Spawned),
		"trace.overhead":              perf.Median(plain.rates)/perf.Median(ph.rates) - 1,
	}
	for i, p := range ladderPairs {
		sfx := fmt.Sprintf(".p%d", p)
		ns := func(rung string) float64 { return lad.ns[rung][i] }
		vals["core.ns_per_transfer"+sfx] = ns("core")
		vals["segq.ns_per_transfer"+sfx] = ns("segq")
		vals["synchq.tax_ns"+sfx] = ns("synchq") - ns("core")
		vals["metrics.tax_ns"+sfx] = ns("metrics") - ns("synchq")
		vals["shard.tax_ns"+sfx] = ns("shard") - ns("metrics")
		vals["exchanger.tax_ns"+sfx] = ns("exchanger") - ns("shard")
		vals["synchq.seg_tax_ns"+sfx] = ns("synchq_segq") - ns("segq")
		vals["pool.tax_ns"+sfx] = ns("pool") - ns("synchq")
	}
	for _, s := range perLayer {
		v, ok := vals[s.name]
		if !ok {
			v = math.NaN()
		}
		rep.set(s.name, v, s.unit)
	}

	for _, rg := range allRungs {
		for i, p := range ladderPairs {
			rep.diag(metric{fmt.Sprintf("ladder.%s.ns.p%d", rg.name, p), lad.ns[rg.name][i], "ns"})
			rep.diag(metric{fmt.Sprintf("ladder.%s.allocs.p%d", rg.name, p), lad.allocs[rg.name][i], "allocs/op"})
		}
	}
	self := perf.ByName(spans, true)
	names := make([]string, 0, len(durs))
	for name := range durs {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		rep.diag(metric{"span." + name + ".count", float64(len(durs[name])), "count"})
		rep.diag(metric{"span." + name + ".ns_p50", pct(name, 0.5), "ns"})
		rep.diag(metric{"span." + name + ".self_ns_p50", perf.Percentile(perf.Sorted(self[name]), 0.5), "ns"})
	}
	rep.diag(metric{"throughput_untraced", perf.Median(plain.rates), "1/s"})
	rep.diag(metric{"throughput_traced", perf.Median(ph.rates), "1/s"})
}

func writeSpans(path string, spans []perf.Span) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return fmt.Errorf("span file: %w", err)
	}
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("span file: %w", err)
	}
	if err := perf.WriteSpans(f, spans); err != nil {
		f.Close()
		return fmt.Errorf("span file %s: %w", path, err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("span file %s: %w", path, err)
	}
	return nil
}

// printHuman writes the run header, one "workload metric value unit" line
// per gated metric, then the diagnostics.
func (r *report) printHuman(w io.Writer) {
	h := r.Host
	fmt.Fprintf(w, "# sqperf workload=%s seed=%d trace=%v nproc=%d gomaxprocs=%d go=%s warmup_s=%g measure_s=%g",
		r.Workload, r.Seed, r.Trace, h.NumCPU, h.GOMAXPROCS, h.GoVersion, h.WarmupS, h.MeasureS)
	if r.Trace {
		fmt.Fprintf(w, " ladder_cell_s=%g\n", h.LadderCellS)
	} else {
		fmt.Fprintf(w, " setup_trials=%d\n", h.SetupTrials)
	}
	for _, name := range r.order {
		fmt.Fprintf(w, "%s %s %s %s\n", r.Workload, name, fmtValue(r.Metrics[name].Value), r.Metrics[name].Unit)
	}
	fmt.Fprintln(w, "# diagnostics (not gated)")
	for _, name := range r.dorder {
		fmt.Fprintf(w, "%s %s %s %s\n", r.Workload, name, fmtValue(r.Diagnostics[name].Value), r.Diagnostics[name].Unit)
	}
	fmt.Fprintf(w, "# %s: attempted %d, failed %d, checks %s\n", r.Workload, r.Attempted, r.Failed, passFail(r.Correct))
	for _, p := range r.Problems {
		fmt.Fprintf(w, "# CHECK FAILED: %s\n", p)
	}
	for _, p := range r.Invalid {
		fmt.Fprintf(w, "# RUN INVALID: %s\n", p)
	}
}

func fmtValue(v float64) string { return fmt.Sprintf("%.6g", v) }

func passFail(ok bool) string {
	if ok {
		return "passed"
	}
	return "FAILED"
}

// resultLine is the last line of standard output.
type resultLine struct {
	Correct   bool             `json:"correct"`
	Attempted int64            `json:"attempted"`
	Failed    int64            `json:"failed"`
	Metrics   map[string]value `json:"metrics"`
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("sqperf", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workload := fs.String("workload", "all", "workload to run: "+strings.Join(workloads, ", ")+", or all")
	seed := fs.Uint64("seed", 1, "seed every input is generated from")
	seconds := fs.Int("seconds", 10, "length of one run's measurement, in seconds")
	trace := fs.Int("trace", 0, "1 runs the traced run and prints the per-layer metrics")
	jsonPath := fs.String("json", "", "also write the full report(s) as JSON to this file")
	spansPath := fs.String("spans", "", "span file of the traced run (default .bench_build/spans-<workload>.jsonl)")
	compare := fs.Bool("compare", false, "compare report files: -compare A.json... -- B.json...")
	benchPath := fs.String("benchmark", "BENCHMARK.json", "benchmark definition holding the bounds -compare applies")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *compare {
		return runCompare(fs.Args(), *benchPath, stdout, stderr)
	}
	if runtime.GOMAXPROCS(0) > runtime.NumCPU() {
		fmt.Fprintf(stderr, "sqperf: GOMAXPROCS=%d exceeds the %d CPUs of this host; numbers would not describe it\n",
			runtime.GOMAXPROCS(0), runtime.NumCPU())
		return 2
	}
	names := []string{*workload}
	if *workload == "all" {
		names = workloads
	} else if _, ok := handoffSpecs[*workload]; !ok && *workload != "executor" {
		fmt.Fprintf(stderr, "sqperf: unknown workload %q (want %s or all)\n", *workload, strings.Join(workloads, ", "))
		return 2
	}
	if *seconds < 1 || (*trace != 0 && *trace != 1) || fs.NArg() > 0 {
		fmt.Fprintln(stderr, "sqperf: want --seconds >= 1, --trace 0 or 1, and no positional arguments")
		return 2
	}

	pl := planFor(time.Duration(*seconds)*time.Second, *trace == 1)
	var reps []*report
	for _, name := range names {
		spans := *spansPath
		if spans == "" {
			spans = filepath.Join(".bench_build", "spans-"+name+".jsonl")
		}
		rep := measure(name, *seed, pl, *trace == 1, spans)
		rep.printHuman(stdout)
		reps = append(reps, rep)
	}

	if *jsonPath != "" {
		if err := writeReports(*jsonPath, reps); err != nil {
			fmt.Fprintf(stderr, "sqperf: %v\n", err)
			return 1
		}
	}
	line := resultOf(reps)
	b, err := json.Marshal(line)
	if err != nil {
		fmt.Fprintf(stderr, "sqperf: %v\n", err)
		return 1
	}
	fmt.Fprintln(stdout, string(b))
	if !line.Correct {
		return 1
	}
	return 0
}

// resultOf folds reports into the result line; with several workloads the
// metric names are prefixed "workload/".
func resultOf(reps []*report) resultLine {
	line := resultLine{Correct: true, Metrics: map[string]value{}}
	for _, rep := range reps {
		line.Correct = line.Correct && rep.Correct
		line.Attempted += rep.Attempted
		line.Failed += rep.Failed
		for k, v := range rep.Metrics {
			if len(reps) > 1 {
				k = rep.Workload + "/" + k
			}
			line.Metrics[k] = v
		}
	}
	return line
}

// writeReports writes one report as a JSON object, several as an array.
func writeReports(path string, reps []*report) error {
	var v any = reps
	if len(reps) == 1 {
		v = reps[0]
	}
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(path, append(b, '\n'), 0o644); err != nil {
		return fmt.Errorf("writing report: %w", err)
	}
	return nil
}
