package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"sort"

	"synchq/cmd/sqperf/internal/perf"
)

// benchmarkDef is the part of BENCHMARK.json that -compare and the smoke
// test read.
type benchmarkDef struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
	Workloads []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
}

func readBenchmark(path string) (*benchmarkDef, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var def benchmarkDef
	if err := json.Unmarshal(b, &def); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &def, nil
}

// readReports loads the reports of one side of a comparison, grouped as
// workload → metric → values.
func readReports(paths []string) (map[string]map[string][]float64, error) {
	out := map[string]map[string][]float64{}
	for _, p := range paths {
		b, err := os.ReadFile(p)
		if err != nil {
			return nil, err
		}
		var reps []report
		if err := json.Unmarshal(b, &reps); err != nil {
			var one report
			if err := json.Unmarshal(b, &one); err != nil {
				return nil, fmt.Errorf("%s: not a sqperf report: %w", p, err)
			}
			reps = []report{one}
		}
		for _, r := range reps {
			if out[r.Workload] == nil {
				out[r.Workload] = map[string][]float64{}
			}
			for _, vals := range []map[string]value{r.Metrics, r.Diagnostics} {
				for k, v := range vals {
					out[r.Workload][k] = append(out[r.Workload][k], v.Value)
				}
			}
		}
	}
	return out, nil
}

// verdict judges side b against side a for one metric. worse is b's median
// change in the metric's bad direction, as a share of a's median. Against
// a bound:
//   - worse: b's median is worse than a's by more than the bound;
//   - unresolved: otherwise, when either side's quartile spread exceeds
//     the bound, so "no worse" cannot be told from noise;
//   - better: b's median is better by more than a's own spread and the
//     two sides' quartile ranges do not overlap;
//   - same: otherwise.
//
// An ungated metric (bound NaN) is better or worse when the medians differ
// by more than a's own spread and the quartile ranges do not overlap, and
// unresolved otherwise.
func verdict(a, b []float64, higherBetter bool, bound float64) (string, float64) {
	qa1, ma, qa3 := perf.Quartiles(a)
	qb1, mb, qb3 := perf.Quartiles(b)
	if ma == 0 || math.IsNaN(ma) || math.IsNaN(mb) {
		return "unresolved", math.NaN()
	}
	worse := (mb - ma) / math.Abs(ma)
	disjoint := qb3 < qa1 || qb1 > qa3
	if higherBetter {
		worse = -worse
	}
	spreadA := (qa3 - qa1) / math.Abs(ma)
	spread := math.Max(spreadA, (qb3-qb1)/math.Abs(ma))
	clear := disjoint && math.Abs(worse) > spreadA
	switch {
	case math.IsNaN(bound) && clear && worse > 0:
		return "worse", worse
	case math.IsNaN(bound) && clear:
		return "better", worse
	case math.IsNaN(bound):
		return "unresolved", worse
	case worse > bound:
		return "worse", worse
	case spread > bound:
		return "unresolved", worse
	case clear && worse < 0:
		return "better", worse
	}
	return "same", worse
}

// runCompare implements -compare A.json... -- B.json...: for every
// workload and end-to-end metric it prints each side's median and
// quartiles and a verdict against the metric's bound, then the same for
// the ungated speed diagnostics. It exits 1 when a gated verdict is worse.
func runCompare(args []string, benchPath string, stdout, stderr io.Writer) int {
	split := -1
	for i, a := range args {
		if a == "--" {
			split = i
		}
	}
	if split < 1 || split == len(args)-1 {
		fmt.Fprintln(stderr, "sqperf: usage: sqperf -compare A.json... -- B.json...")
		return 2
	}
	def, err := readBenchmark(benchPath)
	if err != nil {
		fmt.Fprintf(stderr, "sqperf: %v\n", err)
		return 2
	}
	sideA, err := readReports(args[:split])
	if err == nil {
		var sideB map[string]map[string][]float64
		if sideB, err = readReports(args[split+1:]); err == nil {
			return printComparison(stdout, def, sideA, sideB)
		}
	}
	fmt.Fprintf(stderr, "sqperf: %v\n", err)
	return 2
}

func printComparison(w io.Writer, def *benchmarkDef, sideA, sideB map[string]map[string][]float64) int {
	var names []string
	for name := range sideA {
		if sideB[name] != nil {
			names = append(names, name)
		}
	}
	sort.Strings(names)
	type row struct {
		name         string
		higherBetter bool
		bound        float64 // NaN: not gated
	}
	var rows []row
	for _, m := range def.EndToEnd {
		rows = append(rows, row{m.Name, m.Better == "higher", m.Bound})
	}
	for _, m := range speedDiagnostics {
		rows = append(rows, row{m.name, m.name == "throughput_per_s", math.NaN()})
	}
	fmt.Fprintf(w, "%-13s %-20s %-40s %-40s %8s %s\n", "workload", "metric", "A median [q1, q3] (n)", "B median [q1, q3] (n)", "change", "verdict")
	code := 0
	for _, name := range names {
		for _, m := range rows {
			a, b := sideA[name][m.name], sideB[name][m.name]
			if len(a) == 0 || len(b) == 0 {
				continue
			}
			v, worse := verdict(a, b, m.higherBetter, m.bound)
			gate := "not gated"
			if !math.IsNaN(m.bound) {
				gate = fmt.Sprintf("bound %g%%", 100*m.bound)
				if v == "worse" {
					code = 1
				}
			}
			fmt.Fprintf(w, "%-13s %-20s %-40s %-40s %+7.1f%% %s (%s)\n",
				name, m.name, side(a), side(b), -100*worse*sign(m.higherBetter), v, gate)
		}
	}
	return code
}

// sign turns "worse" back into a signed change of the metric itself.
func sign(higherBetter bool) float64 {
	if higherBetter {
		return 1
	}
	return -1
}

func side(xs []float64) string {
	q1, m, q3 := perf.Quartiles(xs)
	return fmt.Sprintf("%.5g [%.5g, %.5g] (%d)", m, q1, q3, len(xs))
}
