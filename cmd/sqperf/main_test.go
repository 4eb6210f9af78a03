package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"testing"
	"time"

	"synchq/cmd/sqperf/internal/perf"
)

const benchmarkFile = "../../BENCHMARK.json"

// printed parses the "workload metric value unit" lines of a run's output
// into metric → unit.
func printed(t *testing.T, out string, workload string) map[string]string {
	t.Helper()
	got := map[string]string{}
	sc := bufio.NewScanner(strings.NewReader(out))
	for sc.Scan() {
		f := strings.Fields(sc.Text())
		if len(f) != 4 || f[0] != workload {
			continue
		}
		if _, err := strconv.ParseFloat(f[2], 64); err != nil {
			t.Errorf("%s %s: value %q is not a number", workload, f[1], f[2])
		}
		if _, dup := got[f[1]]; !dup {
			got[f[1]] = f[3]
		}
	}
	return got
}

// checkLine verifies a result line: exactly the keys correct, attempted,
// failed and metrics, and exactly the wanted metrics with their units.
func checkLine(t *testing.T, reps []*report, want map[string]string) {
	t.Helper()
	b, err := json.Marshal(resultOf(reps))
	if err != nil {
		t.Fatal(err)
	}
	var line map[string]json.RawMessage
	if err := json.Unmarshal(b, &line); err != nil {
		t.Fatal(err)
	}
	if len(line) != 4 || line["correct"] == nil || line["attempted"] == nil || line["failed"] == nil || line["metrics"] == nil {
		t.Errorf("result line keys: %s", b)
	}
	var ms map[string]value
	if err := json.Unmarshal(line["metrics"], &ms); err != nil {
		t.Fatal(err)
	}
	if len(ms) != len(want) {
		t.Errorf("result line has %d metrics, want %d", len(ms), len(want))
	}
	for name, unit := range want {
		if v, ok := ms[name]; !ok || v.Unit != unit {
			t.Errorf("result line metric %s = %+v, want unit %s", name, v, unit)
		}
	}
}

// TestSmoke runs every workload briefly, and one traced run, and checks
// that the checks pass and every metric BENCHMARK.json names is printed
// with its unit.
func TestSmoke(t *testing.T) {
	def, err := readBenchmark(benchmarkFile)
	if err != nil {
		t.Fatal(err)
	}
	endToEndWant, perLayerWant := map[string]string{}, map[string]string{}
	for _, m := range def.EndToEnd {
		endToEndWant[m.Name] = m.Unit
	}
	for _, m := range def.PerLayer {
		perLayerWant[m.Name] = m.Unit
	}
	var names []string
	for _, w := range def.Workloads {
		names = append(names, w.Name)
	}
	if strings.Join(names, ",") != strings.Join(workloads, ",") {
		t.Errorf("BENCHMARK.json workloads %v, sqperf runs %v", names, workloads)
	}

	pl := plan{warmup: 50 * time.Millisecond, measure: 200 * time.Millisecond, setups: 3}
	for _, w := range workloads {
		rep := measure(w, 7, pl, false, "")
		var out bytes.Buffer
		rep.printHuman(&out)
		if !rep.Correct || rep.Attempted < 1 || rep.Failed != 0 {
			t.Errorf("%s: correct=%v attempted=%d failed=%d problems=%v", w, rep.Correct, rep.Attempted, rep.Failed, rep.Problems)
		}
		got := printed(t, out.String(), w)
		for name, unit := range endToEndWant {
			if got[name] != unit {
				t.Errorf("%s: %s printed with unit %q, want %q", w, name, got[name], unit)
			}
			if v := rep.Metrics[name].Value; v <= 0 {
				t.Errorf("%s: %s = %v, want a positive measurement", w, name, v)
			}
		}
		checkLine(t, []*report{rep}, endToEndWant)
	}

	// The executor's spans nest: SubmitContext calls Offer on the queue.
	spans := filepath.Join(t.TempDir(), "spans.jsonl")
	pl = plan{warmup: 50 * time.Millisecond, measure: 200 * time.Millisecond, cell: 100 * time.Millisecond}
	rep := measure("executor", 7, pl, true, spans)
	var out bytes.Buffer
	rep.printHuman(&out)
	if !rep.Correct {
		t.Errorf("traced executor: problems %v", rep.Problems)
	}
	got := printed(t, out.String(), "executor")
	for name, unit := range perLayerWant {
		if got[name] != unit {
			t.Errorf("traced: %s printed with unit %q, want %q", name, got[name], unit)
		}
	}
	checkLine(t, []*report{rep}, perLayerWant)

	f, err := os.Open(spans)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	ss, err := perf.ReadSpans(f)
	if err != nil {
		t.Fatal(err)
	}
	if err := perf.CheckNesting(ss); err != nil {
		t.Error(err)
	}
	children := 0
	for _, s := range ss {
		if s.Parent != 0 {
			children++
		}
	}
	if len(ss) == 0 || children == 0 {
		t.Errorf("span file holds %d spans, %d with a parent; want both nonzero", len(ss), children)
	}
}

// Every BENCHMARK.json metric is one sqperf computes, with the same unit.
func TestBenchmarkFileMatchesCatalogue(t *testing.T) {
	def, err := readBenchmark(benchmarkFile)
	if err != nil {
		t.Fatal(err)
	}
	same := func(kind string, specs []metricSpec, names, units []string) {
		if len(specs) != len(names) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, sqperf %d", kind, len(names), len(specs))
			return
		}
		for i, s := range specs {
			if s.name != names[i] || s.unit != units[i] {
				t.Errorf("%s[%d]: BENCHMARK.json %s (%s), sqperf %s (%s)", kind, i, names[i], units[i], s.name, s.unit)
			}
		}
	}
	var n, u []string
	for _, m := range def.EndToEnd {
		n, u = append(n, m.Name), append(u, m.Unit)
	}
	same("end_to_end", endToEnd, n, u)
	n, u = nil, nil
	for _, m := range def.PerLayer {
		n, u = append(n, m.Name), append(u, m.Unit)
	}
	same("per_layer", perLayer, n, u)
}

func TestVerdict(t *testing.T) {
	base := []float64{100, 101, 99, 100, 102}
	for _, c := range []struct {
		b            []float64
		higherBetter bool
		want         string
	}{
		{[]float64{100, 100, 101, 99, 100}, true, "same"},
		{[]float64{80, 81, 79, 80, 82}, true, "worse"},
		{[]float64{80, 81, 79, 80, 82}, false, "better"},
		{[]float64{120, 121, 119, 120, 122}, false, "worse"},
		{[]float64{60, 140, 100, 70, 130}, true, "unresolved"},
	} {
		if got, _ := verdict(base, c.b, c.higherBetter, 0.1); got != c.want {
			t.Errorf("verdict(%v, higherBetter=%v) = %s, want %s", c.b, c.higherBetter, got, c.want)
		}
	}
	// Ungated metrics are judged against the runs' own spread.
	for _, c := range []struct {
		b    []float64
		want string
	}{
		{[]float64{95, 96, 94, 95, 97}, "worse"},
		{[]float64{105, 106, 104, 105, 107}, "better"},
		{[]float64{100, 101, 99, 100, 102}, "unresolved"},
	} {
		if got, _ := verdict(base, c.b, true, math.NaN()); got != c.want {
			t.Errorf("ungated verdict(%v) = %s, want %s", c.b, got, c.want)
		}
	}
}

func TestCompareReports(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, alloc, thr float64) string {
		p := filepath.Join(dir, name)
		r := newReport("pair", 1, false, plan{})
		r.set("alloc_bytes_per_op", alloc, "B/op")
		r.diag(metric{"throughput_per_s", thr, "1/s"})
		if err := writeReports(p, []*report{r}); err != nil {
			t.Fatal(err)
		}
		return p
	}
	a := []string{write("a1", 64, 100), write("a2", 64.1, 101), write("a3", 63.9, 99)}
	same := []string{write("s1", 64, 130), write("s2", 64.1, 131), write("s3", 63.9, 129)}
	worse := []string{write("w1", 80, 100), write("w2", 80, 101), write("w3", 80, 99)}
	compare := func(b []string) (int, string) {
		var out, errOut bytes.Buffer
		args := append(append(append([]string{"-compare", "-benchmark", benchmarkFile}, a...), "--"), b...)
		code := run(args, &out, &errOut)
		return code, out.String() + errOut.String()
	}
	// A faster run is reported, but only a gated metric decides the exit.
	if code, out := compare(same); code != 0 || !strings.Contains(out, "throughput_per_s") || !strings.Contains(out, "better (not gated)") {
		t.Errorf("compare exit %d, output:\n%s", code, out)
	}
	if code, out := compare(worse); code != 1 || !strings.Contains(out, "worse (bound 10%)") {
		t.Errorf("compare exit %d, want 1 for 25%% more bytes per op; output:\n%s", code, out)
	}
}

func TestRefusesOversubscribedHost(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(runtime.NumCPU() + 1))
	var out, errOut bytes.Buffer
	if code := run([]string{"--workload", "pair", "--seconds", "1"}, &out, &errOut); code != 2 || out.Len() != 0 {
		t.Errorf("exit %d with output %q, want 2 and no output", code, out.String())
	}
}
