package bench

import (
	"fmt"
	"strings"
	"testing"
)

// The gate-pin tables: every regression gate sqbench enforces, fed
// synthetic reports just inside and just outside each floor and budget, on
// a single-CPU and a two-CPU host. The thresholds are spelled out here as
// literals rather than read from the package's constants, so moving a
// floor, a budget or a single-CPU fallback fails this test.

// gateEps is the margin "just inside" and "just outside" a threshold.
const gateEps = 1e-3

type gateCase struct {
	name string
	gate func() error
	// wantErr is a substring of the expected error; empty means the gate
	// must pass.
	wantErr string
}

func runGateCases(t *testing.T, cases []gateCase) {
	t.Helper()
	for _, c := range cases {
		err := c.gate()
		switch {
		case c.wantErr == "" && err != nil:
			t.Errorf("%s: gate failed, want pass: %v", c.name, err)
		case c.wantErr != "" && err == nil:
			t.Errorf("%s: gate passed, want error containing %q", c.name, c.wantErr)
		case c.wantErr != "" && !strings.Contains(err.Error(), c.wantErr):
			t.Errorf("%s: gate error %q, want it to contain %q", c.name, err, c.wantErr)
		}
	}
}

// cpuName labels a case with its host shape.
func cpuName(numCPU int, what string) string {
	if numCPU < 2 {
		return "1cpu/" + what
	}
	return "2cpu/" + what
}

func TestScalingGateThresholds(t *testing.T) {
	const baseline = 1000.0
	// speedupReport sets one headline series to the given speedup over the
	// plain queue at max pairs; field selects which.
	speedupReport := func(numCPU int, field string, speedup float64) ScalingReport {
		r := ScalingReport{NumCPU: numCPU, Repeats: 3}
		r.Summary.MaxPairs = 8
		r.Summary.BaselineNs = baseline
		ns := baseline / speedup
		switch field {
		case "shard":
			r.Summary.ShardedNs, r.Summary.Speedup = ns, speedup
		case "seg":
			r.Summary.SegNs, r.Summary.SegSpeedup = ns, speedup
		case "auto":
			r.Summary.AutoNs, r.Summary.AutoSpeedup = ns, speedup
		}
		return r
	}
	taxReport := func(numCPU, repeats, collapsed int, tax float64) ScalingReport {
		r := ScalingReport{NumCPU: numCPU, Repeats: repeats}
		r.Summary.MaxPairs = 8
		r.Summary.Baseline1Ns = baseline
		r.Summary.Auto1Ns = baseline * tax
		r.Summary.AutoTax = tax
		r.Summary.Auto1Collapsed = collapsed
		return r
	}

	var cases []gateCase
	for _, cpu := range []struct {
		n            int
		floor, taxUB float64
	}{{1, 0.35, 1.4}, {2, 1.0, 1.05}} {
		for _, field := range []string{"shard", "seg", "auto"} {
			in := speedupReport(cpu.n, field, cpu.floor+gateEps)
			out := speedupReport(cpu.n, field, cpu.floor-gateEps)
			at := speedupReport(cpu.n, field, cpu.floor)
			cases = append(cases,
				gateCase{cpuName(cpu.n, field+" speedup just above floor"), in.Gate, ""},
				gateCase{cpuName(cpu.n, field+" speedup at floor"), at.Gate, ""},
				gateCase{cpuName(cpu.n, field+" speedup just below floor"), out.Gate, "speedup"},
			)
		}
		// Collapse tax, with no repeat collapsed: the ratio alone decides.
		in := taxReport(cpu.n, 3, 0, cpu.taxUB-gateEps)
		out := taxReport(cpu.n, 3, 0, cpu.taxUB+gateEps)
		cases = append(cases,
			gateCase{cpuName(cpu.n, "auto tax just under bound"), in.Gate, ""},
			gateCase{cpuName(cpu.n, "auto tax just over bound"), out.Gate, "collapse tax"},
		)
		// A sweep with nothing to compare is an error, not a silent pass.
		empty := ScalingReport{NumCPU: cpu.n, Repeats: 3}
		baseOnly := ScalingReport{NumCPU: cpu.n, Repeats: 3}
		baseOnly.Summary.BaselineNs, baseOnly.Summary.Baseline1Ns = baseline, baseline
		subjectOnly := speedupReport(cpu.n, "shard", 2)
		subjectOnly.Summary.BaselineNs = 0
		cases = append(cases,
			gateCase{cpuName(cpu.n, "empty sweep"), empty.Gate, "no checkable pair"},
			gateCase{cpuName(cpu.n, "baseline only"), baseOnly.Gate, "no checkable pair"},
			gateCase{cpuName(cpu.n, "subject without baseline"), subjectOnly.Gate, "no checkable pair"},
		)
	}

	// The single-CPU behavioural fallback: a tax over the bound passes
	// when a majority of repeats (collapsed*2 >= repeats) ended at width
	// one, and only on a single-CPU host.
	over1 := 1.4 + gateEps
	for _, c := range []struct {
		repeats, collapsed int
		want               string
	}{
		{3, 2, ""},
		{3, 3, ""},
		{4, 2, ""},
		{3, 1, "collapse tax"},
		{4, 1, "collapse tax"},
		{1, 0, "collapse tax"},
		{1, 1, ""},
	} {
		r := taxReport(1, c.repeats, c.collapsed, over1)
		cases = append(cases, gateCase{
			cpuName(1, fmt.Sprintf("auto tax over bound, collapsed %d/%d", c.collapsed, c.repeats)),
			r.Gate, c.want,
		})
	}
	// No fallback on multicore, even with every repeat collapsed.
	over2 := taxReport(2, 3, 3, 1.05+gateEps)
	cases = append(cases, gateCase{cpuName(2, "auto tax over bound, all collapsed"), over2.Gate, "collapse tax"})

	// One failing pair fails the whole gate even when the others pass.
	mixed := speedupReport(2, "shard", 2)
	mixed.Summary.SegNs, mixed.Summary.SegSpeedup = baseline/(1.0-gateEps), 1.0-gateEps
	cases = append(cases, gateCase{cpuName(2, "shard passes, seg fails"), mixed.Gate, "seg"})

	runGateCases(t, cases)
}

func TestBatchGateThresholds(t *testing.T) {
	const single = 1000.0
	report := func(numCPU int, core string, gain float64) BatchReport {
		r := BatchReport{NumCPU: numCPU, Repeats: 3}
		r.Summary.MaxPairs, r.Summary.K = 8, 8
		switch core {
		case "seg":
			r.Summary.SegSingleNs, r.Summary.SegBatchNs, r.Summary.SegGain = single, single/gain, gain
		case "transfer":
			r.Summary.TransferSingleNs, r.Summary.TransferBatchNs, r.Summary.TransferGain = single, single/gain, gain
		}
		return r
	}
	var cases []gateCase
	for _, cpu := range []struct {
		n                 int
		segFloor, trFloor float64
	}{{1, 1.15, 0.50}, {2, 1.0 / 0.75, 1.0 / 0.75}} {
		for _, c := range []struct {
			core  string
			floor float64
		}{{"seg", cpu.segFloor}, {"transfer", cpu.trFloor}} {
			in := report(cpu.n, c.core, c.floor+gateEps)
			out := report(cpu.n, c.core, c.floor-gateEps)
			cases = append(cases,
				gateCase{cpuName(cpu.n, c.core+" gain just above floor"), in.Gate, ""},
				gateCase{cpuName(cpu.n, c.core+" gain just below floor"), out.Gate, "batch gate: " + c.core},
			)
		}
		empty := BatchReport{NumCPU: cpu.n, Repeats: 3}
		singleOnly := report(cpu.n, "seg", 2)
		singleOnly.Summary.SegBatchNs = 0
		cases = append(cases,
			gateCase{cpuName(cpu.n, "empty sweep"), empty.Gate, "no checkable pair"},
			gateCase{cpuName(cpu.n, "single-op cell only"), singleOnly.Gate, "no checkable pair"},
		)
	}
	runGateCases(t, cases)
}

func TestLatencyGateThresholds(t *testing.T) {
	report := func(numCPU int, overhead float64) LatencyReport {
		r := LatencyReport{NumCPU: numCPU, Repeats: 7, Pairs: 1}
		r.Summary.MaxOverhead = overhead
		return r
	}
	var cases []gateCase
	for _, cpu := range []struct {
		n      int
		budget float64
	}{{1, 0.50}, {2, 0.10}} {
		in := report(cpu.n, cpu.budget-gateEps)
		at := report(cpu.n, cpu.budget)
		out := report(cpu.n, cpu.budget+gateEps)
		cases = append(cases,
			gateCase{cpuName(cpu.n, "overhead just under budget"), in.Gate, ""},
			gateCase{cpuName(cpu.n, "overhead at budget"), at.Gate, ""},
			gateCase{cpuName(cpu.n, "overhead just over budget"), out.Gate, "exceeds"},
		)
	}
	runGateCases(t, cases)
}

func TestExecutorGateChecks(t *testing.T) {
	healthy := func() ExecutorRun {
		return ExecutorRun{
			Series: "cached-synchronous",
			Steady: ExecutorLeg{Name: "steady", Completed: 100},
			Burst:  ExecutorLeg{Name: "burst", Completed: 50, Shed: 1},
		}
	}
	report := func(numCPU int, mutate func(*ExecutorRun)) ExecutorReport {
		ok, bad := healthy(), healthy()
		ok.Series = "buffered-shedding"
		if mutate != nil {
			mutate(&bad)
		}
		return ExecutorReport{NumCPU: numCPU, Runs: []ExecutorRun{ok, bad}}
	}
	var cases []gateCase
	for _, n := range []int{1, 2} {
		for _, c := range []struct {
			what    string
			mutate  func(*ExecutorRun)
			wantErr string
		}{
			{"healthy", nil, ""},
			{"rejected instead of shed", func(r *ExecutorRun) { r.Burst.Shed, r.Burst.Rejected = 0, 1 }, ""},
			{"conservation gap +1", func(r *ExecutorRun) { r.ConservationGap = 1 }, "conservation gap"},
			{"conservation gap -1", func(r *ExecutorRun) { r.ConservationGap = -1 }, "conservation gap"},
			{"idle steady leg", func(r *ExecutorRun) { r.Steady.Completed = 0 }, "completed no tasks"},
			{"idle burst leg", func(r *ExecutorRun) { r.Burst.Completed = 0 }, "completed no tasks"},
			{"burst never bit", func(r *ExecutorRun) { r.Burst.Shed, r.Burst.Rejected = 0, 0 }, "neither shed nor rejected"},
			{"live worker after drain", func(r *ExecutorRun) { r.LiveAtEnd = 1 }, "still live"},
		} {
			r := report(n, c.mutate)
			cases = append(cases, gateCase{cpuName(n, c.what), r.Gate, c.wantErr})
		}
	}
	runGateCases(t, cases)
}
