// Command sqbench regenerates the paper's evaluation figures.
//
// Each figure sweeps a concurrency axis and prints one row per level with
// one column per algorithm, in the paper's legend order:
//
//	Figure 3:  N producers : N consumers   (ns/transfer vs pairs)
//	Figure 4:  1 producer  : N consumers   (ns/transfer vs consumers)
//	Figure 5:  N producers : 1 consumer    (ns/transfer vs producers)
//	Figure 6:  CachedThreadPool ns/task vs submitter threads
//
// Usage:
//
//	sqbench -figure all
//	sqbench -figure 3 -transfers 50000 -repeats 5
//	sqbench -figure 6 -levels 1,2,4,8 -csv > fig6.csv
//	sqbench -figure scaling -json > BENCH_scaling.json
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"strconv"
	"strings"

	"synchq/internal/bench"
	"synchq/internal/sim"
	"synchq/internal/stats"
)

// simTransfers caps the per-cell transfer count for simulated figures:
// simulation is orders of magnitude slower than live measurement, and the
// simulator is deterministic, so small counts already give exact results.
func simTransfers(o bench.SweepOpts) int64 {
	if o.Transfers > 5000 {
		return 2000
	}
	return o.Transfers
}

// report is what each JSON-emitting sweep returns: the artifact document,
// its regression gate, and the headline lines printed under its table.
type report interface {
	JSON() ([]byte, error)
	Gate() error
	Headlines() string
}

// reports maps each report figure to its sweep; every committed
// BENCH_<figure>.json is one of these documents.
var reports = map[string]func(bench.SweepOpts) (*stats.Table, report){
	"scaling":  func(o bench.SweepOpts) (*stats.Table, report) { return bench.Scaling(o) },
	"batch":    func(o bench.SweepOpts) (*stats.Table, report) { return bench.Batch(o) },
	"latency":  func(o bench.SweepOpts) (*stats.Table, report) { return bench.Latency(o) },
	"executor": func(o bench.SweepOpts) (*stats.Table, report) { return bench.Executor(o) },
}

// runReport runs one report figure and writes it to w — the JSON document
// with asJSON, CSV with asCSV, otherwise the aligned table and its
// headlines — and then, with gate, returns the gate's verdict.
func runReport(w io.Writer, figure string, o bench.SweepOpts, asJSON, asCSV, gate bool) error {
	t, r := reports[figure](o)
	switch {
	case asJSON:
		out, err := r.JSON()
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "%s\n", out)
	case asCSV:
		fmt.Fprint(w, t.CSV())
	default:
		fmt.Fprint(w, t.Render())
		fmt.Fprint(w, "\n"+r.Headlines())
	}
	if gate {
		return r.Gate()
	}
	return nil
}

func main() {
	var (
		figure    = flag.String("figure", "all", `figure to regenerate: "3", "4", "5", "6", "all", an ablation ("spin", "clean", "elim", "procsweep", "ablations"), "scaling" (the producer×consumer scaling sweep), "batch" (k-item batch ops vs k single ops), "latency" (the latency-histogram overhead benchmark), "executor" (the bursty RPC-frontend executor macro-benchmark), or "sim3" (Figure 3 on the simulated multiprocessor)`)
		transfers = flag.Int64("transfers", 20000, "transfers (or tasks) per measurement cell")
		levels    = flag.String("levels", "", "comma-separated sweep levels overriding the paper's defaults")
		repeats   = flag.Int("repeats", 3, "measurements per cell (minimum is reported)")
		extras    = flag.Bool("extras", false, "add Go channel and naive monitor queue series")
		csv       = flag.Bool("csv", false, "emit CSV instead of an aligned table")
		chart     = flag.Bool("chart", false, "emit ASCII bar charts instead of tables")
		speedup   = flag.String("speedup", "", "append a speedup table relative to the named series (e.g. \"SynchronousQueue\")")
		jsonF     = flag.Bool("json", false, "with -figure scaling, batch, latency or executor: emit the JSON report (the document committed as BENCH_<figure>.json) instead of the table")
		gate      = flag.Bool("gate", false, "exit nonzero on a failed regression gate: with -figure scaling, the sharded+adaptive fair queue must not be slower than the plain fair queue at the maximum pair count; with -figure batch, k=8 batches must beat the equivalent single-op loop on the seg and transfer cores; with -figure latency, enabling the latency histograms must not exceed the overhead budget; with -figure executor, the ledgers must balance and the burst must bite")
		coresF    = flag.String("cores", "", `with -figure scaling or batch: comma-separated series names restricting the sweep (e.g. "queue,seg"), so CI can gate a reduced comparison quickly; the gate checks whichever headline pairs the selection includes`)
		artifacts = flag.Bool("artifacts", false, "regenerate every committed BENCH_*.json with its committed settings (the `make bench-all` entry point), printing per-figure headline deltas vs the files being replaced")
		dirF      = flag.String("dir", ".", "with -artifacts: directory holding the BENCH_*.json files")
		quiet     = flag.Bool("quiet", false, "suppress progress output on stderr")
		procs     = flag.Int("procs", 0, "GOMAXPROCS for the run; 0 selects max(NumCPU, 8) so that the paper's contention regime is reproduced even on small hosts")
		simProcs  = flag.Int("simprocs", 16, "simulated processors for -figure sim3")
	)
	flag.Parse()

	p := *procs
	if p <= 0 {
		p = runtime.NumCPU()
		if p < 8 {
			p = 8
		}
	}
	runtime.GOMAXPROCS(p)
	if !*quiet {
		fmt.Fprintf(os.Stderr, "sqbench: GOMAXPROCS=%d (NumCPU=%d)\n", p, runtime.NumCPU())
	}

	if *artifacts {
		os.Exit(runArtifacts(*dirF, *quiet))
	}

	_, isReport := reports[*figure]
	if *jsonF && !isReport {
		fmt.Fprintf(os.Stderr, "sqbench: -json needs -figure scaling, batch, latency or executor\n")
		os.Exit(2)
	}

	var lv []int
	if *levels != "" {
		for _, part := range strings.Split(*levels, ",") {
			n, err := strconv.Atoi(strings.TrimSpace(part))
			if err != nil || n < 1 {
				fmt.Fprintf(os.Stderr, "sqbench: bad level %q\n", part)
				os.Exit(2)
			}
			lv = append(lv, n)
		}
	}

	opts := bench.SweepOpts{
		Transfers: *transfers,
		Levels:    lv,
		Repeats:   *repeats,
		Extras:    *extras,
	}
	if *coresF != "" {
		for _, part := range strings.Split(*coresF, ",") {
			opts.Cores = append(opts.Cores, strings.TrimSpace(part))
		}
		if err := bench.ValidateCores(*figure, opts.Cores); err != nil {
			fmt.Fprintf(os.Stderr, "sqbench: %v\n", err)
			os.Exit(2)
		}
	}
	if !*quiet {
		opts.Progress = func(fig int, algo string, level int) {
			fmt.Fprintf(os.Stderr, "figure %d: %-28s level %d\n", fig, algo, level)
		}
	}

	if isReport {
		if err := runReport(os.Stdout, *figure, opts, *jsonF, *csv, *gate); err != nil {
			fmt.Fprintf(os.Stderr, "sqbench: %v\n", err)
			os.Exit(1)
		}
		if *gate {
			fmt.Fprintf(os.Stderr, "sqbench: %s gate passed\n", *figure)
		}
		return
	}

	figs := map[string]func(bench.SweepOpts) *stats.Table{
		"3":         bench.Figure3,
		"4":         bench.Figure4,
		"5":         bench.Figure5,
		"6":         bench.Figure6,
		"spin":      bench.AblationSpin,
		"clean":     bench.AblationClean,
		"elim":      bench.AblationElimination,
		"procsweep": func(o bench.SweepOpts) *stats.Table { return bench.ProcsSweep(o, 16) },
		"sim3": func(o bench.SweepOpts) *stats.Table {
			return sim.Figure3(sim.DefaultConfig(*simProcs), o.Levels, simTransfers(o))
		},
		"sim4": func(o bench.SweepOpts) *stats.Table {
			return sim.Figure4(sim.DefaultConfig(*simProcs), o.Levels, simTransfers(o))
		},
		"sim5": func(o bench.SweepOpts) *stats.Table {
			return sim.Figure5(sim.DefaultConfig(*simProcs), o.Levels, simTransfers(o))
		},
		"simprocsweep": func(o bench.SweepOpts) *stats.Table {
			return sim.ProcsSweep(o.Levels, 16, simTransfers(o))
		},
	}
	var order []string
	switch {
	case *figure == "all":
		order = []string{"3", "4", "5", "6"}
	case *figure == "ablations":
		order = []string{"spin", "clean", "elim", "procsweep"}
	case *figure == "sim":
		order = []string{"sim3", "sim4", "sim5", "simprocsweep"}
	default:
		if _, ok := figs[*figure]; !ok {
			fmt.Fprintf(os.Stderr, "sqbench: unknown figure %q\n", *figure)
			os.Exit(2)
		}
		order = []string{*figure}
	}

	for i, f := range order {
		t := figs[f](opts)
		switch {
		case *csv:
			fmt.Print(t.CSV())
		case *chart:
			if i > 0 {
				fmt.Println()
			}
			fmt.Print(t.Chart(60))
		default:
			if i > 0 {
				fmt.Println()
			}
			fmt.Print(t.Render())
		}
		if *speedup != "" && !*csv {
			fmt.Println()
			fmt.Print(t.SpeedupTable(*speedup).Render())
		}
	}
}
