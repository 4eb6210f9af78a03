// Command sqstress is a long-running invariant stress tester for the
// synchronous queue implementations. It drives a mixed workload — demand
// puts/takes, timed offers/polls with random patience, and cancellation
// storms — while recording a full operation history, then verifies
// conservation (no value lost, duplicated, or invented) and synchrony
// (every transfer's put and take intervals overlap).
//
// With -chaos, sqstress instead runs the property-declared chaos harness:
// every core × option configuration (dual stack, dual queue, transfer
// queue, sharded fabric, eliminating composition, executor pool; default
// and no-spin wait configs) is driven through a scenario library — bursty
// open/close cycles, skew flips, cancel storms, goroutine churn,
// slow-consumer backpressure, GOMAXPROCS shifts, plus two executor-only
// scenarios (admission overload with deadline shedding, graceful
// drain-storm with forced reclaim) — under the deterministic
// fault injector (internal/fault), against named Always / Sometimes /
// Reachable properties. The run emits a verdict table (text, plus JSON via
// -json); any failing row makes the exit status nonzero and prints a
// one-line replay command that re-runs that configuration with the same
// seed, hence the same injected-event stream.
//
// Usage:
//
//	sqstress -algo "New SynchQueue (fair)" -duration 10s -producers 8 -consumers 8
//	sqstress -all -duration 2s
//	sqstress -chaos -seed 42 -scenario-duration 300ms -json verdicts.json
//	sqstress -chaos -cores queue,elim -opts nospin -scenarios cancel-storm,churn
package main

import (
	"flag"
	"fmt"
	"math/rand/v2"
	"net/http"
	"os"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"synchq/internal/baseline"
	"synchq/internal/bench"
	"synchq/internal/core"
	"synchq/internal/exchanger"
	"synchq/internal/fault"
	"synchq/internal/metrics"
	"synchq/internal/shard"
	"synchq/internal/stats"
	"synchq/internal/verify"
)

// timedSQ is the rich surface the stress mix needs.
type timedSQ interface {
	OfferTimeout(v int64, d time.Duration) bool
	PollTimeout(d time.Duration) (int64, bool)
}

// timedHandoff drives any core through the hand-off contract, deriving
// the timed offer and poll the way the synchq facade does: a transfer at
// patience d.
type timedHandoff struct{ h core.Handoff[int64] }

func (a timedHandoff) OfferTimeout(v int64, d time.Duration) bool {
	return a.h.PutDeadline(v, core.DeadlineFor(d), nil) == core.OK
}

func (a timedHandoff) PollTimeout(d time.Duration) (int64, bool) {
	v, st := a.h.TakeDeadline(core.DeadlineFor(d), nil)
	return v, st == core.OK
}

// elimSQ fronts a dual queue with the adaptive elimination arena, like
// synchq's EliminatingAdaptive option, so the stress mix covers the arena's
// retract/hand-off races (and, under -chaos, its XArenaPause site).
type elimSQ struct {
	arena *exchanger.Arena[int64]
	q     timedHandoff
}

func (e elimSQ) OfferTimeout(v int64, d time.Duration) bool {
	if e.arena.TryGiveAdaptive(v) {
		return true
	}
	return e.q.OfferTimeout(v, d)
}

func (e elimSQ) PollTimeout(d time.Duration) (int64, bool) {
	if v, ok := e.arena.TryTakeAdaptive(); ok {
		return v, true
	}
	return e.q.PollTimeout(d)
}

// newTimed constructs the named algorithm, attaching h and the fault
// injector f to the implementations that support them. metered reports
// whether h was attached.
func newTimed(name string, h *metrics.Handle, f *fault.Injector) (q timedSQ, metered bool) {
	cfg := core.WaitConfig{Metrics: h, Fault: f}
	switch name {
	case "SynchronousQueue":
		return baseline.NewJava5[int64](false), false
	case "SynchronousQueue (fair)":
		return baseline.NewJava5[int64](true), false
	case "New SynchQueue":
		return timedHandoff{core.NewDualStack[int64](cfg)}, h != nil
	case "New SynchQueue (fair)", "New TransferQueue":
		// The transfer queue's synchronous paths are the fair queue's:
		// its offer is a Transfer with bounded patience.
		return timedHandoff{core.NewDualQueue[int64](cfg)}, h != nil
	case "Sharded SynchQueue (fair)":
		fab := shard.New(0, func(int) shard.Dual[int64] {
			return core.NewDualQueue[int64](cfg)
		}).SetMetrics(h).SetFault(f)
		return timedHandoff{fab}, h != nil
	case "Eliminating SynchQueue (fair)":
		arena := exchanger.NewArenaAdaptive[int64](0).SetMetrics(h).SetFault(f)
		return elimSQ{arena: arena, q: timedHandoff{core.NewDualQueue[int64](cfg)}}, h != nil
	case "GoChannel":
		return baseline.NewChannel[int64](), false
	default:
		return nil, false
	}
}

func main() {
	var (
		algo      = flag.String("algo", "New SynchQueue (fair)", "algorithm under test (bench registry name); comma-separate to stress several")
		all       = flag.Bool("all", false, "stress every timed algorithm in sequence")
		duration  = flag.Duration("duration", 5*time.Second, "stress duration per algorithm")
		producers = flag.Int("producers", 8, "producer goroutines")
		consumers = flag.Int("consumers", 8, "consumer goroutines")
		seed      = flag.Uint64("seed", 1, "PRNG seed for patience jitter and fault injection")
		chaos     = flag.Bool("chaos", false, "run the property-declared chaos harness: scenario library × core matrix under deterministic fault injection, with a verdict table")
		metricsF  = flag.Bool("metrics", false, "print the instrumentation counter table after the runs (always printed on failure)")
		httpAddr  = flag.String("http", "", "serve expvar at this address (e.g. :8080) so counters are scrapable at /debug/vars during long runs")
		procs     = flag.Int("procs", 0, "GOMAXPROCS for the run; 0 keeps the runtime default. Raising it on a small host widens the shard fabric (its width follows GOMAXPROCS), so the cross-shard steal paths get stressed too")

		// Chaos-harness matrix selectors (with -chaos only).
		coresF      = flag.String("cores", "", "chaos: comma-separated core keys (stack,queue,transfer,seg,sharded,auto,elim,pool); empty = all")
		optsF       = flag.String("opts", "", "chaos: comma-separated option keys (default,nospin); empty = all")
		scenariosF  = flag.String("scenarios", "", "chaos: comma-separated scenario names; empty or \"all\" = whole library")
		scenarioDur = flag.Duration("scenario-duration", 2*time.Second, "chaos: workload duration per scenario")
		jsonPath    = flag.String("json", "", "chaos: write the machine-readable verdict report to this file (\"-\" = stdout)")
		sabotageF   = flag.Bool("chaos-sabotage", false, "chaos: register a deliberately broken always-checker (self-test: the run must fail with a nonzero exit)")
	)
	flag.Parse()

	if *procs > 0 {
		runtime.GOMAXPROCS(*procs)
	}

	if *chaos {
		o := chaosOptions{
			seed:        *seed,
			cores:       splitKeys(*coresF),
			opts:        splitKeys(*optsF),
			scenarios:   splitKeys(*scenariosF),
			scenarioDur: *scenarioDur,
			producers:   *producers,
			consumers:   *consumers,
			jsonPath:    *jsonPath,
			sabotage:    *sabotageF,
		}
		if _, ok := runChaosMatrix(o); !ok {
			os.Exit(1)
		}
		return
	}

	if *httpAddr != "" {
		go func() {
			if err := http.ListenAndServe(*httpAddr, nil); err != nil {
				fmt.Fprintf(os.Stderr, "sqstress: expvar server: %v\n", err)
			}
		}()
	}

	var names []string
	for _, n := range strings.Split(*algo, ",") {
		if n = strings.TrimSpace(n); n != "" {
			names = append(names, n)
		}
	}
	if *all {
		names = nil
		for _, a := range bench.Algorithms(true) {
			if q, _ := newTimed(a.Name, nil, nil); q != nil {
				names = append(names, a.Name)
			}
		}
		// The transfer queue lives outside the bench registry (its Put is
		// asynchronous, which the throughput benchmarks exclude) but its
		// synchronous paths stress exactly like the fair queue's. The
		// sharded and eliminating compositions likewise join only here,
		// where their cross-shard steals and arena retract races get the
		// long-running mixed workload the figures do not provide.
		names = append(names,
			"New TransferQueue",
			"Sharded SynchQueue (fair)",
			"Eliminating SynchQueue (fair)")
	}

	// One counter table across all stressed algorithms: a row per counter,
	// a column per instrumented algorithm. The core structures are always
	// metered so the table can be dumped when a run fails; -metrics merely
	// prints it unconditionally.
	var cols []string
	for _, name := range names {
		if _, metered := newTimed(name, metrics.New(), nil); metered {
			cols = append(cols, name)
		}
	}
	var counterTable, latencyTable *stats.Table
	if len(cols) > 0 {
		counterTable = stats.NewTable("Instrumentation counters", "counter", "events", cols)
		latencyTable = stats.NewTable("Latency histograms (sampled, ns)", "percentile", "ns", cols)
	}

	exit := 0
	for _, name := range names {
		h := metrics.New()
		q, metered := newTimed(name, h, nil)
		if q == nil {
			fmt.Fprintf(os.Stderr, "sqstress: algorithm %q lacks the timed interface\n", name)
			os.Exit(2)
		}
		if metered {
			metrics.Publish("sqstress."+name, h)
		}
		if !stress(name, q, *duration, *producers, *consumers, *seed) {
			exit = 1
			fmt.Printf("  replay: go run ./cmd/sqstress -algo %q -duration %s -producers %d -consumers %d -seed %d -procs %d\n",
				name, *duration, *producers, *consumers, *seed, runtime.GOMAXPROCS(0))
		}
		if metered && counterTable != nil {
			s := h.Snapshot()
			for i := metrics.ID(0); i < metrics.NumIDs; i++ {
				counterTable.Set(i.String(), name, float64(s.Get(i)))
			}
			hs := h.Histograms()
			for i := metrics.HistID(0); i < metrics.NumHistIDs; i++ {
				c := hs.Get(i)
				if c.Count() == 0 {
					continue
				}
				latencyTable.Set(i.String()+" p50", name, float64(c.Percentile(0.50)))
				latencyTable.Set(i.String()+" p99", name, float64(c.Percentile(0.99)))
			}
		}
	}
	if counterTable != nil && (*metricsF || exit != 0) {
		fmt.Println()
		fmt.Print(counterTable.Render())
		fmt.Println()
		fmt.Print(latencyTable.Render())
	}
	os.Exit(exit)
}

// splitKeys parses a comma-separated selector flag; "all" (or empty)
// selects everything.
func splitKeys(s string) []string {
	var out []string
	for _, k := range strings.Split(s, ",") {
		if k = strings.TrimSpace(k); k != "" && k != "all" {
			out = append(out, k)
		}
	}
	return out
}

// stress runs the mixed workload and verifies the recorded history. It
// returns true if every invariant held.
func stress(name string, q timedSQ, d time.Duration, producers, consumers int, seed uint64) bool {
	rec := verify.NewRecorder()
	stop := make(chan struct{})
	var offered, delivered, putTimeouts, pollTimeouts atomic.Int64
	var wg sync.WaitGroup

	for p := 0; p < producers; p++ {
		wg.Add(1)
		go func(id int64) {
			defer wg.Done()
			rng := rand.New(rand.NewPCG(seed, uint64(id)))
			log := rec.NewThread()
			for seq := int64(0); ; seq++ {
				select {
				case <-stop:
					return
				default:
				}
				v := id<<40 | seq
				patience := time.Duration(rng.IntN(2000)) * time.Microsecond
				inv := log.Begin()
				ok := q.OfferTimeout(v, patience)
				log.End(verify.Put, v, inv, ok)
				if ok {
					offered.Add(1)
				} else {
					putTimeouts.Add(1)
				}
			}
		}(int64(p))
	}
	for c := 0; c < consumers; c++ {
		wg.Add(1)
		go func(id int64) {
			defer wg.Done()
			rng := rand.New(rand.NewPCG(seed+1000, uint64(id)))
			log := rec.NewThread()
			for {
				select {
				case <-stop:
					return
				default:
				}
				patience := time.Duration(rng.IntN(2000)) * time.Microsecond
				inv := log.Begin()
				v, ok := q.PollTimeout(patience)
				log.End(verify.Take, v, inv, ok)
				if ok {
					delivered.Add(1)
				} else {
					pollTimeouts.Add(1)
				}
			}
		}(int64(c))
	}

	time.Sleep(d)
	close(stop)
	wg.Wait()

	// Drain any value committed to a producer whose consumer had not yet
	// recorded it (cannot happen for a synchronous queue, but the drain
	// also catches implementation bugs that buffer values).
	drainLog := rec.NewThread()
	for {
		inv := drainLog.Begin()
		v, ok := q.PollTimeout(10 * time.Millisecond)
		drainLog.End(verify.Take, v, inv, ok)
		if !ok {
			break
		}
		delivered.Add(1)
	}

	history := rec.History()
	res := verify.Check(history, true)
	status := "PASS"
	if !res.Ok() || offered.Load() != delivered.Load() {
		status = "FAIL"
	}
	fmt.Printf("%-28s %s  transfers=%d put-timeouts=%d poll-timeouts=%d\n",
		name, status, res.Transfers, putTimeouts.Load(), pollTimeouts.Load())
	putLat, takeLat := verify.Latencies(history)
	if len(putLat) > 0 {
		fmt.Printf("  put latency (ns):  %s\n", stats.Summarize(putLat))
	}
	if len(takeLat) > 0 {
		fmt.Printf("  take latency (ns): %s\n", stats.Summarize(takeLat))
	}
	if offered.Load() != delivered.Load() {
		fmt.Printf("  conservation: offered=%d delivered=%d\n", offered.Load(), delivered.Load())
	}
	for _, e := range res.Errors {
		fmt.Printf("  violation: %s\n", e)
	}
	return status == "PASS"
}
