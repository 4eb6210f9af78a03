// Command sqperf is the repository's benchmark. It drives four workloads
// through the public API (synchq and pool) and checks every output. An
// untraced run reports end-to-end metrics. A separate traced run breaks
// the cost down by layer. BENCHMARK.json at the repository root names the
// command, the workloads, every metric with its unit and direction, and
// the bound by which each end-to-end metric may worsen before a change
// counts as a regression.
//
// # Running
//
// sqperf is a module of its own (go.mod here replaces synchq with the
// checkout root), so the root's go build ./... and go test ./... do not
// build it. run.sh builds it from the checkout, keeping all toolchain
// state under .bench_build, and runs it from the checkout root:
//
//	bash cmd/sqperf/run.sh --workload pair --seed 1 --seconds 10 --trace 0
//	bash cmd/sqperf/run.sh --workload executor --seed 1 --seconds 10 --trace 1
//	cd cmd/sqperf && go run . --workload all --seconds 5
//	cd cmd/sqperf && go test ./...
//
// The output has one "workload metric value unit" line per metric, then
// diagnostics that no bound gates, then a last line holding one JSON
// object with the keys correct, attempted, failed and metrics. --json FILE
// also writes the full report: the host (nproc, GOMAXPROCS, Go version),
// seed, durations, diagnostics and any failed check. A failed check exits
// 1. Bad usage exits 2, and so does a GOMAXPROCS above the CPU count:
// sqperf runs at the host's GOMAXPROCS and never raises it.
//
// --seed derives every input before any goroutine starts: item check tags,
// which timed-fanout sends use OfferTimeout, and the executor's arrival
// schedule. Every item carries its producer, its sequence number and a
// seeded tag. Consumers check each item and tally counts, sums and square
// sums per producer, so exactly-once delivery is verified without shared
// state. The executor run checks that the pool's ledger balances after
// Drain, that no task body ran twice, and that every refusal is counted.
//
// sqperf -compare A.json... -- B.json... reads --json reports. For every
// workload and end-to-end metric it prints each side's median and
// quartiles and a verdict against the BENCHMARK.json bound: worse (the
// median moved past the bound), unresolved (a side's quartile spread
// exceeds the bound), better (past A's own spread, with disjoint quartile
// ranges) or same. It exits 1 on a worse verdict. It then prints the
// ungated throughput_per_s and latency_p90_us the same way, judged only
// against the runs' own spread.
//
// # Workloads
//
//   - pair: 1 producer, 1 consumer, closed loop of untimed Put and Take on
//     New(Fair(true)). This is the paper's Fig. 3 base case. Only synchq,
//     core and park are on its path; it bypasses shard, exchanger,
//     metrics, segq and pool.
//   - timed-fanout: 2 producers, 6 consumers on New(Fair(true),
//     AutoShard(), Instrument(m)). Producers send 3 Puts per
//     OfferTimeout(10µs) on average, retrying an expired offer; consumers
//     loop on PollTimeout(10µs). It is the asymmetric shape of Figs. 4-5:
//     timed waits, timeouts, cancel and clean, fabric routing and steals,
//     with counters left on as an operator runs them.
//   - batch: 2 producers PutAll 32 items, 2 consumers TakeBatchContext up
//     to 32, on New(Segmented()). It exercises segq's multi-cell claim and
//     bypasses dual-queue nodes and per-item parking.
//   - executor: open loop. One generator submits Poisson arrivals at 20 000
//     tasks/s from a schedule drawn from the seed. It paces by yielding,
//     never by sleeping. Each arrival is a SubmitContext with a 100 ms
//     deadline into a cached pool (MaxWorkers 64, BlockWithDeadline) over
//     New[pool.Task](Fair(true)); each task spins 20 µs. This is the
//     paper's Fig. 6, below the knee of a 2-CPU host. It exercises pool
//     admission, spawn and dispatch over the timed Offer/PollWait hand-off.
//
// # End-to-end metrics (--trace 0)
//
// A run sets up the workload 1001 times, then warms up for a tenth of
// --seconds and measures for --seconds. Two metrics are gated:
//
//   - alloc_bytes_per_op: heap bytes allocated per item or arrival in the
//     measured phase (runtime.MemStats.TotalAlloc).
//   - setup_s: the time to build the queue or pool and start its
//     goroutines, up to the first completed hand-off as the receiver
//     clocks it. It is the first quartile of the 1001 set-ups, the median
//     of the faster half. One set-up takes one of two times, depending on
//     whether its goroutines start on the running CPU or must wake the
//     idle one, and the share of each moves from run to run: over twelve
//     runs the first quartile spread 11-17% where the median spread
//     15-30%. Work added to set-up moves every set-up, so it still shows.
//     The median and p90 are diagnostics.
//
// Speed is reported but not gated:
//
//   - throughput_per_s: items (tasks) delivered per second, the median of
//     1 s windows.
//   - latency_p50_us, latency_p90_us, latency_p99_us, latency_p99.9_us:
//     delivery latency, the tail percentiles with the count of samples
//     beyond them. For the hand-off workloads it runs from the producer's
//     call entry to the consumer's return with the item, for one item in
//     64. For the executor it runs from each task's due time to the start
//     of its body, so generator stalls count; a task that failed counts as
//     late by its whole deadline.
//
// Speed cannot hold a bound on the shared 2-vCPU host of the baseline
// below. A pure integer loop there has a 16% quartile spread over ten
// 10 s runs. Hand-off throughput and latency drop by up to 30% during host
// phases that last for minutes, and two back-to-back sets of ten runs
// differed by that much. A bound that noise cannot cross would hide any
// real change, so speed is left to paired runs: alternate the parent and
// the change, and read the ungated rows of -compare.
//
// attempted counts the items sent (arrivals offered); failed counts those
// not delivered or delivered wrong, and for the executor the rejected,
// expired and shed tasks. A timed poll or offer that expires and is
// retried is part of the timed-fanout protocol, not a failure; its rate is
// a diagnostic and the per-layer core.timeouts_per_kop.
//
// # Per-layer metrics (--trace 1)
//
// The traced run spends a fifth of --seconds measuring the workload
// untraced, a fifth measuring it traced, and half on the layer ladder.
// Traced means Instrument is attached to the queue and calls into the
// layers are recorded as spans (name, id, parent, start_ns, end_ns): one
// hand-off call in 64, one PutAll or TakeBatch in 2, one executor
// submission and one idle worker poll in 8. Spans stay in memory and are
// written to --spans (default .bench_build/spans-<workload>.jsonl) when
// the run ends; a span's self time, its duration less what its children
// cover, is a diagnostic.
//
// The ladder runs the same closed-loop hand-off at 1 pair (.p1) and 4
// pairs (.p4), one rung per public constructor: core.NewDualQueue; synchq
// New(Fair(true)); metrics, adding Instrument; shard, adding AutoShard;
// exchanger, NewEliminatingQueue with EliminatingAdaptive; segq.New; and
// synchq_segq, New(Segmented()). A pool rung runs closed-loop Submit to a
// cached pool over New(Fair(true)), timing one submission in 8. A layer's
// tax is its rung's ns per transfer minus the rung below it.
// park.roundtrip_ns ping-pongs two goroutines through internal/park.
//
// Counter metrics (per 1000 items, or ratios) come from the traced
// workload phase. The core.* counters count the events of the core the
// workload runs on: the dual queue, or segq on batch.
//
// Which end-to-end metric, gated or reported, each layer metric should
// move, and where:
//
//   - core.ns_per_transfer, core.allocs_per_transfer.p1,
//     core.cas_fail_per_kop, core.clean_sweeps_per_kop,
//     core.timeouts_per_kop, core.node_reuse_ratio: throughput_per_s and
//     latency_p90_us on pair and timed-fanout, alloc_bytes_per_op on pair;
//     no change on batch.
//   - synchq.tax_ns, synchq.put_ns_p50/p90, synchq.take_ns_p50/p90:
//     throughput_per_s on pair; synchq.seg_tax_ns the same on batch. No
//     change on executor, where the hand-off is a small share of a task.
//   - park.roundtrip_ns, park.parks_per_kop, park.unparks_per_kop,
//     park.spins_per_kop: throughput_per_s on pair, latency_p90_us on
//     executor; no change on batch.
//   - metrics.tax_ns: throughput_per_s on timed-fanout; no change on pair
//     and batch.
//   - shard.tax_ns, shard.steal_ratio, shard.probe_miss_ratio,
//     shard.width_changes, shard.width_end: throughput_per_s on
//     timed-fanout; no change on the other three.
//   - segq.ns_per_transfer, segq.allocs_per_transfer.p1,
//     segq.seg_unlinks_per_kop, segq.batch_fill: throughput_per_s and
//     alloc_bytes_per_op on batch; no change on pair.
//   - exchanger.tax_ns, exchanger.elim_hit_ratio: none. No workload uses
//     elimination, so removing it must leave every end-to-end metric
//     unchanged.
//   - pool.tax_ns, pool.submit_ns_p50/p90, pool.dispatch_ns_p50/p90,
//     pool.handoff_ratio, pool.spawned: latency_p90_us and failures on
//     executor; no change on the hand-off workloads.
//   - trace.overhead: the untraced over the traced workload throughput,
//     minus 1; the cost of tracing itself, gating nothing.
//
// # Baseline
//
// The first baseline was measured with the command in BENCHMARK.json on a
// shared 2-vCPU Linux VM (nproc 2, GOMAXPROCS 2, go1.24.0), --seconds 10,
// in two back-to-back sets of ten seeds (3000-3009, 4000-4009). Medians
// of the 20 runs, with the range of the ungated speed rows:
//
//	workload      alloc B/op  setup µs  throughput/s          p90 µs
//	pair              64.0      1.30    1.66 M (1.37-2.09 M)   1.07 (0.85-1.20)
//	timed-fanout     113.5     17.1     0.74 M (0.62-0.78 M)  17.2 (16.1-20.9)
//	batch            154.7      6.55    4.04 M (3.63-4.29 M)   7.63 (6.86-11.4)
//	executor         536.6      1.66    20.0 k (open loop)    43.1 (39.3-44.9)
//
// Between the two sets, -compare found every gated row same, better or
// unresolved, and none worse. The median alloc_bytes_per_op moved by at
// most 0.1% and setup_s by at most 5.6%. The ungated pair throughput fell
// 21% and its p90 rose 26% between the sets, from host noise alone.
//
// One traced run (seed 11) at 1 pair, in ns per transfer: core 534,
// synchq 613, +Instrument 592, +AutoShard 884, +EliminatingAdaptive 948;
// segq 578, New(Segmented()) 523; the pool rung 2378, at 3.0 allocations
// per task against 1.0 for the dual queue and 0.06 for segq. At this
// width, AutoShard adds about 300 ns and one allocation per transfer.
//
// sqbench and the BENCH_*.json files stay as they are until the ROADMAP
// layer-ladder consolidation folds their loops into this kernel.
package main
