# Tier-1 gate: everything `make check` runs must pass before a change
# lands. CI and the pre-merge driver run exactly this target.
.PHONY: check lint vet fmt build test sqperf race bench-overhead bench-smoke bench-all bench-scaling bench-batch bench-latency bench-executor stress soak soak-short

check: lint build test sqperf race bench-smoke bench-scaling bench-batch bench-latency bench-executor soak-short

# Static tier: vet plus a gofmt cleanliness check (gofmt -l prints the
# offending files; grep inverts that into a pass/fail).
lint: vet fmt

vet:
	go vet ./...

fmt:
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then \
		echo "gofmt: files need formatting:"; echo "$$out"; exit 1; fi

build:
	go build ./...

test:
	go test ./...

# The committed benchmark (cmd/sqperf) is its own module, which the root
# `./...` patterns skip; vet and test it separately so a cut to the
# exported API cannot break the benchmark unnoticed.
sqperf:
	cd cmd/sqperf && go vet ./... && go test ./...

# Race pass in short mode over the concurrent internals: the stress-to-
# verify bridge, cancel storms, and metrics integration tests all shrink
# their iteration counts under -short so the race detector finishes fast.
race:
	go test -race -short ./internal/...

# Paired-handoff cost of the instrumentation layer, disabled vs enabled.
bench-overhead:
	go test -run - -bench MetricsOverhead -count 5 ./internal/core/

# Allocation smoke gate: the core budget test fails if a steady-state
# hand-off allocates more than its measured steady state (one per pair on
# the queues, two on the stack and the exchanger — an escaping waiter in
# the shared wait loop shows up here), the segmented budget test fails if
# a segq transfer stops amortizing its segment allocation or a batch
# grows per-item bookkeeping on the heap, the fabric budget test fails if
# a hand-off through the shard fabric (one shard or self-scaling, over
# each core) allocates anything beyond the bare core's budget, the pool
# tests fail if the task envelope leaves the 48-byte class or an accepted
# task on the executor's hand-off path costs more heap bytes than the
# envelope, its dispatch wrapper and the worker's queue node, and the
# short benchmark run prints the allocs/op figures for eyeballing
# regressions.
bench-smoke:
	go test -run TestHandoffAllocBudget -count 1 ./internal/core/
	go test -run TestSegmentedAllocBudget -count 1 ./internal/segq/
	go test -run TestFabricAllocBudget -count 1 ./internal/shard/
	go test -run 'TestEnvelopeSize|TestHandoffAllocBudget' -count 1 -v ./pool/
	go test -run - -bench BenchmarkHandoffAllocs -benchtime 100x -benchmem ./internal/core/

# Scaling smoke gate: a short producer×consumer sweep reduced (via -cores)
# to the three headline series — plain fair queue, sharded+adaptive fair
# queue, segmented core — so CI gates quickly. The -gate check is coarse
# (no-regression, with a bounded-overhead fallback on single-CPU hosts —
# sharding has nothing to win there); the committed BENCH_scaling.json is
# regenerated over the full series set with the longer settings in its
# header (see bench-all).
bench-scaling:
	go run ./cmd/sqbench -figure scaling -transfers 3000 -repeats 2 -levels 1,4,8 \
		-cores queue,queue+shard+elim,seg,auto -quiet -gate

# Batched hand-off gate: k-item batch ops vs k single ops on the two gated
# cores (seg's multi-cell claim, transfer's burst splice), reduced to the
# baseline and headline batch sizes so CI gates quickly. The -gate floors
# are host-aware: ≥25% lower ns/item at k=8 on multicore hosts; on a
# single-CPU host the seg floor demands a clear win (its saving is
# park/unpark amortization, which survives, but the margin is scheduler
# noise) while the transfer floor only bounds the overhead (its saving is
# tail-CAS contention, which a single CPU cannot exhibit). The committed
# BENCH_batch.json is regenerated over the full sweep by bench-all.
bench-batch:
	go run ./cmd/sqbench -figure batch -transfers 3000 -repeats 2 -levels 1,8 \
		-cores seg,transfer -quiet -gate

# Regenerate the four committed report artifacts (BENCH_scaling.json,
# BENCH_batch.json, BENCH_latency.json, BENCH_executor.json) in one pass,
# each with the settings recorded in its committed header, printing
# per-figure headline deltas against the files being replaced. Run on a
# quiet host; commit the refreshed artifacts together with the delta
# summary in the PR body. Hand-off allocation figures have no artifact:
# bench-smoke prints and gates them.
bench-all:
	go run ./cmd/sqbench -artifacts

# Latency-observability gate: single-pair hand-off with the histograms off
# vs on, interleaved repeats, min-of-repeats. The -gate check enforces the
# metrics-on overhead budget (10%, relaxed on single-CPU hosts where the
# baseline's own run-to-run spread exceeds the budget); the committed
# BENCH_latency.json is regenerated with `sqbench -figure latency -json`.
bench-latency:
	go run ./cmd/sqbench -figure latency -transfers 20000 -repeats 7 -quiet -gate

# Executor-tier gate: the bursty RPC-frontend macro-benchmark (steady leg,
# overload burst, graceful drain) over both production shapes. The -gate
# check is host-independent — the conservation ledger must balance exactly,
# both legs must complete work, the burst must actually shed or reject, and
# no worker may outlive the drain. The committed BENCH_executor.json is
# regenerated with `sqbench -figure executor -json`.
bench-executor:
	go run ./cmd/sqbench -figure executor -transfers 4000 -quiet -gate

# Quick instrumented stress pass across every timed algorithm.
stress:
	go run ./cmd/sqstress -all -metrics -duration 2s

# Short property-declared chaos leg, race-enabled: the whole core × option
# matrix runs the full scenario library at 300ms per scenario under
# deterministic fault injection, and the verdict table must be all-pass —
# every always-invariant holds, every sometimes-event fired, every fault
# site was reached. A failing row makes the exit nonzero and prints a
# copy-pasteable replay command; the fixed seed makes CI failures
# replayable verbatim on a laptop.
soak-short:
	go run -race ./cmd/sqstress -chaos -seed 1 -scenario-duration 300ms \
		-producers 4 -consumers 4 -procs 8

# Long chaos soak for hunting new schedules: 2s per scenario, fresh seed
# per run, JSON verdicts kept for the record. Replay any failing cell with
# the replay line it prints.
soak:
	go run -race ./cmd/sqstress -chaos -seed $$RANDOM -scenario-duration 2s \
		-producers 4 -consumers 4 -procs 8 -json soak-verdicts.json
