# Tier-1 gate: everything `make check` runs must pass before a change
# lands. CI and the pre-merge driver run exactly this target.
.PHONY: check lint vet fmt nopool build test sqperf race synctest mutants bench-overhead bench-smoke bench-all bench-scaling bench-batch bench-latency bench-executor stress soak soak-short frames

check: lint build test sqperf race synctest mutants bench-smoke bench-scaling bench-batch bench-latency bench-executor soak-short

# Static tier: vet, a gofmt cleanliness check (gofmt -l prints the
# offending files; grep inverts that into a pass/fail), and nopool.
lint: vet fmt nopool

vet:
	go vet ./...

fmt:
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then \
		echo "gofmt: files need formatting:"; echo "$$out"; exit 1; fi

# No sync.Pool in non-test Go outside cmd/: the hand-off structures keep
# only what is live (spare slots, index tables, GC-only nodes), and a pool
# drops Puts under -race, which would widen the allocation budgets there.
nopool:
	@out=$$(grep -rl --include='*.go' --exclude='*_test.go' 'sync\.Pool' . | grep -v '^\./cmd/'); \
		if [ -n "$$out" ]; then echo "nopool: sync.Pool in non-test code:"; echo "$$out"; exit 1; fi

build:
	go build ./...

test:
	go test ./...

# The committed benchmark (cmd/sqperf) is its own module, which the root
# `./...` patterns skip; vet and test it separately so a cut to the
# exported API cannot break the benchmark unnoticed.
sqperf:
	cd cmd/sqperf && go vet ./... && go test ./...

# Race pass in short mode over the facade, the concurrent internals and
# the executor tier: the root package owns the derived forms and the
# elimination front-end, the stress-to-verify bridge, cancel storms, and
# metrics integration tests all shrink their iteration counts under -short
# so the race detector finishes fast. Every allocation budget holds here
# as without -race: nothing on the hand-off path recycles through a
# sync.Pool, which would drop Puts under -race (make nopool).
race:
	go test -race -short . ./internal/... ./pool/

# testing/synctest tests, built only with GOEXPERIMENT=synctest: takers
# parked inside a bubble must leave no bubbled channel behind for a queue
# outside it.
synctest:
	GOEXPERIMENT=synctest go test -run 'TestBubbledParksStayInTheirQueue' -count 1 .

# Reverted-fix mutant gate (internal/mutants): each catalogued mutant
# re-introduces a bug a past fix removed, compiled through `go test
# -overlay` with the tree untouched, and the named tests must fail in at
# least one of its runs. A mutant that does not compile counts as broken,
# not killed; a snippet that no longer matches its file fails the run
# before anything is built (and TestCatalogSnippetsApply fails in `make
# test`). About 50 s on a 2-CPU host with a warm build cache.
mutants:
	go run ./internal/mutants

# Paired-handoff cost of the instrumentation layer, disabled vs enabled.
bench-overhead:
	go test -run - -bench MetricsOverhead -count 5 ./internal/core/

# Allocation smoke gate: the core budget test fails if a steady-state
# hand-off allocates more than its measured steady state (one per pair on
# the queues, two on the stack and the exchanger — an escaping waiter in
# the shared wait loop shows up here) or more heap bytes than its nodes
# (16 per pair on the queues, 64 on the stack, 48 on the exchanger, whose
# values ride in its two nodes; the same under -race), the
# layout pins fail if a node, cell or segment changes size or a contended
# word moves onto a shared line, the parker-table tests fail if an index
# stops mapping back to its parker, is lent to two borrowers at once, or
# the table issues more parkers than its peak of concurrent borrowers,
# the segmented budget test fails if
# a segq transfer stops amortizing its segment allocation (14 B per
# transfer: 64 one-word cells in the 896-byte size class) or a batch grows
# per-item bookkeeping on the heap or a second result slice, the
# segmented build test fails if a Segmented() queue's build outgrows 10
# allocations or 2100 B (a prebuilt spare segment would), the fabric budget test fails if
# a hand-off through the shard fabric (one shard or self-scaling, over
# each core) allocates anything beyond the bare core's budget, the pool
# envelope tests fail if the recycled task envelope outgrows 64 bytes, a
# shed task's still-buffered wrapper runs or lets its envelope be reused
# early, or an accepted task on the executor's hand-off path costs more
# heap bytes than the worker's 16-byte queue node plus refill slack (24),
# the metrics handle layout test fails if an idle handle carries
# histogram bytes or its counters stop sitting dense (376 bytes, the
# 384-byte size class; a line per counter made it 2000), the
# instrumented core rows fail if a histogram is built more than once
# rather than on its first record, the instrumented build test fails if
# an instrumented AutoShard fair queue allocates more than its measured
# bytes plus 512 (2416 at GOMAXPROCS 2, 2464 at GOMAXPROCS 8: lane 0 and
# a header; building every lane up front made them 3832 and 11992) or
# makes more than 20 allocations (17 measured), the first-hand-off stack probe
# fails if a fresh goroutine's first AutoShard put through its spin
# phase, AutoShard take or put meeting a waiting counterpart, fair queue
# match, fair queue take that parks ("fair Take parks"), segmented-queue
# PutAll that parks ("seg PutAll parks") or segmented-queue
# TakeBatchContext meeting that parked PutAll ("seg TakeBatchContext
# meets a parked PutAll") copies its 2-KB starting stack below 256 B of
# caller frames, or if those caller frames are no longer 256 B (it logs
# the ungated rows with their reasons: the timed facades, parked waits on
# the AutoShard and unfair queues, the segmented queue's single-item and
# consumer-parks-first rows, and the unfair queue's match rows), and
# the short benchmark runs print the allocs/op figures of a pair hand-off
# and of building each queue configuration (BenchmarkNew) for eyeballing
# regressions.
bench-smoke:
	go test -run TestHandoffAllocBudget -count 1 ./internal/core/
	go test -run 'Layout|QuarterLine' -count 1 ./internal/core/ ./internal/segq/ ./internal/exchanger/ ./internal/metrics/
	go test -run 'TestInstrumentedBuildBytes|TestSegmentedBuildBytes|TestFirstHandoffStack' -count 1 -v .
	go test -run 'Table' -count 1 ./internal/lend/ ./internal/park/
	go test -run TestSegmentedAllocBudget -count 1 ./internal/segq/
	go test -run TestFabricAllocBudget -count 1 ./internal/shard/
	go test -run 'Envelope|TestHandoffAllocBudget' -count 1 -v ./pool/
	go test -run - -bench BenchmarkHandoffAllocs -benchtime 100x -benchmem ./internal/core/
	go test -run - -bench BenchmarkNew -benchtime 1000x -benchmem .

# Frame report, not a gate: the stack frame (locals= from a -gcflags=-S
# build of the root test binary, plus 8 for the return address) of each
# function on the chains TestFirstHandoffStack probes, at the int64 shape
# the probe uses. A fresh goroutine can use about 1.1 KB of its 2-KB
# starting stack, so a frame that grows here shows where a first hand-off
# will start to copy its stack, without a probe run.
FRAMES_RE = firstOp$$|SynchronousQueue\[go\.shape\.int64\]\)\.(Put|Take|PutAll|TakeBatchContext|OfferTimeout|PollTimeout)$$|Fabric\[go\.shape\.int64\]\)\.(Put|Take)Deadline$$|(DualQueue|DualStack)\[go\.shape\.int64\]\)\.(PutDeadline|TakeDeadline|transfer|engage|engageWait|arrive|await)$$|segq\.\(\*Queue\[(go\.shape\.)?int64\]\)\.(PutBatch|TakeBatch|PutDeadline|TakeDeadline|putBatch|putRun|takeBatch|fill|transfer|claim|findSeg)$$|segq\.\(\*Ticket\[go\.shape\.int64\]\)\.(arrive|Await)$$|park\.Await\[(.*int64|go\.shape\.struct \{ synchq/internal/(core\.s|segq\.c) )|park\.\(\*Parker\)\.(block|wait|Unpark)$$|park\.\(\*Table\)\.(Wake|Lend)$$

frames:
	@go test -c -o /dev/null -gcflags='synchq/...=-S' . 2>&1 | awk ' \
		function hex(s, i, n) { n = 0; s = tolower(substr(s, 3)); \
			for (i = 1; i <= length(s); i++) n = n * 16 + index("0123456789abcdef", substr(s, i, 1)) - 1; return n } \
		/ STEXT / { name = substr($$0, 1, index($$0, " STEXT") - 1); \
			for (i = 2; i <= NF; i++) if ($$i ~ /^locals=/) { split($$i, a, "="); print hex(a[2]) + 8 "\t" name } }' | \
		grep -E '$(FRAMES_RE)' | sed -E 's#synchq/internal/##g; s#go\.shape\.struct \{ ([a-z]+\.[a-z]+) [^}]*\}#\1 …#' | \
		sort -t '	' -k2 -u | sort -t '	' -k2

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
