package main

// catalog lists the gate's mutants. Each one undoes a fix the code relies
// on; Runs is sized so that a mutant whose killer is probabilistic is
// still killed in at least one run (EXPERIMENTS.md records the measured
// rates).
var catalog = []Mutant{
	{
		Name:    "result sized before the claim",
		Reverts: "TakeBatch sizes its result after claiming the fill's first run",
		File:    "internal/segq/batch.go",
		Snippet: `	var base, k uint64
	if max > 1 {
		base, k, st = q.takeRun(max - 1)
	}
	if buf == nil {
		buf = make([]T, 0, 1+k) // makeslice runs shallower than Grow's growslice
	} else {
		buf = slices.Grow(buf, 1+int(k))
	}
`,
		Replace: `	room := 0
	if avail := int64(q.putc.Load() - q.takec.Load()); max > 1 && avail > 0 {
		room = int(min(avail, int64(max-1)))
	}
	if buf == nil {
		buf = make([]T, 0, 1+room)
	} else {
		buf = slices.Grow(buf, 1+room)
	}
	var base, k uint64
	if max > 1 {
		base, k, st = q.takeRun(max - 1)
	}
`,
		Pkg:  "./internal/segq",
		Run:  "TestTakeBatchSizesAfterItsClaim$",
		Runs: 3,
	},
	{
		Name:    "16-cell segments",
		Reverts: "64-cell segments that fill their size class",
		File:    "internal/segq/segq.go",
		Snippet: "\tsegShift = 6\n",
		Replace: "\tsegShift = 4\n",
		Pkg:     "./internal/segq",
		Run:     "TestQuarterLineCellsRemapped$|TestSegmentedAllocBudget$",
		Runs:    2,
	},
	{
		Name:    "prebuilt spare",
		Reverts: "New builds no spare segment",
		File:    "internal/segq/segq.go",
		Snippet: "\tq.parkers.Reserve()\n",
		Replace: "\tq.parkers.Reserve()\n\tq.spare.Store(&segment[T]{})\n",
		Pkg:     "./internal/segq",
		Run:     "TestSpareSlot$",
		Runs:    2,
	},
	{
		Name:    "stack spare linked",
		Reverts: "the dual stack's spare slot keeps only never-linked nodes",
		File:    "internal/core/dualstack.go",
		Snippet: "q.putSpare(f) // fulfill spare from an earlier lap, never linked\n",
		Replace: "q.putSpare(f)\n\t\t\tq.putSpare(s)\n",
		Pkg:     "./internal/core",
		Run:     "TestDualStackSparePooling$",
		Runs:    3,
	},
	{
		Name:    "Arm by blind Store",
		Reverts: "a segq waiter arms its parker by CAS from the bare installed word",
		File:    "internal/segq/segq.go",
		Snippet: "\tw.c.CompareAndSwap(installed, installed|(idx+1))\n",
		Replace: "\tw.c.Store(installed | (idx + 1))\n",
		Pkg:     "./internal/segq",
		Run:     "TestResolveBeforeArm$",
		Runs:    3,
	},
	{
		Name:    "resolver wakes no one",
		Reverts: "a segq resolver wakes the parker packed in the word its CAS replaced",
		File:    "internal/segq/segq.go",
		Snippet: "func parkerOf(w uint32) uint32 { return w & idxMask }\n",
		Replace: "func parkerOf(w uint32) uint32 { return 0 }\n",
		Pkg:     "./internal/segq",
		Run:     "TestCloseWakesArmedWaiter$",
		Runs:    2,
	},
	{
		Name:    "Close without the fabric mutex",
		Reverts: "an AutoShard fabric's Close holds the mutex lane building holds",
		File:    "internal/shard/shard.go",
		Snippet: "func (f *Fabric[T]) Close() {\n\tf.mu.Lock()\n\tdefer f.mu.Unlock()\n",
		Replace: "func (f *Fabric[T]) Close() {\n",
		Pkg:     "./internal/shard",
		Run:     "TestLaneBuildCloseStorm$",
		Runs:    3,
	},
	{
		Name:    "grow ignores closed",
		Reverts: "a fabric builds no lane once Close has run",
		File:    "internal/shard/adaptive.go",
		Snippet: "\t\tif f.closed.Load() {\n\t\t\treturn // Close has run: build nothing it has not closed\n\t\t}\n",
		Replace: "",
		Pkg:     "./internal/shard",
		Run:     "TestLaneBuildCloseStorm$",
		Runs:    3,
	},
	{
		Name:    "mask before the lane",
		Reverts: "a fabric widens its routing mask only after building the lanes",
		File:    "internal/shard/adaptive.go",
		Snippet: "\t\tf.build(to)\n\t\tf.wmask.Store(int32(to - 1))\n",
		Replace: "\t\tf.wmask.Store(int32(to - 1))\n\t\tf.build(to)\n",
		Pkg:     "./internal/shard",
		Run:     "TestLaneBuildCloseStorm$",
		Runs:    3,
	},
	{
		Name:    "histogram installed by Store",
		Reverts: "a lazily built histogram is published by CAS",
		File:    "internal/metrics/latency.go",
		Snippet: "\tif slot.CompareAndSwap(nil, g) {\n\t\treturn g\n\t}\n\treturn slot.Load()\n",
		Replace: "\tslot.Store(g)\n\treturn g\n",
		Pkg:     "./internal/metrics",
		Run:     "TestLazyInstallRace$",
		Runs:    3,
	},
	{
		Name:    "box returned before it is read",
		Reverts: "the dual queue reads and scrubs a value box before returning it",
		File:    "internal/core/dualqueue.go",
		Snippet: "\tv = *b\n\t*b = *new(T)\n\tq.boxes.Return(x - 1)\n",
		Replace: "\tq.boxes.Return(x - 1)\n\tv = *b\n\t*b = *new(T)\n",
		Pkg:     "./internal/core",
		Run:     "TestBoxStorm$",
		Runs:    3,
		Race:    true,
	},
	{
		Name:    "box returned unscrubbed",
		Reverts: "the dual queue scrubs a value box before returning it",
		File:    "internal/core/dualqueue.go",
		Snippet: "\tv = *b\n\t*b = *new(T)\n\tq.boxes.Return(x - 1)\n",
		Replace: "\tv = *b\n\tq.boxes.Return(x - 1)\n",
		Pkg:     "./internal/core",
		Run:     "TestBoxesRetainNoUserValues$",
		Runs:    3,
	},
	{
		Name:    "observe without dead-front help",
		Reverts: "DualQueue.observe dequeues canceled front nodes before it classifies",
		File:    "internal/core/dualqueue.go",
		Snippet: "\t\tif !isCancelled(n) {\n\t\t\td := t.isData()\n\t\t\treturn d, !d\n\t\t}\n\t\tif q.advanceHead(h, n) {\n\t\t\tq.m.Inc(metrics.CleanSweeps)\n\t\t}\n",
		Replace: "\t\tif !isCancelled(n) {\n\t\t\td := t.isData()\n\t\t\treturn d, !d\n\t\t}\n\t\treturn false, false\n",
		Pkg:     "./internal/core",
		Run:     "TestObserveSeesPastCanceledFrontNode$",
		Runs:    3,
	},
	{
		Name:    "envelope count starts at 1",
		Reverts: "a pool task envelope starts with two references, its fate and its dispatch",
		File:    "pool/pending.go",
		Snippet: "\tenv.refs = 2\n",
		Replace: "\tenv.refs = 1\n",
		Pkg:     "./pool",
		Run:     "TestEnvelopeTombstoneNeverRuns$",
		Runs:    3,
	},
	{
		Name:    "histogram built on every record",
		Reverts: "a histogram is built once, on its first record",
		File:    "internal/metrics/latency.go",
		Snippet: "\tif g := slot.Load(); g != nil {\n\t\treturn g\n\t}\n\tg := new(Histogram)\n",
		Replace: "\tg := new(Histogram)\n",
		Pkg:     "./internal/core",
		Run:     "TestHandoffAllocBudget$",
		Runs:    2,
	},
	{
		Name:    "Histograms installs",
		Reverts: "reading a handle's histograms installs none",
		File:    "internal/metrics/latency.go",
		Snippet: "\t\tif g := h.hist[i].Load(); g != nil {\n\t\t\ts[i] = g.Snapshot()\n\t\t}\n",
		Replace: "\t\ts[i] = h.histogram(HistID(i)).Snapshot()\n",
		Pkg:     "./internal/metrics",
		Run:     "TestLazyInstallRace$",
		Runs:    2,
	},
	{
		Name:    "stack observe without dead-top help",
		Reverts: "DualStack.observe pops a dead top before it classifies",
		File:    "internal/core/dualstack.go",
		Snippet: "\t\t\tif q.head.CompareAndSwap(h, h.next.Load()) {\n\t\t\t\tq.m.Inc(metrics.CleanSweeps)\n\t\t\t}\n\t\t\tcontinue\n\t\t}\n\t\tswitch h.mode &^ modeFulfilling {\n",
		Replace: "\t\t\treturn false, false\n\t\t}\n\t\tswitch h.mode &^ modeFulfilling {\n",
		Pkg:     "./internal/core",
		Run:     "TestStackObserveSeesPastDeadTop$",
		Runs:    2,
	},
	{
		Name:    "transfer drops the unpark",
		Reverts: "DualQueue.transfer unparks the waiter engage fulfilled",
		File:    "internal/core/dualqueue.go",
		Snippet: "\t\t\tq.parkers.At(w - 1).Unpark()\n\t\t}\n\t}\n\tq.arrived(t0, e, st, async)\n",
		Replace: "\t\t\t_ = w\n\t\t}\n\t}\n\tq.arrived(t0, e, st, async)\n",
		Pkg:     "./internal/core",
		Run:     "TestLentParkerStorm$",
		Runs:    1,
	},
	{
		Name:    "Close reported as a timeout",
		Reverts: "a wait Close evicted reports Closed",
		File:    "internal/core/core.go",
		Snippet: "\tcase o == park.Evicted:\n\t\treturn Closed\n",
		Replace: "",
		Pkg:     "./internal/segq",
		Run:     "TestTicketClosedWhileWaiting$",
		Runs:    2,
	},
}

// retired lists mutants the current code cannot express.
var retired = []Retired{
	{
		Name: "segq waiter word before CAS",
		Why:  "a segq cell is one word: a resolver wakes the index held in the word its own CAS replaced, and there is no second word to load early",
	},
}
