package synchq

import (
	"context"
	"debug/elf"
	"fmt"
	"os"
	"os/exec"
	"regexp"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"synchq/internal/metrics"
)

// A goroutine starts on a 2-KB stack, and a call chain that outgrows it
// copies the whole stack to a larger one: several microseconds on a fresh
// worker's first hand-off, paid inside every benchmark set-up.
// TestFirstHandoffBudget checks each first hand-off's depth statically: it
// reads every frame on the hand-off's call chain, the runtime's included,
// from this test binary's own disassembly and applies the runtime's
// stack-growth rule ($GOROOT/src/cmd/internal/obj/x86/obj6.go, stacksplit;
// $GOROOT/src/runtime/stack.go). A function's prologue compares SP, less
// what its frame reaches below StackSmall, with the stack guard, and
// copies the stack when that is at or below the guard.

const (
	startStack = 2048 // runtime stackMin: a new goroutine's stack
	stackGuard = 928  // runtime stackGuard on linux/amd64: stackNosplit 800 + StackSmall 128
	// stackTop is what newproc1 leaves above a goroutine's first frame:
	// 32 B, less the 8-B goexit frame that callerFrames counts.
	stackTop = 24
	// callerFrames is the stack a load generator's goroutine holds above
	// its facade call: goexit (8 B), the go statement's wrapper (40 B) and
	// a 208-B body.
	callerFrames = 256
)

// A chain lists the functions a first hand-off runs, from the facade
// method down to the runtime's tail, in the binary's names less
// "synchq/internal/" (a shape struct shortened to its first field and
// "…"). A "*" marks a callee reached through an interface method or a
// closure; a "~" marks a facade method that inlines into its caller, so
// it has no frame and must have no out-of-line body here.
var (
	facadePut  = "~synchq.(*SynchronousQueue[go.shape.int64]).Put"
	facadeTake = "~synchq.(*SynchronousQueue[go.shape.int64]).Take"
	queueWait  = chain("core.(*DualQueue[go.shape.int64]).await", "park.Await[core.s *core.qnode…]")
	fairPut    = chain(facadePut, "*core.(*DualQueue[int64]).PutDeadline", "core.(*DualQueue[go.shape.int64]).transfer")
	fairTake   = chain(facadeTake, "*core.(*DualQueue[int64]).TakeDeadline", "core.(*DualQueue[go.shape.int64]).transfer")

	fabricPut  = chain("*shard.(*Fabric[int64]).PutDeadline", "shard.(*Fabric[go.shape.int64]).PutDeadline", "*core.(*DualQueue[int64]).PutCommit", "core.(*DualQueue[go.shape.int64]).transfer")
	fabricTake = chain("*shard.(*Fabric[int64]).TakeDeadline", "shard.(*Fabric[go.shape.int64]).TakeDeadline", "*core.(*DualQueue[int64]).TakeCommit", "core.(*DualQueue[go.shape.int64]).transfer")
	autoOffer  = chain("synchq.(*SynchronousQueue[go.shape.int64]).OfferTimeout", fabricPut)
	autoPoll   = chain("synchq.(*SynchronousQueue[go.shape.int64]).PollTimeout", fabricTake)
	elimPut    = chain(facadePut, "*synchq.(*elimFront[int64]).PutDeadline", "synchq.(*elimFront[go.shape.int64]).PutDeadline", fabricPut)
	elimTake   = chain(facadeTake, "*synchq.(*elimFront[int64]).TakeDeadline", "synchq.(*elimFront[go.shape.int64]).TakeDeadline", fabricTake)

	stackPut   = chain(facadePut, "*core.(*DualStack[int64]).PutDeadline", "core.(*DualStack[go.shape.int64]).transfer")
	stackTake  = chain(facadeTake, "*core.(*DualStack[int64]).TakeDeadline", "core.(*DualStack[go.shape.int64]).TakeDeadline", "core.(*DualStack[go.shape.int64]).transfer")
	stackMatch = chain("core.(*DualStack[go.shape.int64]).arrive", "core.(*DualStack[go.shape.int64]).engageWait", "core.(*DualStack[go.shape.int64]).tryMatch")
	stackWait  = chain("core.(*StackTicket[go.shape.int64]).Await", "park.Await[core.q *core.DualStack[go.shape.int64]…]")

	segPut       = chain(facadePut, "*segq.(*Queue[int64]).PutDeadline", "segq.(*Queue[go.shape.int64]).transfer")
	segTake      = chain(facadeTake, "*segq.(*Queue[int64]).TakeDeadline", "segq.(*Queue[go.shape.int64]).TakeDeadline", "segq.(*Queue[go.shape.int64]).transfer")
	segAwait     = "park.Await[segq.c *sync/atomic.Uint32…]"
	segWait      = chain("segq.(*Ticket[go.shape.int64]).Await", segAwait)
	segPutAll    = chain("~synchq.(*SynchronousQueue[go.shape.int64]).PutAll", "*segq.(*Queue[int64]).PutBatch", "segq.(*Queue[go.shape.int64]).putBatch")
	segTakeBatch = chain("synchq.(*SynchronousQueue[go.shape.int64]).TakeBatchContext", "*segq.(*Queue[int64]).TakeBatch", "segq.(*Queue[go.shape.int64]).takeBatch")

	// Runtime tails. wake is an Unpark's send to a parked waiter: send
	// readies the receiver on the system stack, then runs chansend's
	// unlock closure on this one; the dual queue's transfer unparks
	// inline (fairWake). park is a plain receive that parks (gopark
	// switches stacks in mcall), cancel a cancelable wait's poll of its
	// cancel channel, selectPark the parker's select of a timed or
	// cancelable wait, clock a timed wait's reading of the clock.
	wake       = chain("park.(*Table).Wake", "runtime.selectnbsend", "runtime.chansend", "runtime.send", "*runtime.chansend.func1", "runtime.unlock2", "runtime.(*mLockProfile).recordUnlock")
	fairWake   = wake[1:]
	park       = chain("runtime.chanrecv1", "runtime.chanrecv", "runtime.gopark")
	cancel     = chain("runtime.selectnbrecv", "runtime.chanrecv", "runtime.empty")
	selectPark = chain("park.(*Parker).wait", "runtime.selectgo", "runtime.gopark")
	clock      = chain("time.Now", "time.runtimeNow")

	// The parker table's first chunk and a parker's first notifier, built
	// at the bottom of a first park, through the allocator's fast path.
	// Past it (a span refill, an allocation cache refilled from the span's
	// bitmap, an empty sudog cache) runs runtime code this budget does not
	// gate: it reaches several hundred bytes deeper than any first
	// hand-off can leave free.
	parkerChunk = chain("park.(*Table).Lend", "lend.(*Table[park.state sync/atomic.Uint32…]).Lend",
		"lend.(*Table[park.state sync/atomic.Uint32…]).grow", "runtime.makeslice", "runtime.mallocgc", "runtime.mallocgcSmallScanNoHeader")
	notifier = chain("park.(*Parker).attach", "runtime.makechan", "runtime.mallocgc", "runtime.mallocgcSmallNoscan")
)

// chain concatenates names and chains.
func chain(parts ...any) (c []string) {
	for _, p := range parts {
		if s, ok := p.(string); ok {
			c = append(c, s)
		} else {
			c = append(c, p.([]string)...)
		}
	}
	return c
}

// budgetRow is one first operation and the chains it runs. A gated row
// (why empty) also pins the allocations its operation makes on a fresh
// queue: first counts them, objects names them.
type budgetRow struct {
	name, why string
	chains    [][]string
	allocs    uint64
	objects   string
	first     func() uint64
}

// Reasons shared by logged rows.
const (
	timed  = "the timed facade is a frame of its own"
	single = "no benchmark workload runs single-item segmented hand-offs"
	stack  = "no benchmark set-up runs the dual stack"
)

var budgetRows = []budgetRow{
	{name: "autoshard Put, spin phase", chains: [][]string{chain(facadePut, fabricPut, queueWait)},
		objects: "none: lane 0's core builds its first box chunk and a spare node",
		first:   func() uint64 { return afterFirst(autoQueue(true), opPut, opTake, 1, false) }},
	{name: "autoshard Take meets a waiting Put", chains: [][]string{chain(facadeTake, fabricTake, fairWake)},
		objects: "none", first: func() uint64 { return meetFirst(autoQueue(false), opPut, opTake) }},
	{name: "autoshard Put meets a waiting Take", chains: [][]string{chain(facadePut, fabricPut, fairWake)},
		objects: "none", first: func() uint64 { return meetFirst(autoQueue(false), opTake, opPut) }},
	{name: "fair Take meets a waiting Put", chains: [][]string{chain(fairTake, fairWake)},
		objects: "none", first: func() uint64 { return meetFirst(fairQueue(), opPut, opTake) }},
	{name: "fair Put meets a waiting Take", chains: [][]string{chain(fairPut, fairWake)},
		objects: "none", first: func() uint64 { return meetFirst(fairQueue(), opTake, opPut) }},
	{name: "seg PutAll parks", chains: [][]string{chain(segPutAll, segAwait, park)},
		objects: "none: New builds the first segment, Reserve the parker table's first chunk and notifier",
		first:   func() uint64 { return afterFirst(segQueue(), opPutAll, opDrain, 2, true) }},
	{name: "seg TakeBatchContext meets a parked PutAll", chains: [][]string{chain(segTakeBatch, wake)},
		allocs: 1, objects: "the result slice", first: func() uint64 { return meetFirst(segQueue(), opPutAll, opTakeBatch) }},
	{name: "fair Take parks",
		chains: [][]string{chain(fairTake, queueWait, park), chain(fairTake, queueWait, parkerChunk), chain(fairTake, queueWait, notifier)},
		allocs: 5, objects: "the parker table's first chunk, its parkers and link words; the parker's notifier and channel",
		first: func() uint64 { return afterFirst(fairQueue(), opTake, opPut, 1, true) }},

	{name: "autoshard OfferTimeout, spin phase", chains: [][]string{chain(autoOffer, queueWait, clock)}, why: timed},
	{name: "autoshard PollTimeout meets a waiting Put", chains: [][]string{chain(autoPoll, fairWake)}, why: timed},
	{name: "autoshard OfferTimeout meets a waiting Take", chains: [][]string{chain(autoOffer, fairWake)}, why: timed},
	{name: "autoshard Take parks", chains: [][]string{chain(facadeTake, fabricTake, queueWait, park), chain(facadeTake, fabricTake, queueWait, parkerChunk)}, why: "the fabric's frames put the park short"},
	{name: "seg TakeBatchContext parks", chains: [][]string{chain(segTakeBatch, segWait, cancel), chain(segTakeBatch, segWait, selectPark)}, why: "the context makes the wait cancelable"},
	{name: "seg TakeBatchContext wakes a re-armed PutAll", chains: [][]string{chain(segTakeBatch, "segq.(*Queue[go.shape.int64]).fill", wake)}, why: "fill wakes a producer only if it armed a later cell before fill reached it"},
	{name: "seg Take meets a waiting Put", chains: [][]string{chain(segTake, wake)}, why: single},
	{name: "seg Put meets a waiting Take", chains: [][]string{chain(segPut, wake)}, why: single},
	{name: "seg Take parks", chains: [][]string{chain(segTake, segWait, park)}, why: single},
	{name: "unfair Take meets a waiting Put", chains: [][]string{chain(stackTake, stackMatch, wake)}, why: stack},
	{name: "unfair Put meets a waiting Take", chains: [][]string{chain(stackPut, stackMatch, wake)}, why: stack},
	{name: "unfair Take parks", chains: [][]string{chain(stackTake, stackWait, park), chain(stackTake, stackWait, parkerChunk)}, why: stack},
	{name: "eliminating Take meets a waiting Put", chains: [][]string{chain(elimTake, fairWake)}, why: "the elimination front-end is two frames of its own"},
	{name: "eliminating Put meets a waiting Take", chains: [][]string{chain(elimPut, fairWake)}, why: "the elimination front-end is two frames of its own"},
}

// fnFrame is what a function's disassembly says about its stack.
type fnFrame struct {
	size int // return address, saved BP and the SUBQ'd frame
	// reach is how far below SP at entry the split check compares: 0 for a
	// small frame, the frame less StackSmall for a large one, -1: NOSPLIT.
	reach    int
	calls    map[string]bool // direct callees, short names
	indirect bool            // calls through a register
}

var (
	shapeStruct = regexp.MustCompile(`go\.shape\.struct \{ (\w+\.\w+ [^;}]*)[^}]*\}`)
	leaReach    = regexp.MustCompile(`^LEAQ (-0x[0-9a-f]+|0xffff[0-9a-f]+)\(SP\), R12$`)
	subFrame    = regexp.MustCompile(`^(?:SUBQ \$|ADDQ \$-)(0x[0-9a-f]+), SP$`)
)

// shortName is a symbol's name as chains write it.
func shortName(sym string) string {
	return shapeStruct.ReplaceAllString(strings.ReplaceAll(sym, "synchq/internal/", ""), "$1…")
}

// readFrames disassembles the functions the chains name in this test
// binary.
func readFrames(t *testing.T, chains [][]string) map[string]*fnFrame {
	want, pats := map[string]bool{}, []string{}
	for _, c := range chains {
		for _, e := range c {
			if name := strings.TrimLeft(e, "*~"); !want[name] {
				want[name] = true
				base, _, _ := strings.Cut(name, "[")
				pats = append(pats, regexp.QuoteMeta(base))
			}
		}
	}
	bin := os.Args[0]
	if f, err := elf.Open(bin); err == nil && f.Section(".symtab") == nil {
		// go test strips the binaries it runs itself (go test -c and the
		// mutant gate's do not): link one with symbols, from the build
		// cache's packages.
		bin = t.TempDir() + "/synchq.test"
		if b, err := exec.Command("go", "test", "-c", "-o", bin, ".").CombinedOutput(); err != nil {
			t.Fatalf("go test -c: %v\n%s", err, b)
		}
	}
	out, err := exec.Command("go", "tool", "objdump", "-s", strings.Join(pats, "|"), bin).CombinedOutput()
	if err != nil {
		t.Fatalf("go tool objdump: %v\n%s", err, out)
	}
	frames := map[string]*fnFrame{}
	var f, n = (*fnFrame)(nil), 0
	for _, line := range strings.Split(string(out), "\n") {
		if sym, ok := strings.CutPrefix(line, "TEXT "); ok {
			sym, _, _ = strings.Cut(sym, "(SB)")
			f, n = nil, 0
			if name := shortName(sym); want[name] {
				if frames[name] != nil {
					t.Fatalf("%s names two functions", name)
				}
				f = &fnFrame{size: 8, reach: -1, calls: map[string]bool{}}
				frames[name] = f
			}
			continue
		}
		fields := strings.Split(strings.TrimRight(line, "\t"), "\t")
		if f == nil || len(fields) < 4 {
			continue
		}
		ins := strings.TrimSpace(fields[len(fields)-1])
		if n++; n <= 6 { // the prologue
			if m := leaReach.FindStringSubmatch(ins); m != nil {
				v, _ := strconv.ParseInt(m[1], 0, 64)
				f.reach = int(-int32(v)) // a 32-bit displacement
			} else if m := subFrame.FindStringSubmatch(ins); m != nil {
				v, _ := strconv.ParseInt(m[1], 0, 64)
				f.size += int(v)
			} else if ins == "CMPQ SP, 0x10(R14)" {
				f.reach = 0
			} else if ins == "PUSHQ BP" {
				f.size += 8
			}
		}
		if callee, ok := strings.CutPrefix(ins, "CALL "); ok {
			if sym, ok := strings.CutSuffix(callee, "(SB)"); ok {
				f.calls[shortName(sym)] = true
			} else if !strings.HasPrefix(callee, "0x") {
				f.indirect = true
			}
		}
	}
	return frames
}

// chainMargin walks c and returns the least margin of its split checks —
// the bytes the frames above one could still grow before it copies the
// stack — and the function holding it; stale reports an edge that is not
// in the disassembly.
func chainMargin(frames map[string]*fnFrame, c []string) (margin int, at, stale string) {
	used := stackTop + callerFrames // bytes above the next frame's return address
	margin = startStack
	var prev *fnFrame
	for _, e := range c {
		name := strings.TrimLeft(e, "*~")
		f := frames[name]
		switch {
		case e[0] == '~' && f != nil:
			return 0, "", name + " has an out-of-line body: it no longer inlines"
		case e[0] == '~':
			prev = nil
			continue
		case f == nil:
			return 0, "", name + " is not in the binary"
		case prev != nil && e[0] == '*' && !prev.indirect:
			return 0, "", "no indirect call before " + name
		case prev != nil && e[0] != '*' && !prev.calls[name]:
			return 0, "", "no call to " + name
		}
		// At entry SP sits used+8 below the top; the check fails once
		// SP-reach is at or below the guard, and frames grow in 8s.
		if m := startStack - stackGuard - (used + 8) - f.reach - 8; f.reach >= 0 && m < margin {
			margin, at = m, name
		}
		used += f.size
		prev = f
	}
	return margin, at, ""
}

// TestFirstHandoffBudget gates the stack margin of each first hand-off a
// benchmark set-up runs on a fresh goroutine, and pins the heap
// allocations each makes on a fresh queue: an allocation added anywhere on
// a chain fails the pin even while its frames still fit. The rows with a
// reason are logged, not gated; -v prints every row's margin.
func TestFirstHandoffBudget(t *testing.T) {
	if runtime.GOOS != "linux" || runtime.GOARCH != "amd64" || raceEnabled || testing.CoverMode() != "" {
		t.Skipf("frames are budgeted for linux/amd64 without -race or -cover (this is %s/%s, race %v, cover %q)",
			runtime.GOOS, runtime.GOARCH, raceEnabled, testing.CoverMode())
	}
	// The timed rows' facades, run with zero patience, so that their int64
	// bodies are in the binary.
	q := autoQueue(false).q
	q.OfferTimeout(1, 0)
	q.PollTimeout(0)
	var all [][]string
	for _, r := range budgetRows {
		all = append(all, r.chains...)
	}
	frames := readFrames(t, all)
	for _, r := range budgetRows {
		margin, at, stale := startStack, "", ""
		for _, c := range r.chains {
			m, fn, s := chainMargin(frames, c)
			if stale = s; stale != "" {
				break
			}
			if m < margin {
				margin, at = m, fn
			}
		}
		if stale != "" {
			t.Errorf("%s: stale chain: %s", r.name, stale)
			continue
		}
		row := fmt.Sprintf("%-44s margin %4d B at %s", r.name, margin, at)
		switch {
		case r.why != "":
			t.Logf("%s (not gated: %s)", row, r.why)
		case margin < 0:
			t.Errorf("%s: a first hand-off outgrew the starting stack", row)
		default:
			t.Log(row)
		}
	}

	// The allocation pins run with the collector off, so each count is
	// exact, on instrumented queues, so that a test can see a wait park,
	// whose histograms are all built (a first latency sample, one
	// operation in SampleRate, builds its histogram).
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(max(2, runtime.GOMAXPROCS(0))))
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	warmSudogs()
	for pass := range 2 { // the first grows the runtime's pools, threads included, to the rows' needs
		for _, r := range budgetRows {
			if r.first == nil {
				continue
			}
			if got := r.first(); pass == 1 && got != r.allocs {
				t.Errorf("%s: %d allocations on a fresh queue, want %d (%s)", r.name, got, r.allocs, r.objects)
			}
		}
	}
}

// warmSudogs parks more receivers at once than the runtime's per-P caches
// of channel-wait records (sudogs) hold, 128 a P, and wakes them, so that
// the central cache keeps some while the collector is off: a first park
// then never allocates its sudog.
func warmSudogs() {
	n, ch := 128*runtime.GOMAXPROCS(0)+64, make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(n)
	for range n {
		go func() { <-ch; wg.Done() }()
	}
	for runtime.NumGoroutine() < n {
		time.Sleep(time.Millisecond)
	}
	time.Sleep(10 * time.Millisecond) // let the last ones block
	close(ch)
	wg.Wait()
}

// pinQueue is a gated row's fresh queue and the handle its waits count
// their parks in.
type pinQueue struct {
	q     *SynchronousQueue[int64]
	parks *metrics.Handle
}

// newPinQueue builds a queue instrumented with a fresh Metrics whose
// histograms, and those of a fabric's first shard, are all built; spin
// pins a spin budget no counterpart outlasts.
func newPinQueue(spin bool, opts ...Option) pinQueue {
	m := NewMetrics()
	for _, h := range []*metrics.Handle{m.root, m.shardHandle(0)} {
		for id := range metrics.NumHistIDs {
			h.Record(id, time.Nanosecond)
		}
	}
	c := buildConfig(append(opts, Instrument(m)))
	if spin {
		c.wait.Spins = 1 << 30
	}
	if c.sharded {
		return pinQueue{newFromConfig[int64](c), m.shardHandle(0)}
	}
	return pinQueue{newFromConfig[int64](c), m.root}
}

func fairQueue() pinQueue          { return newPinQueue(false, Fair(true)) }
func segQueue() pinQueue           { return newPinQueue(false, Segmented()) }
func autoQueue(spin bool) pinQueue { return newPinQueue(spin, Fair(true), AutoShard()) }

// The operations of the rows. A batch is 32 items, as in sqperf's batch
// workload: two 16-cell producer runs. pinCtx is the cancelable context a
// TakeBatchContext waits under, its done channel already made.
type pinOp func(q *SynchronousQueue[int64])

var (
	pinItems, pinBuf = make([]int64, 32), make([]int64, 0, 32)
	pinCtx, _        = context.WithCancel(context.Background())
	_                = pinCtx.Done()

	opPut       pinOp = func(q *SynchronousQueue[int64]) { q.Put(1) }
	opTake      pinOp = func(q *SynchronousQueue[int64]) { q.Take() }
	opPutAll    pinOp = func(q *SynchronousQueue[int64]) { q.PutAll(pinItems) }
	opTakeBatch pinOp = func(q *SynchronousQueue[int64]) { q.TakeBatchContext(pinCtx, 32) }
	opDrain     pinOp = func(q *SynchronousQueue[int64]) { q.DrainTo(pinBuf[:0], 32) }
)

// mallocs counts the heap allocations made while f runs.
func mallocs(f func()) uint64 {
	var a, b runtime.MemStats
	runtime.ReadMemStats(&a)
	f()
	runtime.ReadMemStats(&b)
	return b.Mallocs - a.Mallocs
}

// meetFirst counts op meeting a counterpart that waits parked in partner,
// then drains what a PutAll partner still holds.
func meetFirst(p pinQueue, partner, op pinOp) uint64 {
	parks, done := p.parks.Load(metrics.Parks), make(chan struct{})
	go func() {
		partner(p.q)
		close(done)
	}()
	for p.parks.Load(metrics.Parks) == parks {
		runtime.Gosched()
	}
	n := mallocs(func() { op(p.q) })
	for {
		select {
		case <-done:
			return n
		default:
			opDrain(p.q)
		}
	}
}

// afterFirst counts op waiting until partner arrives, each of n times
// (a PutAll fills and waits out one 16-cell run at a time): once op has
// parked, or, on a queue whose spin budget no partner outlasts, linked.
func afterFirst(p pinQueue, op, partner pinOp, n int, parked bool) uint64 {
	parks, done := p.parks.Load(metrics.Parks), make(chan struct{})
	go func() {
		for range n {
			for parked && p.parks.Load(metrics.Parks) == parks || !parked && !p.q.HasWaitingProducer() {
				runtime.Gosched()
			}
			parks++
			partner(p.q)
		}
		close(done)
	}()
	defer func() { <-done }()
	return mallocs(func() { op(p.q) })
}
