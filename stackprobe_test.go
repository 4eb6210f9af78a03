package synchq_test

import (
	"bufio"
	"bytes"
	"context"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"runtime"
	"runtime/debug"
	"runtime/metrics"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"
	"unsafe"

	"synchq"
	"synchq/internal/spin"
)

// A goroutine starts on a 2-KB stack, and a call chain that outgrows it
// copies the whole stack to a larger one: several microseconds on a fresh
// worker's first hand-off, paid inside every set-up. TestFirstHandoffStack
// runs one first operation on a fresh goroutine and reads a stack local's
// address before and after it: a different address means the stack was
// copied.

// probeOp names the facade call a probe goroutine makes.
type probeOp int

const (
	opPut probeOp = iota
	opTake
	opOffer
	opPoll
	opPutAll    // PutAll of probeBatch items
	opTakeBatch // TakeBatchContext(probeCtx, probeBatch)
)

// probeBatch is a batch row's PutAll length and TakeBatch limit, as in
// sqperf's batch workload: two runs of segq.SegSize cells.
const probeBatch = 32

// probeItems is what a batch probe puts; probeCtx is the cancelable
// context its TakeBatchContext waits under, as a load generator's is. Both
// live outside firstOp so its frame stays the same size for every op.
var (
	probeItems  = make([]int64, probeBatch)
	probeCtx, _ = context.WithCancel(context.Background())
)

// firstOp is a probe goroutine's body: it makes op on q and reports on
// moved whether its stack moved meanwhile. Its 112-byte local sizes the
// caller frames above the facade call at 256 B on linux/amd64 — goexit
// (8 B), the go statement's wrapper (40 B) and firstOp's own frame
// (208 B) — a load generator's goroutine holds about that much;
// checkCallerFrames pins the sum.
//
//go:noinline
func firstOp(q *synchq.SynchronousQueue[int64], op probeOp, moved chan<- bool) {
	var frame [112]byte
	before := uintptr(unsafe.Pointer(&frame))
	switch op {
	case opPut:
		q.Put(1)
	case opTake:
		q.Take()
	case opOffer:
		q.OfferTimeout(1, time.Second)
	case opPoll:
		q.PollTimeout(time.Second)
	case opPutAll:
		q.PutAll(probeItems)
	case opTakeBatch:
		q.TakeBatchContext(probeCtx, probeBatch)
	}
	moved <- uintptr(unsafe.Pointer(&frame)) != before
}

// probeOutcome is what a trial observed around its first operation.
type probeOutcome struct {
	moved    bool
	parked   bool // the queue's parks counter moved
	sampled  bool // the operation timed itself (see synchq.SampleRate)
	refilled bool // the heap's allocation count moved (see heapAllocs)
	// spent: the wait spun its whole budget, so it went on to borrow a
	// parker (building the parker table's first chunk) even if it never
	// parked. Read on instrumented queues only.
	spent bool
}

// heapAllocs reads the runtime's count of heap allocations. The count
// moves only when a P's allocation cache refills a span (or on a large
// allocation, or a GC's cache flush), not on each small allocation: the
// allocations that run several hundred bytes of runtime frames, more than
// a first hand-off can ever leave free.
func heapAllocs() uint64 {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:objects"}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

// probeCore names the queue a probe row builds.
type probeCore int

const (
	coreFair   probeCore = iota // Fair(true): the dual queue
	coreAuto                    // an instrumented AutoShard fair queue
	coreSeg                     // Segmented(): the segmented core
	coreUnfair                  // Fair(false): the dual stack
)

// probeRow is one first operation against a fresh queue per trial, as each
// benchmark set-up builds one, so the operation also meets the queue's
// first node and box.
type probeRow struct {
	name string
	core probeCore
	op   probeOp
	// meets starts a partner that waits with partnerOp before the probe's
	// operation starts; otherwise the partner waits for the probe's
	// operation to link and then completes it with partnerOp.
	meets     bool
	partnerOp probeOp
	// parks selects the trials that count (see counts): those whose wait
	// parked, or (false) those whose wait ended in its spin phase.
	parks bool
	// allocates marks an operation that allocates at the bottom of its
	// chain by design — a batch's result slice, the parker table's first
	// chunk: a move in a trial whose allocations refilled a span is
	// excused, and the row first runs one trial uncounted, because a P's
	// first allocation in a size class fills an empty cache, which the
	// allocation count does not show.
	allocates bool
	// why is set on rows that are logged, not gated.
	why string
}

func (r probeRow) queue(m *synchq.Metrics) *synchq.SynchronousQueue[int64] {
	switch r.core {
	case coreAuto:
		return synchq.New[int64](synchq.Fair(true), synchq.AutoShard(), synchq.Instrument(m))
	case coreSeg:
		return synchq.New[int64](synchq.Segmented(), synchq.Instrument(m))
	case coreUnfair:
		return synchq.New[int64](synchq.Fair(false), synchq.Instrument(m))
	}
	return synchq.New[int64](synchq.Fair(true), synchq.Instrument(m))
}

func (r probeRow) trial() probeOutcome {
	done, moved := make(chan struct{}), make(chan bool)
	// Plain queues run uninstrumented, as in pair and batch, unless the
	// row counts parks.
	var m *synchq.Metrics
	if r.core == coreAuto || r.parks {
		m = synchq.NewMetrics()
	}
	q := r.queue(m)
	partner := func() {
		switch r.partnerOp {
		case opPut:
			q.Put(2)
		case opTake:
			q.Take()
		case opPutAll:
			q.PutAll(make([]int64, probeBatch))
		case opTakeBatch:
			// TakeBatch waits for one value only: loop until the probe's
			// whole PutAll went through.
			for n := 0; n < probeBatch; {
				n += len(q.TakeBatch(probeBatch))
			}
		}
	}
	// drain takes what a batch partner put beyond the probe's
	// TakeBatchContext, which returns once it holds one run's values.
	drain := func() {
		for r.partnerOp == opPutAll {
			select {
			case <-done:
				return
			default:
				q.DrainTo(nil, probeBatch)
				runtime.Gosched()
			}
		}
		<-done
	}
	linked := func() bool { return q.HasWaitingProducer() || q.HasWaitingConsumer() }
	parks := func() int64 { return m.Stats().Counters["parks"] }
	if r.meets {
		go func() { partner(); close(done) }()
		for !linked() {
			runtime.Gosched()
		}
		time.Sleep(100 * time.Microsecond) // let the partner park and announce itself
		p0, a0 := parks(), heapAllocs()
		go firstOp(q, r.op, moved)
		out := probeOutcome{moved: <-moved}
		out.refilled, out.parked = heapAllocs() != a0, parks() != p0
		drain()
		out.sampled = len(m.Stats().Latency) > 0
		return out
	}
	// A fresh queue's wait spins the ceiling of its calibrated budget.
	budget := int64(spin.MaxUntimedSpins)
	if r.op == opOffer || r.op == opPoll {
		budget = spin.MaxTimedSpins
	}
	go func() {
		for !linked() {
		}
		if r.parks {
			for parks() == 0 {
				runtime.Gosched()
			}
		}
		partner()
		close(done)
	}()
	a0 := heapAllocs()
	go firstOp(q, r.op, moved)
	out := probeOutcome{moved: <-moved}
	out.refilled = heapAllocs() != a0
	drain()
	out.parked = parks() != 0
	out.spent = m != nil && budget > 0 && m.Stats().Counters["spins"] >= budget
	out.sampled = len(m.Stats().Latency) > 0
	return out
}

// counts reports whether a trial is one the row measures: a wait that
// parked for a parks row; for a spin-phase row, one that neither parked
// nor spent its spin budget.
func (r probeRow) counts(out probeOutcome) bool {
	if r.parks || r.meets {
		return out.parked == r.parks
	}
	return !out.parked && !out.spent
}

// run runs the row's trials and counts those whose stack moved, those
// that count, and the moves it excuses.
func (r probeRow) run() (moves, counted, excused int) {
	for range probeTrials {
		out := r.trial()
		switch {
		case !r.counts(out):
		case out.moved && (out.sampled || r.allocates && out.refilled):
			excused++
		default:
			counted++
			if out.moved {
				moves++
			}
		}
	}
	return moves, counted, excused
}

// probeRows lists the first operations the gate covers and the ones it
// only logs.
var probeRows = []probeRow{
	{name: "autoshard Put, spin phase", core: coreAuto, op: opPut, partnerOp: opTake},
	{name: "autoshard Take meets a waiting Put", core: coreAuto, op: opTake, meets: true, partnerOp: opPut},
	{name: "autoshard Put meets a waiting Take", core: coreAuto, op: opPut, meets: true, partnerOp: opTake},
	{name: "fair Take meets a waiting Put", op: opTake, meets: true, partnerOp: opPut},
	{name: "fair Put meets a waiting Take", op: opPut, meets: true, partnerOp: opTake},
	{name: "seg PutAll parks", core: coreSeg, op: opPutAll, partnerOp: opTakeBatch, parks: true},
	{name: "seg TakeBatchContext meets a parked PutAll", core: coreSeg, op: opTakeBatch, meets: true, partnerOp: opPutAll, allocates: true},
	{name: "fair Take parks", op: opTake, partnerOp: opPut, parks: true, allocates: true},
	{name: "autoshard OfferTimeout, spin phase", core: coreAuto, op: opOffer, partnerOp: opTake,
		why: "the timed facade is a frame of its own; this path fits with under 32 B to spare"},
	{name: "autoshard PollTimeout meets a waiting Put", core: coreAuto, op: opPoll, meets: true, partnerOp: opPut,
		why: "the timed facade is a frame of its own; this path fits with under 32 B to spare"},
	{name: "autoshard OfferTimeout meets a waiting Take", core: coreAuto, op: opOffer, meets: true, partnerOp: opTake,
		why: "the timed facade is a frame of its own; this path fits with under 32 B to spare"},
	{name: "autoshard Take parks", core: coreAuto, op: opTake, partnerOp: opPut, parks: true,
		why: "the fabric's frames put the park more than 96 B short"},
	{name: "seg TakeBatchContext parks", core: coreSeg, op: opTakeBatch, partnerOp: opPutAll, parks: true, allocates: true,
		why: "the context makes the wait cancelable, so it parks in the parker's select, more than 96 B short"},
	{name: "seg Take meets a waiting Put", core: coreSeg, op: opTake, meets: true, partnerOp: opPut,
		why: "fits with more than 96 B to spare; no benchmark workload runs single-item segmented hand-offs"},
	{name: "seg Put meets a waiting Take", core: coreSeg, op: opPut, meets: true, partnerOp: opTake,
		why: "fits with more than 96 B to spare; no benchmark workload runs single-item segmented hand-offs"},
	{name: "seg Take parks", core: coreSeg, op: opTake, partnerOp: opPut, parks: true,
		why: "fits with 64 to 95 B to spare; no benchmark workload runs single-item segmented hand-offs"},
	{name: "unfair Take meets a waiting Put", core: coreUnfair, op: opTake, meets: true, partnerOp: opPut,
		why: "the dual stack's frames put it 65 to 96 B short"},
	{name: "unfair Put meets a waiting Take", core: coreUnfair, op: opPut, meets: true, partnerOp: opTake,
		why: "the dual stack's frames put it up to 32 B short"},
	{name: "unfair Take parks", core: coreUnfair, op: opTake, partnerOp: opPut, parks: true,
		why: "the dual stack's frames put the park about 96 B short"},
}

// probeTrials is the number of fresh goroutines each probe row runs.
const probeTrials = 20

// spinPhase reports whether waits spin at all: the spin budget is zero
// when GOMAXPROCS is 1 at process start (internal/spin samples it then),
// and a wait with no spin phase borrows its parker — the parker table's
// first chunk, an allocation — as soon as it links.
var spinPhase = runtime.GOMAXPROCS(0) > 1

// warmWaits parks n goroutines in Take on a fair queue and wakes them, so
// the runtime's caches of channel-wait records (sudogs) and the pool of
// parker notifiers hold plenty on every P, as a warm process's do. A first
// park that found the sudog cache empty would allocate a sudog at the
// bottom of its chain, and a notifier pool whose per-P ring is full grows
// it on the wake-up's way out; the n waits size both once. With the
// collector off, which would empty them, they stay filled.
func warmWaits(n int) {
	m := synchq.NewMetrics()
	q := synchq.New[int64](synchq.Fair(true), synchq.Instrument(m))
	var wg sync.WaitGroup
	for range n {
		wg.Add(1)
		go func() {
			defer wg.Done()
			q.Take()
		}()
	}
	for m.Stats().Counters["parks"] < int64(n) {
		time.Sleep(100 * time.Microsecond)
	}
	for range n {
		q.Put(0)
	}
	wg.Wait()
}

// fixedStart turns off the runtime's adaptive stack start, which sizes a
// new goroutine's stack from the average it scanned at the last GC: once a
// GC has met the probes' grown stacks, fresh goroutines start on 4 KB and
// every row reads 0 moved, whatever the chain's depth.
const fixedStart = "adaptivestackstart=0"

// callerFrames is the stack a probe goroutine holds above its facade
// call: goexit's return address, the go statement's wrapper and firstOp.
const callerFrames = 256

// stextFrame matches a function's header line in a -gcflags=-S listing;
// its locals count the frame pointer, not the return address.
var stextFrame = regexp.MustCompile(`^synchq_test\.(firstOp|probeRow\.trial\.gowrap\d+) STEXT .* locals=0x([0-9a-f]+) `)

// checkCallerFrames compiles this test package with -S and checks that
// goexit (8 B), each wrapper of a go firstOp statement and firstOp itself
// still add up to callerFrames on linux/amd64: a firstOp that shrank
// would let every row's chain grow by the difference unnoticed.
func checkCallerFrames(t *testing.T) {
	if runtime.GOOS != "linux" || runtime.GOARCH != "amd64" {
		t.Logf("caller frames not checked: sized for linux/amd64, not %s/%s", runtime.GOOS, runtime.GOARCH)
		return
	}
	// The toolchain that built this binary, so the listing's frames are
	// the ones the rows run; PATH's go otherwise.
	goTool := filepath.Join(runtime.GOROOT(), "bin", "go")
	if _, err := os.Stat(goTool); err != nil {
		if goTool, err = exec.LookPath("go"); err != nil {
			t.Fatalf("no go command to compile the -S listing: %v", err)
		}
	}
	// The listing, on the go command's stderr, runs to tens of megabytes:
	// keep the matching lines and the compiler's diagnostics only.
	cmd := exec.Command(goTool, "test", "-c", "-o", os.DevNull, "-gcflags=synchq=-S", ".")
	listing, err := cmd.StderrPipe()
	if err == nil {
		err = cmd.Start()
	}
	if err != nil {
		t.Fatalf("go test -c -gcflags=synchq=-S: %v", err)
	}
	frames := map[string]int64{}
	var diags strings.Builder
	sc := bufio.NewScanner(listing)
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		line := sc.Bytes()
		if m := stextFrame.FindSubmatch(line); m != nil {
			n, _ := strconv.ParseInt(string(m[2]), 16, 64)
			frames[string(m[1])] = n + 8
		} else if bytes.HasPrefix(line, []byte("#")) || bytes.HasPrefix(line, []byte("./")) {
			fmt.Fprintf(&diags, "%s\n", line)
		}
	}
	if err := cmd.Wait(); err != nil {
		t.Fatalf("go test -c -gcflags=synchq=-S: %v\n%s", err, diags.String())
	}
	wrappers := 0
	for name, size := range frames {
		if name == "firstOp" {
			continue
		}
		wrappers++
		if got := 8 + size + frames["firstOp"]; got != callerFrames {
			t.Errorf("caller frames = 8 (goexit) + %d (%s) + %d (firstOp) = %d B, want %d: resize firstOp's local",
				size, name, frames["firstOp"], got, callerFrames)
		}
	}
	if frames["firstOp"] == 0 || wrappers == 0 {
		t.Fatalf("no firstOp frame or go wrapper in the -S listing")
	}
	t.Logf("caller frames: goexit 8 B, firstOp %d B, go wrappers %d of them", frames["firstOp"], wrappers)
}

// TestFirstHandoffStack gates the stack depth of a fresh goroutine's first
// hand-off below callerFrames: an AutoShard put through its spin phase, an
// AutoShard take or put meeting a waiting counterpart, the fair queue's
// match path and first parked take, and a segmented queue's first PutAll
// that parks and first TakeBatchContext meeting it — a batch set-up's two
// first hand-offs — must all run within the starting stack.
//
// A move in a trial that recorded a latency sample is excused: the first
// sample builds its 512-B histogram at the bottom of the call chain (one
// operation in synchq.SampleRate is sampled). So is one in a trial of a
// row marked allocates whose allocations refilled a span. A row that
// neither parks nor allocates fails on any move. A row that parks or
// allocates by design runs once more if it moved, and fails if it moves
// again: at the bottom of those chains the runtime's slow paths run in
// some trials only — sync.Pool's steal or New for the parker's notifier,
// an allocation the count does not show — while a chain that outgrew the
// stack moves in every trial. The rows with a reason are logged, not
// gated.
func TestFirstHandoffStack(t *testing.T) {
	if testing.Short() || raceEnabled {
		t.Skip("needs unshortened runs without race instrumentation, which grows every frame")
	}
	if !strings.Contains(os.Getenv("GODEBUG"), fixedStart) {
		checkCallerFrames(t)
		// Re-run this test alone in a child with the adaptive start off.
		cmd := exec.Command(os.Args[0], "-test.run=^TestFirstHandoffStack$", "-test.v", "-test.count=1")
		cmd.Env = append(os.Environ(), "GODEBUG="+strings.Trim(os.Getenv("GODEBUG")+","+fixedStart, ","))
		out, err := cmd.CombinedOutput()
		t.Logf("GODEBUG=%s run:\n%s", fixedStart, out)
		if err != nil {
			t.Fatalf("GODEBUG=%s run: %v", fixedStart, err)
		}
		return
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(max(2, runtime.GOMAXPROCS(0))))
	// A GC that an allocation starts, and the mark assists it then asks of
	// allocating goroutines, run on the allocating goroutine's stack,
	// whatever the depth of the hand-off; the rows run without the
	// collector (they allocate a few megabytes).
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	warmWaits(64)
	for _, r := range probeRows {
		if r.allocates {
			r.trial()
		}
		moves, counted, excused := r.run()
		retried := ""
		if moves > 0 && r.why == "" && (r.parks || r.allocates) {
			moves, counted, excused = r.run()
			retried = ", on a second run"
		}
		row := fmt.Sprintf("%s: %d/%d moved (%d moves excused by a latency sample or a span refill)%s", r.name, moves, counted, excused, retried)
		switch {
		case r.why != "":
			t.Logf("%s — not gated: %s", row, r.why)
		case !r.meets && !r.parks && !spinPhase:
			t.Logf("%s — not gated: GOMAXPROCS was 1 at start, so waits do not spin", row)
		case counted == 0:
			t.Errorf("%s: no trial counted", row)
		case moves > 0:
			t.Errorf("%s, want 0: a first hand-off outgrew the starting stack", row)
		default:
			t.Log(row)
		}
	}
}
