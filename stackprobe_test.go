package synchq_test

import (
	"fmt"
	"runtime"
	"testing"
	"time"
	"unsafe"

	"synchq"
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
)

// firstOp is a probe goroutine's body: it makes op on q and reports on
// moved whether its stack moved meanwhile. Its 128-byte local sizes the
// caller frames above the facade call at 256 B on linux/amd64 — goexit
// (8 B), the go statement's wrapper (40 B) and firstOp's own frame
// (208 B; check with -gcflags=-S) — a load generator's goroutine holds
// about that much.
//
//go:noinline
func firstOp(q *synchq.SynchronousQueue[int64], op probeOp, moved chan<- bool) {
	var frame [128]byte
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
	}
	moved <- uintptr(unsafe.Pointer(&frame)) != before
}

// probeOutcome is what a trial observed around its first operation.
type probeOutcome struct {
	moved   bool
	parked  bool // the queue's parks counter moved
	sampled bool // the operation timed itself (see synchq.SampleRate)
}

// probeRow is one first operation against a fresh queue per trial, as each
// benchmark set-up builds one, so the operation also meets the queue's
// first node and box.
type probeRow struct {
	name string
	auto bool // an instrumented AutoShard fair queue; else a plain fair queue
	op   probeOp
	// meets starts a partner that waits with partnerOp before the probe's
	// operation starts; otherwise the partner waits for the probe's
	// operation to link and then completes it with partnerOp.
	meets     bool
	partnerOp probeOp
	// parks selects the trials that count: those whose wait parked, or
	// (false) those whose wait ended in its spin phase.
	parks bool
	// why is set on rows that are logged, not gated.
	why string
}

func (r probeRow) queue(m *synchq.Metrics) *synchq.SynchronousQueue[int64] {
	if r.auto {
		return synchq.New[int64](synchq.Fair(true), synchq.AutoShard(), synchq.Instrument(m))
	}
	return synchq.New[int64](synchq.Fair(true), synchq.Instrument(m))
}

func (r probeRow) trial() probeOutcome {
	var m *synchq.Metrics // a plain fair queue runs uninstrumented, as in pair
	if r.auto || r.parks {
		m = synchq.NewMetrics()
	}
	q := r.queue(m)
	partner := func() {
		switch r.partnerOp {
		case opPut:
			q.Put(2)
		case opTake:
			q.Take()
		}
	}
	linked := func() bool { return q.HasWaitingProducer() || q.HasWaitingConsumer() }
	parks := func() int64 { return m.Stats().Counters["parks"] }
	done, moved := make(chan struct{}), make(chan bool)
	if r.meets {
		go func() { partner(); close(done) }()
		for !linked() {
			runtime.Gosched()
		}
		time.Sleep(100 * time.Microsecond) // let the partner park and announce itself
		p0 := parks()
		go firstOp(q, r.op, moved)
		out := probeOutcome{moved: <-moved, parked: parks() != p0}
		<-done
		out.sampled = len(m.Stats().Latency) > 0
		return out
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
	go firstOp(q, r.op, moved)
	out := probeOutcome{moved: <-moved}
	<-done
	out.parked = parks() != 0
	out.sampled = len(m.Stats().Latency) > 0
	return out
}

// probeRows lists the first operations the gate covers and the ones it
// only logs.
var probeRows = []probeRow{
	{name: "autoshard Put, spin phase", auto: true, op: opPut, partnerOp: opTake},
	{name: "autoshard Take meets a waiting Put", auto: true, op: opTake, meets: true, partnerOp: opPut},
	{name: "autoshard Put meets a waiting Take", auto: true, op: opPut, meets: true, partnerOp: opTake},
	{name: "fair Take meets a waiting Put", op: opTake, meets: true, partnerOp: opPut},
	{name: "fair Put meets a waiting Take", op: opPut, meets: true, partnerOp: opTake},
	{name: "autoshard OfferTimeout, spin phase", auto: true, op: opOffer, partnerOp: opTake,
		why: "the timed facade is a frame of its own; this path fits with tens of bytes to spare"},
	{name: "autoshard PollTimeout meets a waiting Put", auto: true, op: opPoll, meets: true, partnerOp: opPut,
		why: "the timed facade is a frame of its own; about 40 B short"},
	{name: "autoshard OfferTimeout meets a waiting Take", auto: true, op: opOffer, meets: true, partnerOp: opTake,
		why: "the timed facade is a frame of its own; about 40 B short"},
	{name: "autoshard Take parks", auto: true, op: opTake, partnerOp: opPut, parks: true,
		why: "a parked wait runs the parker's select"},
	{name: "fair Take parks", op: opTake, partnerOp: opPut, parks: true,
		why: "a parked wait runs the parker's select"},
}

// probeTrials is the number of fresh goroutines each probe row runs.
const probeTrials = 20

// spinPhase reports whether waits spin at all: the spin budget is zero
// when GOMAXPROCS is 1 at process start (internal/spin samples it then),
// and a wait with no spin phase borrows its parker — the parker table's
// first chunk, an allocation — as soon as it links.
var spinPhase = runtime.GOMAXPROCS(0) > 1

// TestFirstHandoffStack gates the stack depth of a fresh goroutine's first
// hand-off below 256 B of caller frames: an AutoShard put through its spin
// phase, an AutoShard take or put meeting a waiting counterpart, and the
// fair queue's match path must all run within the starting stack. A move
// in a trial that recorded a latency sample is excused: the first sample
// builds its 512-B histogram at the bottom of the call chain (one
// operation in synchq.SampleRate is sampled). The rows with a reason are
// logged, not gated.
func TestFirstHandoffStack(t *testing.T) {
	if testing.Short() || raceEnabled {
		t.Skip("needs unshortened runs without race instrumentation, which grows every frame")
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(max(2, runtime.GOMAXPROCS(0))))
	for _, r := range probeRows {
		moves, counted, excused := 0, 0, 0
		for range probeTrials {
			out := r.trial()
			switch {
			case out.parked != r.parks:
			case out.moved && out.sampled:
				excused++
			default:
				counted++
				if out.moved {
					moves++
				}
			}
		}
		row := fmt.Sprintf("%s: %d/%d moved (%d moves excused by a latency sample)", r.name, moves, counted, excused)
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
