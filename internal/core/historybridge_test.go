package core

import (
	"math/rand/v2"
	"runtime"
	"sync"
	"testing"
	"time"

	"synchq/internal/verify"
)

// This file is the stress-to-verify bridge: it drives the real structures
// with an N×M producer/consumer mix of timed and asynchronously-canceled
// operations while recording a full operation history, then hands the
// history to verify.Check. Before this bridge, verify was exercised only
// on hand-written histories; here it validates conservation (no value
// lost, duplicated, or invented) and synchrony (every transfer's put and
// take intervals overlap) of actual concurrent executions — the hunting
// ground where untested cancellation paths hide bugs.

// bridgeOps is the operation surface the bridge drives, expressed as
// funcs so one harness covers every core (contractOps builds it from the
// hand-off contract).
type bridgeOps struct {
	offerTimeout func(v int64, d time.Duration) bool
	putCancel    func(v int64, cancel <-chan struct{}) Status
	pollTimeout  func(d time.Duration) (int64, bool)
	takeCancel   func(cancel <-chan struct{}) (int64, Status)
}

// contractOps drives h through the hand-off contract, with the timed forms
// derived as the synchq facade derives them.
func contractOps(h Handoff[int64]) bridgeOps {
	return bridgeOps{
		offerTimeout: func(v int64, d time.Duration) bool { return offerTimeout(h, v, d) },
		putCancel:    func(v int64, cancel <-chan struct{}) Status { return h.PutDeadline(v, time.Time{}, cancel) },
		pollTimeout:  func(d time.Duration) (int64, bool) { return pollTimeout(h, d) },
		takeCancel:   func(cancel <-chan struct{}) (int64, Status) { return h.TakeDeadline(time.Time{}, cancel) },
	}
}

// runHistoryBridge stresses ops with producers×consumers goroutines mixing
// timed offers, canceled puts, timed polls, and canceled takes, then
// checks the recorded history.
func runHistoryBridge(t *testing.T, ops bridgeOps, producers, consumers, perProducer int) {
	t.Helper()
	rec := verify.NewRecorder()
	stop := make(chan struct{})
	var wg sync.WaitGroup

	for p := 0; p < producers; p++ {
		wg.Add(1)
		go func(id int64) {
			defer wg.Done()
			rng := rand.New(rand.NewPCG(uint64(id), 11))
			log := rec.NewThread()
			for seq := int64(0); seq < int64(perProducer); seq++ {
				v := id<<40 | seq
				inv := log.Begin()
				var ok bool
				if rng.IntN(5) < 3 {
					patience := time.Duration(rng.IntN(800)) * time.Microsecond
					ok = ops.offerTimeout(v, patience)
				} else {
					cancel := make(chan struct{})
					timer := time.AfterFunc(time.Duration(rng.IntN(500))*time.Microsecond, func() {
						close(cancel)
					})
					ok = ops.putCancel(v, cancel) == OK
					timer.Stop()
				}
				log.End(verify.Put, v, inv, ok)
			}
		}(int64(p))
	}

	var cg sync.WaitGroup
	for c := 0; c < consumers; c++ {
		cg.Add(1)
		go func(id int64) {
			defer cg.Done()
			rng := rand.New(rand.NewPCG(uint64(id)+1000, 13))
			log := rec.NewThread()
			for {
				select {
				case <-stop:
					return
				default:
				}
				inv := log.Begin()
				var v int64
				var ok bool
				if rng.IntN(5) < 4 {
					patience := time.Duration(rng.IntN(800)) * time.Microsecond
					v, ok = ops.pollTimeout(patience)
				} else {
					cancel := make(chan struct{})
					timer := time.AfterFunc(time.Duration(rng.IntN(500))*time.Microsecond, func() {
						close(cancel)
					})
					var st Status
					v, st = ops.takeCancel(cancel)
					ok = st == OK
					timer.Stop()
				}
				log.End(verify.Take, v, inv, ok)
			}
		}(int64(c))
	}

	// The run, drain included, ends under a watchdog: a wedged operation
	// (a lost wake-up, a node linked to itself) fails with every
	// goroutine's stack rather than hanging until the package's timeout.
	finished := make(chan struct{})
	go func() {
		defer close(finished)
		wg.Wait()
		close(stop)
		cg.Wait()

		// A synchronous queue cannot buffer, but drain anyway: if an
		// implementation bug made a value stick, the drain converts it into
		// a conservation error instead of a silent leak.
		drainLog := rec.NewThread()
		for {
			inv := drainLog.Begin()
			v, ok := ops.pollTimeout(10 * time.Millisecond)
			drainLog.End(verify.Take, v, inv, ok)
			if !ok {
				break
			}
		}
	}()
	select {
	case <-finished:
	case <-time.After(bridgeWatchdog):
		buf := make([]byte, 1<<20)
		n := runtime.Stack(buf, true)
		t.Fatalf("bridge run wedged: no verdict after %v\n%s", bridgeWatchdog, buf[:n])
	}

	res := verify.Check(rec.History(), true)
	for _, e := range res.Errors {
		t.Errorf("history violation: %s", e)
	}
	if res.Transfers == 0 {
		t.Fatal("bridge run completed zero transfers; the mix exercised nothing")
	}
}

// bridgeWatchdog bounds one bridge run; a healthy run takes well under
// a tenth of a second, under -race too.
const bridgeWatchdog = 5 * time.Second

func bridgeSizes(t *testing.T) (producers, consumers, perProducer int) {
	if testing.Short() {
		return 3, 3, 120
	}
	return 4, 4, 400
}

func TestHistoryBridgeDualQueue(t *testing.T) {
	p, c, n := bridgeSizes(t)
	q := NewDualQueue[int64](WaitConfig{})
	runHistoryBridge(t, contractOps(q), p, c, n)
	if got := q.Len(); got != 0 {
		t.Fatalf("queue Len = %d after bridge run, want 0", got)
	}
}

func TestHistoryBridgeDualStack(t *testing.T) {
	p, c, n := bridgeSizes(t)
	q := NewDualStack[int64](WaitConfig{})
	runHistoryBridge(t, contractOps(q), p, c, n)
	if got := q.Len(); got != 0 {
		t.Fatalf("stack Len = %d after bridge run, want 0", got)
	}
}

func TestHistoryBridgeTransferQueue(t *testing.T) {
	p, c, n := bridgeSizes(t)
	q := NewDualQueue[int64](WaitConfig{})
	// The synchronous face only: asynchronous Puts deliberately violate
	// synchrony (the producer returns before the take), so the async/sync
	// interplay is covered by the cancellation-interleaving tests instead.
	runHistoryBridge(t, contractOps(q), p, c, n)
	if q.HasWaitingProducer() {
		t.Fatal("transfer queue still holds buffered data after bridge run")
	}
}

// TestHistoryBridgeMetered reruns the queue bridge with instrumentation
// attached, pinning down that a verified-correct concurrent run records a
// coherent counter story: every fulfillment pairs a put with a take, and
// the cancellation mix actually drove the cancel paths the bridge exists
// to cover.
func TestHistoryBridgeMetered(t *testing.T) {
	p, c, n := bridgeSizes(t)
	h := metricsHandleForTest()
	q := NewDualQueue[int64](WaitConfig{Metrics: h})
	runHistoryBridge(t, contractOps(q), p, c, n)
	assertBridgeCounters(t, h)
}
