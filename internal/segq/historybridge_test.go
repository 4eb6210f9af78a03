package segq

import (
	"math/rand/v2"
	"sync"
	"testing"
	"time"

	"synchq/internal/core"
	"synchq/internal/verify"
)

// The same stress-to-verify bridge internal/core runs over its dual
// structures, pointed at the segmented core: an N×M producer/consumer mix
// of timed and asynchronously-canceled operations with a full recorded
// history, checked for conservation (no value lost, duplicated, or
// invented) and synchrony (every transfer's put and take intervals
// overlap). The cell state machine's abort arms — poison-on-expiry,
// abort-vs-fulfill CAS races, broken-cell retries — are exactly the paths
// this mix hammers.

func runHistoryBridge(t *testing.T, q *Queue[int64], producers, consumers, perProducer int) {
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
					ok = offerTimeout(q, v, patience)
				} else {
					cancel := make(chan struct{})
					timer := time.AfterFunc(time.Duration(rng.IntN(500))*time.Microsecond, func() {
						close(cancel)
					})
					ok = q.PutDeadline(v, time.Time{}, cancel) == core.OK
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
					v, ok = pollTimeout(q, patience)
				} else {
					cancel := make(chan struct{})
					timer := time.AfterFunc(time.Duration(rng.IntN(500))*time.Microsecond, func() {
						close(cancel)
					})
					var st core.Status
					v, st = q.TakeDeadline(time.Time{}, cancel)
					ok = st == core.OK
					timer.Stop()
				}
				log.End(verify.Take, v, inv, ok)
			}
		}(int64(c))
	}

	wg.Wait()
	close(stop)
	cg.Wait()

	// A synchronous queue cannot buffer, but drain anyway: if a bug made
	// a value stick in a cell, the drain converts it into a conservation
	// error instead of a silent leak.
	drainLog := rec.NewThread()
	for {
		inv := drainLog.Begin()
		v, ok := pollTimeout(q, 10*time.Millisecond)
		drainLog.End(verify.Take, v, inv, ok)
		if !ok {
			break
		}
	}

	res := verify.Check(rec.History(), true)
	for _, e := range res.Errors {
		t.Errorf("history violation: %s", e)
	}
	if res.Transfers == 0 {
		t.Fatal("bridge run completed zero transfers; the mix exercised nothing")
	}
}

func bridgeSizes(t *testing.T) (producers, consumers, perProducer int) {
	if testing.Short() {
		return 3, 3, 120
	}
	return 4, 4, 400
}

func TestHistoryBridgeSegmented(t *testing.T) {
	p, c, n := bridgeSizes(t)
	q := New[int64](core.WaitConfig{})
	runHistoryBridge(t, q, p, c, n)
	if got := q.Len(); got != 0 {
		t.Fatalf("Len = %d after bridge run, want 0", got)
	}
	// The bridge's cancellation mix doubles as a storm: the structure must
	// come out memory-bounded too.
	expectLiveSegmentsBelow(t, q, liveSegmentCeiling)
}
