package core

import (
	"math/rand/v2"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// These tests target the TransferQueue-specific hazard the generic cancel
// storm cannot see: canceled *synchronous* transfers interleaved with
// *asynchronous* puts. Both kinds of producer share the node list — a
// canceled transfer leaves a dead reservation-or-data node that clean()
// must unlink without detaching the async data nodes threaded around it.
// Losing or reordering an async item here would be invisible to the
// sync-only tests, because their canceled nodes never carry must-deliver
// data.

// asyncTag marks asynchronously deposited values so consumers can tell
// the two producer populations apart. Async payloads are id<<40|seq, so
// bit 62 is free.
const asyncTag = int64(1) << 62

// TestTransferQueueCancelAsyncConservation interleaves canceled
// synchronous transfers with asynchronous puts from the same producers
// and checks exact conservation of both populations: every async put and
// every successful sync transfer is received exactly once, and nothing
// else is.
func TestTransferQueueCancelAsyncConservation(t *testing.T) {
	const producers = 6
	const consumers = 3
	perProducer := int64(300)
	if testing.Short() {
		perProducer = 100
	}

	q := NewDualQueue[int64](WaitConfig{})
	var syncOK, asyncCount atomic.Int64
	var wg sync.WaitGroup

	for p := 0; p < producers; p++ {
		wg.Add(1)
		go func(id int64) {
			defer wg.Done()
			rng := rand.New(rand.NewPCG(uint64(id), 17))
			for seq := int64(0); seq < perProducer; seq++ {
				v := id<<40 | seq
				if rng.IntN(2) == 0 {
					q.PutAsync(v | asyncTag)
					asyncCount.Add(1)
					continue
				}
				cancel := make(chan struct{})
				timer := time.AfterFunc(time.Duration(rng.IntN(400))*time.Microsecond, func() {
					close(cancel)
				})
				if q.PutDeadline(v, time.Time{}, cancel) == OK {
					syncOK.Add(1)
				}
				timer.Stop()
			}
		}(int64(p))
	}

	var syncRecv, asyncRecv atomic.Int64
	seen := make([]sync.Map, consumers) // per-consumer to keep maps uncontended
	var cg sync.WaitGroup
	for c := 0; c < consumers; c++ {
		cg.Add(1)
		go func(i int) {
			defer cg.Done()
			for {
				v, ok := pollTimeout(q, 20*time.Millisecond)
				if !ok {
					return // producers exhausted and queue drained
				}
				if _, dup := seen[i].LoadOrStore(v, struct{}{}); dup {
					t.Errorf("value %#x delivered twice to consumer %d", v, i)
				}
				if v&asyncTag != 0 {
					asyncRecv.Add(1)
				} else {
					syncRecv.Add(1)
				}
			}
		}(c)
	}
	wg.Wait()
	cg.Wait()

	if got, want := asyncRecv.Load(), asyncCount.Load(); got != want {
		t.Errorf("async conservation: deposited %d, received %d", want, got)
	}
	if got, want := syncRecv.Load(), syncOK.Load(); got != want {
		t.Errorf("sync conservation: %d transfers reported OK, %d received", want, got)
	}
	if asyncCount.Load() == 0 || syncOK.Load() == 0 {
		t.Fatal("mix degenerated; both populations must be exercised")
	}
	if q.HasWaitingProducer() {
		t.Error("buffered data remains after full drain")
	}
	// Duplicates across consumers: merge the per-consumer sets.
	all := make(map[int64]struct{})
	for i := range seen {
		seen[i].Range(func(k, _ any) bool {
			if _, dup := all[k.(int64)]; dup {
				t.Errorf("value %#x delivered to two consumers", k.(int64))
			}
			all[k.(int64)] = struct{}{}
			return true
		})
	}
}

// TestTransferQueueCancelAsyncOrdering uses a single consumer to check
// the FIFO guarantee for asynchronous deposits: per producer, async
// values must arrive in strictly increasing sequence order even while
// canceled synchronous transfers from the same producer die between
// them. A clean() that unlinked the wrong node would surface here as a
// skipped or reordered sequence number.
func TestTransferQueueCancelAsyncOrdering(t *testing.T) {
	const producers = 4
	perProducer := int64(400)
	if testing.Short() {
		perProducer = 150
	}

	q := NewDualQueue[int64](WaitConfig{})
	var wg sync.WaitGroup
	for p := 0; p < producers; p++ {
		wg.Add(1)
		go func(id int64) {
			defer wg.Done()
			rng := rand.New(rand.NewPCG(uint64(id), 29))
			for seq := int64(0); seq < perProducer; seq++ {
				if rng.IntN(3) == 0 {
					// Doomed synchronous transfer: no consumer is polling
					// fast enough for most of these; many cancel mid-wait,
					// planting dead nodes between the async deposits.
					cancel := make(chan struct{})
					timer := time.AfterFunc(time.Duration(rng.IntN(200))*time.Microsecond, func() {
						close(cancel)
					})
					q.PutDeadline(id<<40|seq|asyncTag>>1, time.Time{}, cancel)
					timer.Stop()
					continue
				}
				q.PutAsync(id<<40 | seq)
			}
		}(int64(p))
	}

	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()

	lastSeq := make(map[int64]int64)
	for {
		v, ok := pollTimeout(q, 20*time.Millisecond)
		if !ok {
			select {
			case <-done:
				// Producers finished and a full patience window passed
				// empty: drained.
				if v, ok = poll(q); !ok {
					goto drained
				}
			default:
				continue
			}
		}
		if v&(asyncTag>>1) != 0 {
			continue // a synchronous transfer that found us; unordered by design
		}
		id, seq := v>>40, v&(1<<40-1)
		if last, present := lastSeq[id]; present && seq <= last {
			t.Fatalf("producer %d: async seq %d arrived after %d", id, seq, last)
		}
		lastSeq[id] = seq
	}
drained:
	if len(lastSeq) != producers {
		t.Fatalf("async data from %d producers observed, want %d", len(lastSeq), producers)
	}
	if q.HasWaitingProducer() {
		t.Error("buffered data remains after drain")
	}
}
