package shard

import (
	"runtime"
	"sync"
	"testing"
	"time"

	"synchq/internal/core"
)

// TestAutoFabricBuildsLanesOnWidening: a self-scaling fabric holds only
// lane 0 until its width first grows, builds exactly the lanes the wider
// mask can name, and keeps them after the width shrinks back.
func TestAutoFabricBuildsLanesOnWidening(t *testing.T) {
	var made []int
	f := NewAuto(8, func(i int) Dual[int64] {
		made = append(made, i)
		return core.NewDualQueue[int64](core.WaitConfig{})
	})
	if n := len(f.built()); n != 1 || len(made) != 1 {
		t.Fatalf("fresh auto fabric built %d lanes (mk called for %v), want lane 0 only", n, made)
	}
	if st := f.Stats(); len(st.Shards) != 8 || st.Shards[5] != (ShardStats{Index: 5}) {
		t.Fatalf("unbuilt lane 5 reads %+v in %d entries, want an idle entry of 8", st.Shards[5], len(st.Shards))
	}
	for i := 0; i < 64 && f.Shards() < 8; i++ {
		f.DriveWidth(true)
	}
	if w, n := f.Shards(), len(f.built()); w != 8 || n != 8 {
		t.Fatalf("after growth: width %d, %d lanes built; want 8, 8", w, n)
	}
	for i, got := range made {
		if got != i {
			t.Fatalf("lanes built in order %v, want each of 0..7 once", made)
		}
	}
	for i := 0; i < 256 && f.Shards() > 1; i++ {
		f.DriveWidth(false)
	}
	if w, n := f.Shards(), len(f.built()); w != 1 || n != 8 {
		t.Fatalf("after collapse: width %d, %d lanes built; want 1, 8 (lanes are never freed)", w, n)
	}
	for i := 0; i < 64 && f.Shards() < 8; i++ {
		f.DriveWidth(true)
	}
	if len(made) != 8 {
		t.Errorf("re-growth called mk %d times in all, want 8: built lanes are reused", len(made))
	}
}

// TestWidenedLaneWaiterFoundAfterShrink: a consumer parked in a lane that
// widening built is still found from lane 0 once the width shrinks back
// to 1. The consumer waits through the lane's own commit step, exactly as
// the fabric's take engine does when its home is that lane.
func TestWidenedLaneWaiterFoundAfterShrink(t *testing.T) {
	f := newAutoFabric(8, nil)
	for i := 0; i < 64 && f.Shards() < 8; i++ {
		f.DriveWidth(true)
	}
	if w := f.Shards(); w != 8 {
		t.Fatalf("contended drive stalled at width %d, want 8", w)
	}
	const k = 5
	l := f.lanes[k]
	got := make(chan int64, 1)
	go func() {
		for {
			v, st := l.TakeCommit(time.Time{}, nil, l.takeStep)
			if st == core.OK {
				got <- v
				return
			}
			if st != core.Withdrawn {
				t.Errorf("waiter on lane %d returned %v", k, st)
				return
			}
		}
	}()
	for deadline := time.Now().Add(5 * time.Second); !l.HasWaitingConsumer(); runtime.Gosched() {
		if time.Now().After(deadline) {
			t.Fatalf("consumer never parked on lane %d", k)
		}
	}
	for i := 0; i < 256 && f.Shards() > 1; i++ {
		f.DriveWidth(false)
	}
	if w := f.Shards(); w != 1 {
		t.Fatalf("collapse stalled at width %d", w)
	}
	// Width 1 homes every arrival on lane 0; the put must find lane k.
	if !offerTimeout(f, 42, 5*time.Second) {
		t.Fatalf("a put homed on lane 0 missed the consumer parked on lane %d", k)
	}
	if v := <-got; v != 42 {
		t.Fatalf("parked consumer received %d, want 42", v)
	}
}

// TestLaneBuildCloseStorm races lane building against Close on a
// GOMAXPROCS-8 self-scaling fabric: a goroutine drives the width up
// through DriveWidth while demand Puts and Takes arrive, more of them
// consumers than producers so that some stay parked, and Close lands at a
// varying point. Every waiter must return Closed or complete one
// transfer, each delivered value exactly once. Once Closed() reads true,
// every built lane refuses a hand-off, fresh operations return Closed,
// and no lane is built any more, so nothing can complete after it: a
// lane built behind Close's back would strand a waiter parked there
// (caught by the watchdog) or refuse nothing (caught by the lane check).
func TestLaneBuildCloseStorm(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(8))
	rounds := 400
	if testing.Short() || raceEnabled {
		rounds = 100
	}
	const producers, consumers = 3, 6
	for r := 0; r < rounds; r++ {
		f := newAutoFabric(8, nil)
		start := make(chan struct{})
		var waiters, grower sync.WaitGroup
		puts := make([]core.Status, producers)
		takes := make([]struct {
			v  int64
			st core.Status
		}, consumers)
		for p := range puts {
			waiters.Add(1)
			go func() {
				defer waiters.Done()
				<-start
				puts[p] = f.PutDeadline(int64(p+1), time.Time{}, nil)
			}()
		}
		for c := range takes {
			waiters.Add(1)
			go func() {
				defer waiters.Done()
				<-start
				takes[c].v, takes[c].st = f.TakeDeadline(time.Time{}, nil)
			}()
		}
		grower.Add(1)
		go func() {
			defer grower.Done()
			<-start
			for i := 0; i < 64 && f.Shards() < 8; i++ {
				f.DriveWidth(true)
			}
		}()
		close(start)
		for i := 0; i < r%24; i++ {
			runtime.Gosched()
		}
		f.Close()
		if !f.Closed() {
			t.Fatal("Closed() reads false after Close returned")
		}
		if st := f.PutDeadline(-1, core.DeadlineFor(time.Second), nil); st != core.Closed {
			t.Fatalf("round %d: a put after Close returned %v, want Closed", r, st)
		}

		done := make(chan struct{})
		go func() { waiters.Wait(); grower.Wait(); close(done) }()
		select {
		case <-done:
		case <-time.After(20 * time.Second):
			t.Fatalf("round %d: waiters stranded after Close (%d of %d lanes built)", r, len(f.built()), f.MaxShards())
		}
		for i, l := range f.built() {
			if st := l.PutDeadline(-1, core.Expired, nil); st != core.Closed {
				t.Fatalf("round %d: lane %d was built but not closed (probe returned %v)", r, i, st)
			}
		}
		if w := f.Shards(); w > len(f.built()) {
			t.Fatalf("round %d: width %d names unbuilt lanes (%d built)", r, w, len(f.built()))
		}

		delivered := map[int64]int{}
		for p, st := range puts {
			switch st {
			case core.OK:
				delivered[int64(p+1)]++
			case core.Closed:
			default:
				t.Fatalf("round %d: producer %d returned %v, want OK or Closed", r, p, st)
			}
		}
		for c, tk := range takes {
			switch tk.st {
			case core.OK:
				delivered[tk.v]--
			case core.Closed:
			default:
				t.Fatalf("round %d: consumer %d returned %v, want OK or Closed", r, c, tk.st)
			}
		}
		for v, n := range delivered {
			if n != 0 {
				t.Fatalf("round %d: value %d was put %+d more times than it was taken", r, v, n)
			}
		}
	}
}
