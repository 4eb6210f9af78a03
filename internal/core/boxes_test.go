package core

import (
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"synchq/internal/metrics"
)

// Tests for the dual queue's value boxes: a datum rides in a box lent by
// index from the queue's lend.Table, a node's item word names the box
// (index+1), and the side that reads the value out scrubs the box and
// returns its index (unbox). The table itself is tested in internal/lend.

// checkBoxes verifies, on a quiescent queue, that no box index is named
// by two live nodes and that every issued box is either named by a live
// node or free — none leaked, none on the free stack twice. It lends the
// free boxes to count them and returns them afterwards.
func checkBoxes[T any](t *testing.T, q *DualQueue[T]) (named int) {
	t.Helper()
	live := map[uint32]bool{}
	for n := q.head.Load().next.Load(); n != nil; n = n.next.Load() {
		x := n.item.Load()
		if x == noItem || isDead(x) {
			continue
		}
		if live[x-1] {
			t.Fatalf("box %d is named by two live nodes", x-1)
		}
		live[x-1] = true
	}
	free := int(q.boxes.Issued()) - len(live)
	if free < 0 {
		t.Fatalf("%d live nodes name boxes, but only %d were issued", len(live), q.boxes.Issued())
	}
	lent := make([]uint32, 0, free)
	seen := map[uint32]bool{}
	for k := 0; k < free; k++ {
		i, _, fresh := q.boxes.Lend()
		switch {
		case fresh:
			t.Fatalf("only %d of %d unnamed boxes are free: the rest leaked", k, free)
		case live[i]:
			t.Fatalf("box %d is on the free stack while a live node names it", i)
		case seen[i]:
			t.Fatalf("box %d is on the free stack twice", i)
		}
		seen[i] = true
		lent = append(lent, i)
	}
	for _, i := range lent {
		q.boxes.Return(i)
	}
	return len(live)
}

// TestBoxRoundTripAcrossChunks: a backlog of deposits spanning five of the
// table's doubling chunks names one box per node, each holding its datum;
// draining it delivers every datum in order and scrubs and frees every
// box.
func TestBoxRoundTripAcrossChunks(t *testing.T) {
	q := NewDualQueue[int64](WaitConfig{})
	const n = 8 + 16 + 32 + 64 + 1 // the first index of the fifth chunk
	for v := int64(0); v < n; v++ {
		if st := q.PutAsync(1000 + v); st != OK {
			t.Fatalf("PutAsync = %v", st)
		}
	}
	v := int64(1000)
	for nd := q.head.Load().next.Load(); nd != nil; nd = nd.next.Load() {
		x := nd.item.Load()
		if got := *q.boxes.At(x - 1); got != v {
			t.Fatalf("the node for datum %d names box %d, which holds %d", v, x-1, got)
		}
		v++
	}
	if named := checkBoxes(t, q); named != n {
		t.Fatalf("%d live nodes name boxes, want %d", named, n)
	}
	for want := int64(1000); want < 1000+n; want++ {
		if got, ok := poll(q); !ok || got != want {
			t.Fatalf("Poll = (%d, %v), want (%d, true)", got, ok, want)
		}
	}
	for i := uint32(0); i < q.boxes.Issued(); i++ {
		if *q.boxes.At(i) != 0 {
			t.Fatalf("box %d still holds %d after its datum was taken", i, *q.boxes.At(i))
		}
	}
	checkBoxes(t, q)
}

// TestBoxBacklogKeepsPeak: a PutAsync backlog of n, drained, leaves the
// box table holding at most 2n+8 boxes, and a second identical burst is
// served from the free stack without growing it.
func TestBoxBacklogKeepsPeak(t *testing.T) {
	for _, n := range []int{1, 9, 100, 1000} {
		q := NewDualQueue[int64](WaitConfig{})
		burst := func() {
			for v := 0; v < n; v++ {
				q.PutAsync(int64(v))
			}
			for v := 0; v < n; v++ {
				if _, ok := poll(q); !ok {
					t.Fatalf("backlog of %d: poll %d found nothing", n, v)
				}
			}
		}
		burst()
		issued, held := q.boxes.Issued(), q.boxes.Cap()
		if held > 2*n+8 {
			t.Fatalf("backlog of %d: the box table holds %d boxes, want at most %d", n, held, 2*n+8)
		}
		burst()
		if q.boxes.Issued() != issued || q.boxes.Cap() != held {
			t.Fatalf("backlog of %d: a second burst grew the box table (issued %d → %d, holds %d → %d)",
				n, issued, q.boxes.Issued(), held, q.boxes.Cap())
		}
		checkBoxes(t, q)
	}
}

// TestBoxReuseCountsAsNodeReuse: core.node_reuse_ratio keeps its meaning
// under the box table — a newly issued box counts as an allocation, a box
// taken from the free stack as a reuse, like a node drawn from the spare slot.
func TestBoxReuseCountsAsNodeReuse(t *testing.T) {
	h := metrics.New()
	q := NewDualQueue[int64](WaitConfig{Metrics: h})
	q.PutAsync(1) // a fresh box and a fresh node
	if a, r := h.Load(metrics.NodeAllocs), h.Load(metrics.NodeReuses); a != 2 || r != 0 {
		t.Fatalf("first deposit: NodeAllocs %d, NodeReuses %d, want 2 and 0", a, r)
	}
	poll(q)       // returns the box
	q.PutAsync(2) // the returned box and a fresh node
	if a, r := h.Load(metrics.NodeAllocs), h.Load(metrics.NodeReuses); a != 3 || r != 1 {
		t.Fatalf("second deposit: NodeAllocs %d, NodeReuses %d, want 3 and 1", a, r)
	}
}

// TestBoxesRetainNoUserValues: a pointer payload becomes collectable once
// its transfer is over, whichever path it took — to a waiting consumer,
// from a waiting producer, through a drained deposit, back out of a timed
// offer or a reservation that was withdrawn, or refused by a closed queue
// — so the box table, which keeps its boxes, never pins user data.
func TestBoxesRetainNoUserValues(t *testing.T) {
	q := NewDualQueue[*[]byte](WaitConfig{})
	probes := map[string]chan struct{}{}
	probe := func(what string) *[]byte {
		v, c := leakProbe()
		probes[what] = c
		return v
	}

	// To a waiting consumer, and from a waiting producer.
	got := make(chan *[]byte)
	go func() { got <- q.Take() }()
	waitLen[*[]byte](t, q, 1)
	q.Put(probe("value handed to a waiting consumer"))
	<-got
	go func() { q.Put(probe("value taken from a waiting producer")) }()
	waitLen[*[]byte](t, q, 1)
	q.Take()

	// A drained deposit, a timed offer, a withdrawn reservation.
	q.PutAsync(probe("drained deposit"))
	poll(q)
	offerTimeout(q, probe("timed-out offer's value"), time.Millisecond)
	if tk, ok := q.ReservePut(probe("withdrawn reservation's value")); ok || !tk.Abort() {
		t.Fatal("reservation on an empty queue did not stay pending and abort")
	}

	// A deposit refused by a closed queue.
	q.Close()
	q.PutAsync(probe("refused deposit"))

	for what, c := range probes {
		expectCollected(t, what, c)
	}
	checkBoxes(t, q)
}

// TestBoxStorm races Put, Take, Offer, Poll and PutAsync on one queue, and
// closes it midway in every other round (run it with -race). Every datum
// is unique, so a box lent to two nodes at once, or returned while a node
// still named it, surfaces as a lost, duplicated or invented value — and
// under -race as a data race on the box. Between rounds, with every
// operation finished, no box index may be named by two live nodes and
// every issued box must be named or free.
func TestBoxStorm(t *testing.T) {
	prev := runtime.GOMAXPROCS(4)
	defer runtime.GOMAXPROCS(prev)
	rounds, per := 40, 400
	if testing.Short() {
		rounds, per = 6, 200
	}
	const producers, consumers = 3, 3
	patience := 50 * time.Microsecond
	for round := 0; round < rounds; round++ {
		q := NewDualQueue[int64](WaitConfig{})
		var accepted atomic.Int64
		var stop atomic.Bool
		received := make([][]int64, consumers)
		var pwg, cwg sync.WaitGroup
		for p := 0; p < producers; p++ {
			pwg.Add(1)
			go func() {
				defer pwg.Done()
				for k := 0; k < per; k++ {
					v := int64(p)<<32 | int64(k)
					var st Status
					switch k % 4 {
					case 0:
						st = q.PutAsync(v)
					case 1:
						st = q.PutDeadline(v, Expired, nil) // offer
					default:
						st = q.PutDeadline(v, time.Now().Add(patience), nil)
					}
					if st == OK {
						accepted.Add(1)
					}
				}
			}()
		}
		for c := 0; c < consumers; c++ {
			cwg.Add(1)
			go func() {
				defer cwg.Done()
				for k := 0; !stop.Load(); k++ {
					var v int64
					var st Status
					if k%2 == 0 {
						v, st = q.TakeDeadline(Expired, nil) // poll
					} else {
						v, st = q.TakeDeadline(time.Now().Add(patience), nil)
					}
					if st == OK {
						received[c] = append(received[c], v)
					}
				}
			}()
		}
		if round%2 == 1 {
			time.Sleep(time.Millisecond)
			q.Close()
		}
		// Producers finish on their own; consumers once they have.
		pwg.Wait()
		stop.Store(true)
		cwg.Wait()
		checkBoxes(t, q)
		// Drain what was deposited and not yet taken, then account.
		rest := drain[int64](q)
		seen := map[int64]bool{}
		total := 0
		for _, vs := range append(received, rest) {
			for _, v := range vs {
				if seen[v] {
					t.Fatalf("round %d: datum %#x delivered twice", round, v)
				}
				if p, k := v>>32, v&(1<<32-1); p < 0 || p >= producers || k >= int64(per) {
					t.Fatalf("round %d: datum %#x was never put", round, v)
				}
				seen[v] = true
				total++
			}
		}
		if int64(total) != accepted.Load() {
			t.Fatalf("round %d: %d data accepted, %d delivered", round, accepted.Load(), total)
		}
		if named := checkBoxes(t, q); named != 0 {
			t.Fatalf("round %d: %d boxes still named after the drain", round, named)
		}
	}
}
