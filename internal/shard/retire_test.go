package shard

import (
	"testing"

	"synchq/internal/core"
)

// lateProducerLane is a shard whose first "no waiting producer" answer
// lets a producer link and run its commit step before the caller acts on
// the answer: the announce finds the shard's bit still set and changes
// nothing.
type lateProducerLane struct {
	Dual[int64]
	f      *Fabric[int64]
	linked bool
}

func (l *lateProducerLane) HasWaitingProducer() bool {
	if l.linked {
		return true
	}
	l.linked = true
	l.f.lanes[0].putStep() // the producer's announce, after this answer
	return false
}

// TestRetireBitKeepsALateAnnounce: retireBit saw no producer on shard 0
// and clears its bit, but a producer linked and announced in between, on
// the still-set bit. The re-check after the clear must restore the bit, or
// that producer stays waiting where no take's sweep looks.
func TestRetireBitKeepsALateAnnounce(t *testing.T) {
	l := &lateProducerLane{Dual: core.NewDualQueue[int64](core.WaitConfig{})}
	f := New[int64](1, func(int) Dual[int64] { return l })
	l.f = f
	f.prod.Store(1) // an earlier producer's announce
	f.retireBit(0, true)
	if !l.linked {
		t.Fatal("retireBit did not ask the shard for its producers")
	}
	if f.prod.Load()&1 == 0 {
		t.Fatal("a producer that announced on the still-set bit is hidden: retireBit cleared the bit and kept it clear")
	}
}
