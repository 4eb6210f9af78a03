package synchq

import (
	"context"
	"testing"
	"time"

	"synchq/internal/core"
)

// These tests pin the attempt-first contract of the context operations:
// PutContext/TakeContext (and TransferContext) must not pre-screen on
// Closed() — they hand the attempt to the core and report whatever it
// observed. A Closed() probe is inherently stale (the answer can change
// before the attempt starts), and pre-screening it made the context
// operations spuriously reject hand-offs that the core would have
// completed — e.g. an elimination-arena pairing racing a shutdown (see
// TestEliminationWinsOverClose), or a buffered element a closing
// TransferQueue still owes its consumers.

// stubImpl reports Closed()==true while still completing transfers — the
// shape of a queue mid-shutdown whose in-flight hand-offs must win. Only
// the methods the context operations touch do anything.
type stubImpl[T any] struct {
	v    T
	puts int
}

func (f *stubImpl[T]) PutDeadline(v T, _ time.Time, _ <-chan struct{}) core.Status {
	f.v = v
	f.puts++
	return core.OK
}
func (f *stubImpl[T]) TakeDeadline(_ time.Time, _ <-chan struct{}) (T, core.Status) {
	return f.v, core.OK
}
func (f *stubImpl[T]) HasWaitingConsumer() bool               { return false }
func (f *stubImpl[T]) HasWaitingProducer() bool               { return false }
func (f *stubImpl[T]) ReserveTake() (T, core.Ticket[T], bool) { var z T; return z, nil, false }
func (f *stubImpl[T]) ReservePut(v T) (core.Ticket[T], bool)  { return nil, false }
func (f *stubImpl[T]) PutBatch(items []T, _ time.Time, _ <-chan struct{}) (int, core.Status) {
	for _, v := range items {
		f.v = v
		f.puts++
	}
	return len(items), core.OK
}
func (f *stubImpl[T]) TakeBatch(buf []T, max int, _ time.Time, _ <-chan struct{}) ([]T, core.Status) {
	if max > 0 {
		buf = append(buf, f.v)
	}
	return buf, core.OK
}
func (f *stubImpl[T]) Close()       {}
func (f *stubImpl[T]) Closed() bool { return true }

// TestContextOpsAttemptFirst feeds the context operations an impl that
// claims to be closed yet completes every attempt: the operations must
// report the attempt's success, proving they no longer pre-screen on the
// stale Closed() answer. (Before the fix, both returned ErrClosed without
// ever reaching the core.)
func TestContextOpsAttemptFirst(t *testing.T) {
	f := &stubImpl[int]{}
	q := &SynchronousQueue[int]{impl: f}

	if err := q.PutContext(context.Background(), 7); err != nil {
		t.Fatalf("PutContext pre-screened on Closed(): err = %v, want nil", err)
	}
	if f.puts != 1 {
		t.Fatalf("PutContext did not reach the core (puts = %d)", f.puts)
	}
	v, err := q.TakeContext(context.Background())
	if err != nil || v != 7 {
		t.Fatalf("TakeContext = (%d, %v), want (7, nil)", v, err)
	}
}
