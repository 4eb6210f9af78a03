package pool

import (
	"runtime"
	"testing"
	"time"
	"unsafe"

	"synchq"
)

// Envelopes are recycled per pool, so the envelope's size is memory a
// pool retains (at most maxFreeEnvs of them), not a per-task cost; the cap
// keeps it within the 64-byte size class — the 80-byte class a time.Time
// deadline would push it into fails here.
func TestEnvelopeSize(t *testing.T) {
	if got := unsafe.Sizeof(taskEnv{}); got > 64 {
		t.Fatalf("taskEnv is %d bytes, want at most 64", got)
	}
}

// TestHandoffAllocBudget measures heap bytes per accepted task on the
// Submit fast path: an idle worker is already waiting in its poll, so the
// task is handed straight to it. The envelope and its dispatch wrapper are
// recycled, the task rides in a value box and the worker's parker is lent,
// both from the queue's index tables, so what reaches the heap is the
// worker's 16-byte queue node for its next poll. The limit leaves 8 bytes
// for the occasional pool refill; an envelope allocated per task (48
// bytes) plus its wrapper (24) reads ~89-93 and fails.
func TestHandoffAllocBudget(t *testing.T) {
	q := synchq.New[Task](synchq.Fair(true))
	p := New(q, Config{KeepAlive: time.Minute, MaxWorkers: 1})
	defer func() {
		p.Shutdown()
		p.Wait()
	}()
	done := make(chan struct{})
	task := func() { done <- struct{}{} }
	submit := func() {
		if err := p.Submit(task); err != nil {
			t.Fatalf("Submit: %v", err)
		}
		<-done
	}
	round := func() {
		for !q.HasWaitingConsumer() {
			runtime.Gosched()
		}
		submit()
	}
	submit() // spawns the worker
	for i := 0; i < 100; i++ {
		round() // warm the pools
	}
	const rounds = 2000
	h0 := p.Stats().Handoffs
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	for i := 0; i < rounds; i++ {
		round()
	}
	runtime.ReadMemStats(&m1)
	if h := p.Stats().Handoffs - h0; h != rounds {
		t.Fatalf("%d of %d submissions were hand-offs, want all", h, rounds)
	}
	perTask := float64(m1.TotalAlloc-m0.TotalAlloc) / rounds
	const budget = 24.0
	t.Logf("%.1f B per accepted task", perTask)
	if perTask > budget {
		t.Fatalf("hand-off path allocates %.1f B per accepted task, want at most %.0f", perTask, budget)
	}
}
