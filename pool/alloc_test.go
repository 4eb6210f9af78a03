package pool

import (
	"runtime"
	"testing"
	"time"
	"unsafe"

	"synchq"
)

// The envelope is the one allocation every accepted task pays for, so its
// size class is part of the executor's per-task cost: 48 bytes, not the
// 80-byte class a time.Time deadline would push it into.
func TestEnvelopeSize(t *testing.T) {
	if got := unsafe.Sizeof(taskEnv{}); got != 48 {
		t.Fatalf("taskEnv is %d bytes, want 48", got)
	}
}

// TestHandoffAllocBudget measures heap bytes per accepted task on the
// Submit fast path: an idle worker is already waiting in its poll, so the
// task is handed straight to it. What may reach the heap is the 48-byte
// envelope, the 24-byte dispatch wrapper, and the worker's 64-byte queue
// node for its next poll — 136 bytes. An envelope in the 80-byte class
// makes it 168.
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
	budget := 152.0
	if raceEnabled {
		budget += 64 // sync.Pool drops a quarter of Puts under -race
	}
	t.Logf("%.1f B per accepted task", perTask)
	if perTask > budget {
		t.Fatalf("hand-off path allocates %.1f B per accepted task, want at most %.0f", perTask, budget)
	}
}
