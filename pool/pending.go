package pool

import (
	"sync/atomic"

	"synchq/internal/metrics"
)

// The pending-task ledger. Every submission is wrapped in a taskEnv whose
// one-shot state word decides the task's fate exactly once: run by a
// worker, shed by policy or deadline, returned by a forced drain, or
// aborted by a submission that failed to land. Envelopes awaiting their
// fate sit in an intrusive doubly-linked FIFO list; whoever wins the state
// CAS unlinks the envelope and releases its admission-budget slot. The
// wrapper closures handed to the queue consult the state on dequeue, so a
// task shed or reclaimed while buffered leaves only an inert wrapper
// behind — the queue is never searched or mutated to shed a task.
//
// Envelopes are recycled through a small per-pool free list. An envelope
// carries two references: the fate reference, dropped by the claim winner
// once it has unlinked the envelope and read what it needs, and the
// dispatch reference, dropped by whoever can still call dispatch on it —
// the worker once dispatch returns or loses its claim, or the submitter
// after an unwind or a CallerRuns dispatch. Only when both are dropped
// does the envelope go back on the free list, so a wrapper still buffered
// after its task was shed keeps its envelope out of reuse until a worker
// dispatches it.

// taskEnv states. pending is the only state a claim can start from; the
// CAS to a terminal state is the task's linearization point of fate.
const (
	envPending int32 = iota
	envRunning
	envShed
	envReturned
	envAborted
)

// maxFreeEnvs caps a pool's free list: 64 envelopes, 4 KB retained at most.
const maxFreeEnvs = 64

// taskEnv is the admission envelope of one submitted task. Envelopes are
// reused, so its size is retained memory rather than a per-task cost; the
// deadline is still a single word on the metrics.Nanos clock rather than a
// 24-byte time.Time, keeping it within 64 bytes.
type taskEnv struct {
	t   Task
	due int64 // metrics.Nanos deadline; 0 means none
	enq int64 // sampled queue-wait clock (metrics.Handle.Start)

	// prev and next thread the pending list; next also threads the free
	// list. Both guarded by Pool.pendMu.
	prev, next *taskEnv
	// run is the dispatch wrapper handed to the queue, built on the
	// envelope's first hand-off and reused by every later task.
	run    Task
	state  atomic.Int32
	linked bool // guarded by Pool.pendMu
	refs   int8 // fate + dispatch references held; guarded by Pool.pendMu
}

// claim attempts to move the envelope from pending to the given terminal
// state, returning true exactly once across all claimants.
func (e *taskEnv) claim(to int32) bool {
	return e.state.CompareAndSwap(envPending, to)
}

// link takes an envelope for t — a recycled one when the free list has
// any — and registers it at the tail of the pending list, stamping its
// queue-wait clock. The caller holds its dispatch reference.
func (p *Pool) link(t Task, due int64) *taskEnv {
	enq := p.h.Start()
	p.pendMu.Lock()
	env := p.free
	if env != nil {
		p.free = env.next
		p.freeN--
	} else {
		env = new(taskEnv)
	}
	env.t, env.due, env.enq = t, due, enq
	env.state.Store(envPending)
	env.refs = 2
	env.linked = true
	env.prev, env.next = p.pendTail, nil
	if p.pendTail != nil {
		p.pendTail.next = env
	} else {
		p.pendHead = env
	}
	p.pendTail = env
	p.pendMu.Unlock()
	p.pendN.Add(1)
	return env
}

func (p *Pool) unlinkLocked(env *taskEnv) {
	if !env.linked {
		return
	}
	env.linked = false
	if env.prev != nil {
		env.prev.next = env.next
	} else {
		p.pendHead = env.next
	}
	if env.next != nil {
		env.next.prev = env.prev
	} else {
		p.pendTail = env.prev
	}
	env.prev, env.next = nil, nil
}

// dropLocked drops n of env's references; the last drop recycles it.
func (p *Pool) dropLocked(env *taskEnv, n int8) {
	env.refs -= n
	if env.refs > 0 || p.freeN >= maxFreeEnvs {
		return
	}
	env.t = nil // retain no user closure
	env.next = p.free
	p.free = env
	p.freeN++
}

// drop releases env's dispatch reference after a lost claim.
func (p *Pool) drop(env *taskEnv) {
	p.pendMu.Lock()
	p.dropLocked(env, 1)
	p.pendMu.Unlock()
}

// settle finishes a won claim: the envelope leaves the pending list, the
// pending count drops, and its admission-budget slot is released. Must be
// called exactly once, by the claim winner, which also drops its dispatch
// reference here: settle's critical section is where a hand-off's
// envelope is recycled. The caller must have read every field it needs.
func (p *Pool) settle(env *taskEnv) {
	p.pendMu.Lock()
	p.unlinkLocked(env)
	p.dropLocked(env, 2)
	p.pendMu.Unlock()
	p.pendN.Add(-1)
	p.releaseSlot()
}

// releaseSlot frees one admission-budget token. Never blocks: only held
// slots are released.
func (p *Pool) releaseSlot() {
	if p.slots != nil {
		<-p.slots
	}
}

// shedOldest claims and sheds the oldest still-pending task, freeing its
// budget slot. Returns false when nothing was claimable. The shed
// task's wrapper stays in the queue as an inert tombstone; dispatch
// no-ops on it.
func (p *Pool) shedOldest() bool {
	p.pendMu.Lock()
	for e := p.pendHead; e != nil; e = e.next {
		if e.claim(envShed) {
			p.unlinkLocked(e)
			p.dropLocked(e, 1)
			p.pendMu.Unlock()
			p.pendN.Add(-1)
			p.releaseSlot()
			p.shedN.Add(1)
			p.h.Inc(metrics.TasksShed)
			return true
		}
	}
	p.pendMu.Unlock()
	return false
}

// reclaimPending claims every still-pending task as returned and hands
// back the original task functions, oldest first — the forced-drain arm
// of the conservation guarantee.
func (p *Pool) reclaimPending() []Task {
	var out []Task
	p.pendMu.Lock()
	for e := p.pendHead; e != nil; {
		next := e.next
		if e.claim(envReturned) {
			out = append(out, e.t)
			p.unlinkLocked(e)
			p.dropLocked(e, 1)
			p.pendN.Add(-1)
			p.releaseSlot()
			p.returnedN.Add(1)
			p.h.Inc(metrics.TasksReturned)
		}
		e = next
	}
	p.pendMu.Unlock()
	return out
}
