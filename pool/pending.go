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

// taskEnv states. pending is the only state a claim can start from; the
// CAS to a terminal state is the task's linearization point of fate.
const (
	envPending int32 = iota
	envRunning
	envShed
	envReturned
	envAborted
)

// taskEnv is the admission envelope of one submitted task. Every accepted
// task allocates one, so it is kept to 48 bytes: the deadline is a single
// word on the metrics.Nanos clock rather than a 24-byte time.Time, and
// state and linked share the last word.
type taskEnv struct {
	t   Task
	due int64 // metrics.Nanos deadline; 0 means none
	enq int64 // sampled queue-wait clock (metrics.Handle.Start)

	prev, next *taskEnv // intrusive pending list, guarded by Pool.pendMu
	state      atomic.Int32
	linked     bool // guarded by Pool.pendMu
}

// claim attempts to move the envelope from pending to the given terminal
// state, returning true exactly once across all claimants.
func (e *taskEnv) claim(to int32) bool {
	return e.state.CompareAndSwap(envPending, to)
}

// link registers env at the tail of the pending list and stamps its
// queue-wait clock.
func (p *Pool) link(env *taskEnv) {
	env.enq = p.h.Start()
	p.pendMu.Lock()
	env.linked = true
	env.prev = p.pendTail
	if p.pendTail != nil {
		p.pendTail.next = env
	} else {
		p.pendHead = env
	}
	p.pendTail = env
	p.pendMu.Unlock()
	p.pendN.Add(1)
}

// unlink removes env from the pending list if it is still there.
func (p *Pool) unlink(env *taskEnv) {
	p.pendMu.Lock()
	p.unlinkLocked(env)
	p.pendMu.Unlock()
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

// settle finishes a won claim: the envelope leaves the pending list, the
// pending count drops, and its admission-budget slot is released. Must be
// called exactly once, by the claim winner.
func (p *Pool) settle(env *taskEnv) {
	p.unlink(env)
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
			p.unlinkLocked(e)
			p.pendN.Add(-1)
			p.releaseSlot()
			p.returnedN.Add(1)
			p.h.Inc(metrics.TasksReturned)
			out = append(out, e.t)
		}
		e = next
	}
	p.pendMu.Unlock()
	return out
}
