//go:build race

package pool

// raceEnabled reports whether the race detector is on. Under -race,
// sync.Pool deliberately drops a quarter of Puts (see sync/pool.go). On
// the executor's hand-off path the drops that cost bytes are the park
// package's: the timerPool timers behind every timed worker poll (~30 B
// per accepted task) and the sigPool notifiers a parking waiter attaches
// (~15 B), each re-allocated about every fourth wait, so the allocation
// budgets widen by 64 B.
const raceEnabled = true
