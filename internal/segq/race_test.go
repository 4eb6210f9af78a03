//go:build race

package segq

// raceEnabled reports whether the race detector is on. Under -race,
// sync.Pool deliberately drops a quarter of Puts (see sync/pool.go), so
// the parkers and timers the wait loop pools are re-allocated now and
// then, and the allocation budgets widen.
const raceEnabled = true
