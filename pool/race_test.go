//go:build race

package pool

// raceEnabled reports whether the race detector is on. Under -race,
// sync.Pool deliberately drops a quarter of Puts (see sync/pool.go), so
// pooled queue nodes are re-allocated now and then and the allocation
// budgets widen.
const raceEnabled = true
