//go:build race

package shard

// raceEnabled reports whether the race detector is on. Under -race,
// sync.Pool deliberately drops a quarter of Puts (see sync/pool.go), so the
// allocation budgets widen.
const raceEnabled = true
