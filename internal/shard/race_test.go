//go:build race

package shard

// raceEnabled reports whether the race detector is on, so that
// TestLaneBuildCloseStorm can run fewer rounds under its slowdown.
const raceEnabled = true
