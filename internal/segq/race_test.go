//go:build race

package segq

// raceEnabled reports whether the race detector is on. Its slowdown holds
// a producer between claiming a run and resolving it long enough for a
// consumer's poll-speed arrival there to miss, so
// TestTakeBatchResultSizedByClaim, whose bound assumes misses are rare,
// does not run under it.
const raceEnabled = true
