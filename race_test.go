//go:build race

package synchq_test

// raceEnabled reports whether the race detector is on; its instrumentation
// grows every frame, so the stack-depth probe does not apply.
const raceEnabled = true
