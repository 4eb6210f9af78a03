//go:build race

package synchq

// raceEnabled reports whether the race detector is on; its instrumentation
// grows every frame, so the first-hand-off stack budget does not apply.
const raceEnabled = true
