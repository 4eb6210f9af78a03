//go:build !race

package synchq

const raceEnabled = false
