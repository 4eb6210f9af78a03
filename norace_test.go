//go:build !race

package synchq_test

const raceEnabled = false
