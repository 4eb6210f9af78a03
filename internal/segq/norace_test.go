//go:build !race

package segq

const raceEnabled = false
