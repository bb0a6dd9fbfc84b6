//go:build race

package ros

// raceEnabled reports whether the race detector is on; see race_off_test.go.
const raceEnabled = true
