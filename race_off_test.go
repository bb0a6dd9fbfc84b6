//go:build !race

package ros

// raceEnabled reports whether the race detector is on. The race detector
// makes sync.Pool drop items at random, so exact allocation budgets skip
// under it.
const raceEnabled = false
