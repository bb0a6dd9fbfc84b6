//go:build !race

package detect

// raceEnabled reports whether the race detector is on; the frame-pool test
// skips under it because sync.Pool deliberately drops items when racing to
// widen the schedule space.
const raceEnabled = false
