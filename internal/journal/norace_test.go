//go:build !race

package journal

// raceEnabled reports whether the race detector is compiled in.
const raceEnabled = false
